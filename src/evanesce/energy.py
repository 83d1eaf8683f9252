"""Stored energy of the gap field, and the dwell-time picture.

The gap field is the two-component standing profile
C e^{+i k_z z} + D e^{-i k_z z} fixed by the boundary matching; in the
evanescent regime these are the decaying and growing exponentials.  The
time-averaged energy density combines the principal field F and the two
companion components that Maxwell's curl equations derive from it:

    u(z) = (1/4) [ (1 + (c k_x/omega)^2) |F|^2 + (c/omega)^2 |F'|^2 ]

in units of the incident field's eps0 E0^2 (TE) or mu0 H0^2 (TM); the
expression is polarization-independent in those units.  Both quadratic
field terms matter: the electric part alone would change the saturation
constant of the stored energy.

Stored energy saturates with gap width because the density decays like
e^{-2 kappa z}: widening the gap adds exponentially little.  The dwell
time, stored energy over incident power, therefore saturates exactly the
way the group delay does; that shared saturation is the content of the
Hartman effect.  The passenger-train toy model (`train_model`) makes the
same point with halved car occupancies summing to less than 2N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Scenario, _tm_weighted, wavevectors
from .delay import Channel, goos_hanchen_shift
from .scattering import ScatterResult, scatter


@dataclass(frozen=True)
class EnergyBudget:
    """Stored energy in the d-by-s interaction region, per unit depth.

    ``dwell_time`` is stored energy per unit interface area over the
    incident normal flux: stored / incident_power without the lateral
    extent s that scales both, so it cannot underflow with them.
    """

    stored: float          # J/m in normalized units
    incident_power: float  # W/m in normalized units
    dwell_time: float      # s


def _density_weights(scenario: Scenario):
    """Weights of |F|^2 and |F'|^2 in the energy density u(z) at the carrier."""
    omega, k_x = scenario.omega, wavevectors(scenario).k_x
    return (0.25 * (1 + (scenario.c * k_x / omega) ** 2),
            0.25 * (scenario.c / omega) ** 2)


def _growing_at_exit(res: ScatterResult, d: float) -> complex:
    """D e^{-i k_z d}, the growing term at z = d where it is largest.

    D ~ e^{-2 kappa d} underflows to 0 long before e^{kappa d} overflows.
    """
    return res.d_amp * np.exp(-1j * res.k_z_gap * d) if res.d_amp else 0j


def _field_integrals(res: ScatterResult, d: float) -> tuple[float, float]:
    """Integrals of |F|^2 and |F'|^2 over an evanescent gap, term by term.

    With k_z = i kappa the two exponentials have profiles e^{-+2 kappa z}
    and their cross term is constant.  The growing term is taken at z = d,
    so e^{2 kappa d} is never formed.
    """
    kappa = res.k_z_gap.imag
    c_amp, d_amp = res.c_amp, res.d_amp
    pure = ((abs(c_amp) ** 2 + abs(_growing_at_exit(res, d)) ** 2)
            * (-np.expm1(-2 * kappa * d) / (2 * kappa)))
    cross = 2 * (c_amp * d_amp.conjugate() * d).real
    return float(pure + cross), float(kappa ** 2 * (pure - cross))


def incident_flux(scenario: Scenario) -> float:
    """Normal component of the incident time-averaged flux at the carrier,
    normalized."""
    return _tm_weighted(scenario, scenario.c ** 2 * wavevectors(scenario).k_z_prism
                        / (2 * scenario.omega))


def integrated_density(scenario: Scenario) -> float:
    """Energy per unit interface area at the carrier: integral of u(z) over
    the gap.

    Closed form, term by term in the two gap amplitudes; it holds in the
    evanescent regime at any gap width.
    """
    scenario.require_tunneling()
    field_sq, slope_sq = _field_integrals(scatter(scenario), scenario.d)
    w_field, w_slope = _density_weights(scenario)
    return w_field * field_sq + w_slope * slope_sq


def stored_energy(scenario: Scenario) -> EnergyBudget:
    """Energy budget of the d-by-s storage region at the carrier.

    The lateral extent is the transmitted-channel Goos-Hanchen shift; the
    incident power crosses the matching s-wide entry window, so the dwell
    time is area-normalized stored energy over incident flux.
    """
    scenario.require_tunneling()
    per_area = integrated_density(scenario)
    shift = goos_hanchen_shift(scenario, Channel.TRANSMISSION)
    flux = incident_flux(scenario)
    return EnergyBudget(stored=per_area * shift, incident_power=flux * shift,
                        dwell_time=per_area / flux)


def evanescent_vs_free_energy(scenario: Scenario) -> float:
    """Mean-square gap field relative to a constant-amplitude wave.

    Ratio of the stored field energy to that of a traveling plane wave
    filling the same volume with the gap-entry amplitude: below 1, tending
    to 1 as kappa*d -> 0.  |F|^2 is convex (F'' = kappa^2 F) and flat at the
    exit face (Re F* F' = 0), so |C e^{-kappa d}| = |D e^{kappa d}| and
    1 - ratio = 2 |C|^2 e^{-x} (cosh x - sinh(x)/x)/|C + D|^2, x = 2 kappa d,
    the form used below x = 1e-3 with the bracket x^2/3 (1 + x^2/10): it
    cannot round above 1, nor cancel near the critical angle.
    """
    scenario.require_tunneling()
    if scenario.d <= 0:
        raise ValueError("ratio needs a finite gap, got d=0")
    res = scatter(scenario)
    entry = abs(res.c_amp + res.d_amp) ** 2
    x = 2 * res.k_z_gap.imag * scenario.d
    if x < 1e-3:
        return 1 - (2 * abs(res.c_amp) ** 2 * math.exp(-x)
                    * (x * x / 3 * (1 + x * x / 10)) / entry)
    field_sq, _ = _field_integrals(res, scenario.d)
    return field_sq / (entry * scenario.d)


def train_model(n_first_car: int, n_cars: int) -> tuple[int, float]:
    """Total passengers on a train loaded N, N//2, N//4, ... and a delay proxy.

    Integer occupancies use floor halving, which is exact when N is a power
    of two.  The total stays strictly below 2N however long the train: each
    extra car adds at most half the previous one.  ``delay_proxy`` is
    total/(2N), the fraction of the saturation bound reached.
    """
    if n_first_car < 1 or n_cars < 1:
        raise ValueError("need n_first_car >= 1 and n_cars >= 1")
    total = 0
    occupancy = n_first_car
    for _ in range(n_cars):
        if occupancy == 0:  # every later car is empty too
            break
        total += occupancy
        occupancy //= 2
    return total, total / (2 * n_first_car)

