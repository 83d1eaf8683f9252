"""Exact two-interface boundary matching for prism / gap / prism.

The stack is solved by composing the 2x2 interface and gap-propagation
matrices with a complex gap wavenumber

    k_z_gap = sqrt((omega/c)^2 - k_x^2 + 0j),

whose principal branch (Im >= 0, decay toward +z) covers the evanescent and
propagating regimes in one code path.  Eliminating the matrices analytically
gives the closed form used below, written in the bounded factor
e^{2i k_z_gap d} so that nothing overflows at any gap width.

Phase reference planes: the incident/reflected amplitudes live on the first
gap face (z = 0) and the transmitted amplitude on the second (z = d), so the
coefficient phases contain only the gap's contribution.  Amplitudes are
normalized to a unit incident field.  For TM the matched field is H_y and
the coefficients are H-field ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Polarization, Scenario, wavevectors


@dataclass(frozen=True)
class ScatterResult:
    """Complex scattering amplitudes for one (omega, k_x) probe.

    ``c_amp``/``d_amp`` are the gap-field components C e^{+i k_z_gap z} and
    D e^{-i k_z_gap z}; in the evanescent regime (k_z_gap = i kappa) these
    are the decaying and growing exponentials.  Fields may be numpy arrays
    when array inputs are scattered.
    """

    r: complex
    t: complex
    c_amp: complex
    d_amp: complex
    k_z_gap: complex


def _matching_constants(scenario: Scenario, omega, k_x, evanescent_drive: bool):
    """Interface constants (alpha_hat, k_z_gap); TM weights by 1/n^2."""
    n, c = scenario.n, scenario.c
    k0 = omega / c
    alpha_sq = (n * k0) ** 2 - k_x ** 2
    if evanescent_drive:
        # transversely uniform spectral drive: frequencies below the prism
        # cutoff are an evanescent forcing, principal branch Im >= 0
        alpha = np.sqrt(alpha_sq + 0j)
    else:
        if np.any(alpha_sq <= 0):
            raise ValueError(
                "k_x must correspond to a propagating wave in the prism "
                "(k_x < n*omega/c)"
            )
        alpha = np.sqrt(alpha_sq)
        if np.any(alpha < 1e-9 * n * k0):
            raise ValueError("degenerate grazing geometry: k_z_prism ~ 0")
    beta = np.sqrt(k0 ** 2 - k_x ** 2 + 0j)  # principal branch: Im >= 0
    alpha_hat = alpha / n ** 2 if scenario.polarization is Polarization.TM else alpha
    return alpha_hat, beta


def _transfer(scenario: Scenario, omega, k_x, evanescent_drive: bool):
    """(alpha_hat, k_z_gap, e^{i phi}, den, r_num): t = e^{i phi}/den and
    r = r_num/den.  Callers set ``np.errstate`` (it divides by alpha_hat)."""
    alpha_hat, beta = _matching_constants(scenario, omega, k_x, evanescent_drive)
    d = scenario.d
    phi = beta * d

    # Scaled by the bounded e^{i phi} (Im beta >= 0), nothing overflows and
    # t underflows cleanly to 0 for kappa*d > ~745.  e^{i phi} sin(phi)/beta
    # via its series near phi = 0 keeps the critical angle and d = 0 exact.
    prop = np.exp(1j * phi)
    e_sin = np.expm1(2j * phi) / 2j
    small = np.abs(phi) < 1e-8
    beta_safe = np.where(small, 1.0, beta)
    # phi zeroed where the series is unused, so that d*phi cannot overflow
    # at wide gaps: phi * True is phi, and a product costs far less than
    # np.where on scalars
    e_sin_over_beta = np.where(small, d * (1 + 1j * (phi * small)),
                               e_sin / beta_safe)
    a_term = alpha_hat * e_sin_over_beta        # (alpha_hat/beta) e^{i phi} sin(phi)
    b_term = beta * e_sin / alpha_hat           # (beta/alpha_hat) e^{i phi} sin(phi)
    den = 1 + 1j * e_sin - 0.5j * (a_term + b_term)  # 1 + i e^{i phi} sin = e^{i phi} cos
    return alpha_hat, beta, prop, den, -0.5j * (a_term - b_term)


def scatter(scenario: Scenario, omega: float | None = None,
            k_x: float | None = None) -> ScatterResult:
    """Solve the two-interface problem at (omega, k_x).

    ``omega`` and ``k_x`` are given together, or neither for the scenario
    carrier at its incidence angle.  Scalar inputs give scalar (complex)
    fields; array inputs broadcast.  k_x must be that of a wave propagating
    in the prism, k_x < n*omega/c.

    Returns
    -------
    ScatterResult
        Reflection/transmission coefficients and gap amplitudes, satisfying
        |r|^2 + |t|^2 = 1 for the lossless symmetric stack.
    """
    if (omega is None) != (k_x is None):
        raise ValueError("give omega and k_x together, or neither")
    if omega is None:
        omega, k_x = scenario.omega, wavevectors(scenario).k_x
    omega_a = np.asarray(omega, dtype=float)
    kx_a = np.asarray(k_x, dtype=float)
    if not (np.all(np.isfinite(omega_a)) and np.all(np.isfinite(kx_a))):
        raise ValueError("omega and k_x must be finite")
    if np.any(omega_a <= 0):
        raise ValueError("omega must be positive")

    # The decaying amplitude is matched at the first interface, the growing
    # one (~e^{-2 kappa d}) at the second, where it is a product rather than
    # a difference cancelling to rounding noise.  Exactly at the critical
    # angle both diverge (r and t do not): that point gives inf/nan amplitudes.
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha_hat, beta, prop, den, r_num = _transfer(
            scenario, omega_a, kx_a, False)
        t = prop / den
        r = r_num / den
        ratio = alpha_hat / beta
        c_amp = 0.5 * ((1 + r) + ratio * (1 - r))
        d_amp = 0.5 * t * (1 - ratio) * prop

    if omega_a.ndim == 0 and kx_a.ndim == 0:
        return ScatterResult(
            r=complex(r), t=complex(t), c_amp=complex(c_amp),
            d_amp=complex(d_amp), k_z_gap=complex(beta),
        )
    return ScatterResult(r=r, t=t, c_amp=c_amp, d_amp=d_amp, k_z_gap=beta)


def approx_transmission(scenario: Scenario) -> float:
    """Wide-gap intensity transmission e^{-2 kappa d}.

    This is the asymptote of the exact |t|^2 up to a finite prefactor; the
    exact value comes from ``scatter``.
    """
    scenario.require_tunneling()
    kappa = wavevectors(scenario).kappa
    return math.exp(-2 * kappa * scenario.d)


def attenuation_db_per_mm(scenario: Scenario) -> float:
    """Evanescent attenuation 10 log10(e^{-2 kappa * 0.001}) [dB/mm], < 0."""
    scenario.require_tunneling()
    kappa = wavevectors(scenario).kappa
    # identical to 10*log10(exp(-2*kappa*1e-3)) but immune to exp underflow
    return -20.0 * kappa * 1e-3 / math.log(10.0)


def gap_attenuation_db(scenario: Scenario) -> float:
    """Total loss over the gap, 2 kappa d in dB, reported positive."""
    scenario.require_tunneling()
    kappa = wavevectors(scenario).kappa
    return 20.0 * kappa * scenario.d / math.log(10.0)
