"""Group delay of the gap and its phase/lateral-shift decomposition.

For a pulse incident at fixed angle, the transmitted (or reflected) peak
leaves the structure displaced along the interface by the Goos-Hanchen
shift ``s`` and delayed relative to the incident peak by

    tau_g = tau_0 + s * (n sin(theta) / c),

where ``tau_0`` is the frequency derivative of the channel phase taken
along the fixed-angle dispersion path (k_x = n omega sin(theta)/c varies
with omega) and ``s = -d(phase)/d(k_x)`` at fixed omega.  By the chain rule
the sum equals the partial derivative of the phase with respect to omega at
fixed k_x.

``tau_0`` decays like e^{-2 kappa d} once the gap is a wavelength or more
wide, so the saturated delay is pure lateral transport: energy crossing the
shift distance ``s`` at the interface trace speed c/(n sin(theta)).  That
saturation with gap width is the Hartman effect, swept by
``hartman_sweep``.

All derivatives are closed forms.  ``scatter`` writes t = e^{i beta d}/den
with den = (2 + q)/4 * (1 + rho E), where q = alpha_hat/beta + beta/alpha_hat,
rho = (2 - q)/(2 + q) and E = e^{2i beta d}.  Along any direction in
(omega, k_x) at fixed d,

    d log t = i d beta' - q' (1 - E) / ((2 + q)(1 + rho E))
              - 2i d beta' rho E / (1 + rho E),

with q' = (alpha'/alpha - beta'/beta)(alpha_hat/beta - beta/alpha_hat).  In
the evanescent regime beta = i kappa, so i d beta' is real and drops out of
the phase.  On the fixed-angle path alpha and beta both scale with omega,
so q' = 0 exactly and tau_0 is the rho E term alone, which keeps its
relative accuracy down to underflow.  Only the bounded den enters, never t,
so the delays hold at any gap width, also where t underflows to 0.  The
reflection coefficient is r = -(i/2)(alpha_hat/kappa + kappa/alpha_hat)
sinh(kappa d) t, a rigid -90 degree rotation of t, so both channels share
these derivatives; only r = 0 at d = 0 sets them apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .core import Polarization, Scenario, wavevectors
from .scattering import _matching_constants
from .sweep import SweepTable


class Channel(str, Enum):
    TRANSMISSION = "transmission"
    REFLECTION = "reflection"


class DegenerateChannelError(ValueError):
    """Channel coefficient is identically zero, so its phase is undefined."""


def channel_phase(scenario: Scenario, omega: float | None = None,
                  k_x: float | None = None,
                  channel: Channel = Channel.TRANSMISSION) -> float:
    """Principal-value phase [rad] of the channel coefficient.

    Taken from t = 4 e^{i beta d}/((2 + q)(1 + rho E)) and
    r = (alpha_hat/beta - beta/alpha_hat)(1 - E)/((2 + q)(1 + rho E)), of
    which only bounded factors are formed, so the phase is defined at any
    gap width, also where |t| underflows to 0.
    """
    if omega is None:
        omega = scenario.omega
    if k_x is None:
        k_x = wavevectors(scenario, omega).k_x
    alpha_hat, beta = _matching_constants(scenario, omega, k_x, False)
    d = scenario.d
    if beta == 0:
        # light line k_x = omega/c, where q is infinite: the limit
        # e^{i phi} sin(phi)/beta -> d gives 4 den = 4 - 2i alpha_hat d
        four_den, t_num, r_num = 4 - 2j * alpha_hat * d, 1, -2j * alpha_hat * d
    else:
        q = alpha_hat / beta + beta / alpha_hat
        four_den = (2 + q) * (1 + (2 - q) / (2 + q) * np.exp(2j * beta * d))
        # the phase of e^{i beta d} without its (underflowing) magnitude
        t_num = np.exp(1j * beta.real * d)
        r_num = -(alpha_hat / beta - beta / alpha_hat) * np.expm1(2j * beta * d)
    numerator = t_num if channel is Channel.TRANSMISSION else r_num
    if numerator == 0:
        raise DegenerateChannelError(
            f"{channel.value} coefficient is zero (d={d}); phase undefined")
    return float(np.angle(numerator / four_den))


@dataclass(frozen=True)
class DelayBreakdown:
    """Group delay split into its phase and lateral-transport terms.

    ``group_delay = phase_delay + gh_shift * n sin(theta)/c`` holds exactly
    by construction.
    """

    phase_delay: float  # s, frequency-derivative term (tau_0)
    gh_shift: float     # m, Goos-Hanchen lateral shift (s)
    group_delay: float  # s, total (tau_g)
    channel: Channel


def _lateral_slowness(scenario: Scenario) -> float:
    """n sin(theta)/c: inverse trace speed of the wavefront along x [s/m]."""
    return scenario.n * math.sin(scenario.theta) / scenario.c


def _delays(scenario: Scenario, d: np.ndarray, channel: Channel):
    """(tau_0 [s], s [m]) arrays at the carrier for the gap widths ``d``."""
    scenario.require_tunneling()
    if channel is Channel.REFLECTION and np.any(d == 0):
        raise DegenerateChannelError(
            "reflection coefficient is zero (d=0); phase undefined")
    wv = wavevectors(scenario)
    kappa, alpha, k_x = wv.kappa, wv.k_z_prism, wv.k_x
    tm = scenario.polarization is Polarization.TM
    alpha_hat = alpha / scenario.n ** 2 if tm else alpha
    # beta = i kappa: q and p = alpha_hat/beta - beta/alpha_hat are
    # imaginary and E = e^{-2 kappa d} is real
    q = 1j * (kappa / alpha_hat - alpha_hat / kappa)
    p = -1j * (kappa / alpha_hat + alpha_hat / kappa)
    rho_e = (2 - q) / (2 + q) * np.exp(-2 * kappa * d)
    interference = np.imag(rho_e / (1 + rho_e))
    # fixed angle: beta' = beta/omega and q' = 0
    tau0 = 2 * d * kappa / scenario.omega * interference
    # fixed omega: beta' = -k_x/beta and q' = (alpha'/alpha - beta'/beta) p,
    # with alpha'/alpha = -k_x/alpha^2 and beta'/beta = k_x/kappa^2
    d_q = -k_x * (1 / alpha ** 2 + 1 / kappa ** 2) * p
    shift = (np.imag(d_q / (2 + q) * -np.expm1(-2 * kappa * d) / (1 + rho_e))
             - 2 * d * k_x / kappa * interference)
    return tau0, shift


def phase_delay(scenario: Scenario,
                channel: Channel = Channel.TRANSMISSION) -> float:
    """Fixed-angle frequency derivative of the channel phase [s] (tau_0).

    Evaluated along the physical dispersion path of a pulse at constant
    incidence angle, so k_x tracks omega.  Decays rapidly with gap width;
    it is not a traversal time.
    """
    return total_group_delay(scenario, channel).phase_delay


def goos_hanchen_shift(scenario: Scenario,
                       channel: Channel = Channel.TRANSMISSION) -> float:
    """Lateral beam shift s = -d(phase)/d(k_x) at fixed omega [m]."""
    return total_group_delay(scenario, channel).gh_shift


def total_group_delay(scenario: Scenario,
                      channel: Channel = Channel.TRANSMISSION) -> DelayBreakdown:
    """Assemble tau_g = tau_0 + s * n sin(theta)/c for one channel."""
    if scenario.d == 0 and channel is Channel.TRANSMISSION:
        return DelayBreakdown(0.0, 0.0, 0.0, channel)
    # one-element array: the same arithmetic as a sweep, to the last bit
    tau0, shift = (float(v[0])
                   for v in _delays(scenario, np.array([scenario.d]), channel))
    tau_g = tau0 + shift * _lateral_slowness(scenario)
    return DelayBreakdown(tau0, shift, tau_g, channel)


def delay_implied_by_shift(scenario: Scenario, shift: float) -> float:
    """Saturated-regime delay s * n sin(theta)/c implied by a shift [s]."""
    return shift * _lateral_slowness(scenario)


def shift_implied_by_delay(scenario: Scenario, tau_g: float) -> float:
    """Lateral shift tau_g * c/(n sin(theta)) implied by a delay [m]."""
    return tau_g / _lateral_slowness(scenario)


def hartman_sweep(scenario: Scenario, d_values: Sequence[float],
                  channel: Channel = Channel.TRANSMISSION) -> SweepTable:
    """Delay breakdown versus gap width.

    ``d_values`` must be positive, finite and ascending.  Columns are SI:
    (d, tau0, s, tau_g), all evaluated at once over the ``d`` array.
    """
    d = np.asarray(d_values, dtype=float)
    if d.size == 0:
        raise ValueError("d_values must be non-empty")
    if not np.all(np.isfinite(d) & (d > 0)):
        raise ValueError("d_values must be positive and finite")
    if np.any(np.diff(d) <= 0):
        raise ValueError("d_values must be strictly ascending")
    tau0, shift = _delays(scenario, d, channel)
    tau_g = tau0 + shift * _lateral_slowness(scenario)
    rows = tuple(zip(d.tolist(), tau0.tolist(), shift.tolist(), tau_g.tolist()))
    return SweepTable(columns=("d", "tau0", "s", "tau_g"), rows=rows)
