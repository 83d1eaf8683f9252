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

All derivatives are closed forms.  ``scatter``'s t is e^{i beta d}/den
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

from .core import _MIN_GAP, Scenario, _tm_weighted, wavevectors


class Channel(str, Enum):
    TRANSMISSION = "transmission"
    REFLECTION = "reflection"


class DegenerateChannelError(ValueError):
    """Channel coefficient is identically zero, so its phase is undefined."""


@dataclass(frozen=True)
class DelayBreakdown:
    """Group delay split into its phase and lateral-transport terms.

    ``group_delay = phase_delay + gh_shift * n sin(theta)/c`` holds exactly
    by construction.  The fields are floats for one gap width and arrays,
    one entry per width, from ``hartman_sweep``.
    """

    phase_delay: float | np.ndarray  # s, frequency-derivative term (tau_0)
    gh_shift: float | np.ndarray     # m, Goos-Hanchen lateral shift (s)
    group_delay: float | np.ndarray  # s, total (tau_g)


def _require_live(scenario: Scenario, channel: Channel) -> None:
    """Reject the reflection channel of closed prisms, where r = 0."""
    if channel is Channel.REFLECTION and scenario.d == 0:
        raise DegenerateChannelError("reflection vanishes identically at d=0")


def _delays(scenario: Scenario, d: np.ndarray):
    """(tau_0 [s], s [m]) arrays at the carrier for the gap widths ``d``,
    shared by both channels.  Evanescent regime only: callers check it."""
    wv = wavevectors(scenario)
    kappa, alpha, k_x = wv.kappa, wv.k_z_prism, wv.k_x
    alpha_hat = _tm_weighted(scenario, alpha)
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


def goos_hanchen_shift(scenario: Scenario,
                       channel: Channel = Channel.TRANSMISSION) -> float:
    """Lateral beam shift s = -d(phase)/d(k_x) at fixed omega [m]."""
    return total_group_delay(scenario, channel).gh_shift


def total_group_delay(scenario: Scenario,
                      channel: Channel = Channel.TRANSMISSION) -> DelayBreakdown:
    """``hartman_sweep`` at the scenario's gap width, as floats; closed
    prisms transmit with +0.0 for each term."""
    scenario.require_tunneling()
    if scenario.d == 0 and channel is Channel.TRANSMISSION:
        return DelayBreakdown(0.0, 0.0, 0.0)
    _require_live(scenario, channel)
    sweep = hartman_sweep(scenario, [scenario.d])
    return DelayBreakdown(*(float(v[0]) for v in (
        sweep.phase_delay, sweep.gh_shift, sweep.group_delay)))


def hartman_sweep(scenario: Scenario,
                  d_values: Sequence[float]) -> DelayBreakdown:
    """Delay breakdown versus gap width.

    ``d_values`` must be finite, ascending and >= ``sys.float_info.min``.
    The breakdown holds one SI array per term, entry i at ``d_values[i]``,
    all evaluated at once over the ``d`` array; both channels share them at
    every positive width.
    """
    d = np.asarray(d_values, dtype=float)
    if d.size == 0:
        raise ValueError("d_values must be non-empty")
    if not np.all(np.isfinite(d) & (d >= _MIN_GAP)):
        raise ValueError(f"d_values must be finite and at least {_MIN_GAP!r} m")
    if np.any(np.diff(d) <= 0):
        raise ValueError("d_values must be strictly ascending")
    scenario.require_tunneling()
    tau0, shift = _delays(scenario, d)
    # n sin(theta)/c: the inverse trace speed of the wavefront along x
    tau_g = tau0 + shift * (scenario.n * math.sin(scenario.theta) / scenario.c)
    return DelayBreakdown(tau0, shift, tau_g)
