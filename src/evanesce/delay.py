"""Group delay of the gap and its phase/lateral-shift decomposition.

For a pulse incident at fixed angle, the transmitted (or reflected) peak
leaves the structure displaced along the interface by the Goos-Hanchen
shift ``s`` and delayed relative to the incident peak by

    tau_g = tau_0 + s * (n sin(theta) / c),

where ``tau_0`` is the frequency derivative of the channel phase taken
along the fixed-angle dispersion path (k_x = n omega sin(theta)/c varies
with omega) and ``s = -d(phase)/d(k_x)`` at fixed omega.  By the chain rule
the sum equals the partial derivative of the phase with respect to omega at
fixed k_x, which ``group_delay_direct`` computes as an independent route.

``tau_0`` decays like e^{-2 kappa d} once the gap is a wavelength or more
wide, so the saturated delay is pure lateral transport: energy crossing the
shift distance ``s`` at the interface trace speed c/(n sin(theta)).  That
saturation with gap width is the Hartman effect, swept by
``hartman_sweep``.

All derivatives are adaptive central differences (relative step 1e-6, one
Richardson halving to verify convergence); this keeps the module agnostic
to the closed form of the scattering coefficients and catches phase-wrap
bugs that a symbolic route would hide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .core import Scenario, wavevectors
from .scattering import scatter
from .sweep import SweepTable

# relative finite-difference step; phase noise is ~1e-15 rad so the
# quotient-of-coefficients form keeps ~9 clean digits at this step
_REL_STEP = 1e-6


class Channel(str, Enum):
    TRANSMISSION = "transmission"
    REFLECTION = "reflection"


class DegenerateChannelError(ValueError):
    """Channel coefficient is identically zero, so its phase is undefined."""


class DerivativeConvergenceError(ArithmeticError):
    """Central difference failed its Richardson convergence check."""


def _coefficient(scenario: Scenario, omega: float, k_x: float,
                 channel: Channel) -> complex:
    res = scatter(scenario, omega, k_x)
    value = res.t if channel is Channel.TRANSMISSION else res.r
    if value == 0:
        raise DegenerateChannelError(
            f"{channel.value} coefficient is zero (d={scenario.d}); "
            "phase undefined"
        )
    return value


def channel_phase(scenario: Scenario, omega: float | None = None,
                  k_x: float | None = None,
                  channel: Channel = Channel.TRANSMISSION) -> float:
    """Principal-value phase [rad] of the channel coefficient.

    Continuity along a sweep is the sweep driver's job; see ``phase_sweep``.
    """
    if omega is None:
        omega = scenario.omega
    if k_x is None:
        k_x = wavevectors(scenario, omega).k_x
    return float(np.angle(_coefficient(scenario, omega, k_x, channel)))


def phase_sweep(coefficients: Sequence[complex],
                refine: Callable[[float, float], complex] | None = None,
                lo: float = 0.0, hi: float = 1.0,
                max_step: float = math.pi / 2,
                max_depth: int = 40) -> np.ndarray:
    """Unwrap coefficient phases along a one-parameter sweep.

    Nearest-branch continuation between consecutive points.  If a step
    exceeds ``max_step`` and a ``refine(a, b) -> coefficient`` midpoint
    evaluator is given (with the sweep parametrized on [lo, hi]), midpoints
    are inserted until every step is small enough, so oscillatory
    below-critical sweeps unwrap correctly.
    """
    coeffs = list(coefficients)
    if any(c == 0 for c in coeffs):
        raise DegenerateChannelError("zero coefficient in sweep; phase undefined")
    params = np.linspace(lo, hi, len(coeffs))

    def step(a_param, a_val, b_param, b_val, depth):
        delta = float(np.angle(b_val / a_val))
        if abs(delta) <= max_step or refine is None:
            return delta
        if depth >= max_depth:
            raise DerivativeConvergenceError(
                "phase sweep refinement exceeded maximum depth; "
                "sweep too coarse for reliable unwrapping"
            )
        mid_param = 0.5 * (a_param + b_param)
        mid_val = refine(a_param, b_param)
        return (step(a_param, a_val, mid_param, mid_val, depth + 1)
                + step(mid_param, mid_val, b_param, b_val, depth + 1))

    phases = [float(np.angle(coeffs[0]))]
    for i in range(1, len(coeffs)):
        phases.append(phases[-1] + step(params[i - 1], coeffs[i - 1],
                                        params[i], coeffs[i], 0))
    return np.asarray(phases)


def _phase_slope(fn: Callable[[float], complex], x0: float, h: float) -> float:
    # angle of the coefficient ratio is the nearest-branch phase difference
    return float(np.angle(fn(x0 + h) / fn(x0 - h))) / (2 * h)


def _adaptive_phase_derivative(fn: Callable[[float], complex], x0: float) -> float:
    h = _REL_STEP * abs(x0)
    if h == 0:
        raise DerivativeConvergenceError("zero differentiation step")
    last = None
    for _ in range(4):
        d_h = _phase_slope(fn, x0, h)
        d_h2 = _phase_slope(fn, x0, h / 2)
        best = d_h2 + (d_h2 - d_h) / 3  # Richardson extrapolation, O(h^4)
        # noise floor: ~1e-15 rad of angle noise through a 2h quotient
        floor = 1e-12 / h
        if abs(d_h2 - d_h) <= max(1e-6 * abs(best), floor):
            return best
        last = (d_h, d_h2)
        h /= 4  # truncation error drops 16x per retry, noise grows only 4x
    raise DerivativeConvergenceError(
        f"phase derivative did not converge at x0={x0!r}: "
        f"D(h)={last[0]!r}, D(h/2)={last[1]!r}"
    )


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


def phase_delay(scenario: Scenario,
                channel: Channel = Channel.TRANSMISSION) -> float:
    """Fixed-angle frequency derivative of the channel phase [s] (tau_0).

    Evaluated along the physical dispersion path of a pulse at constant
    incidence angle, so k_x tracks omega.  Decays rapidly with gap width;
    it is not a traversal time.
    """
    scenario.require_tunneling()
    slope = math.sin(scenario.theta) * scenario.n / scenario.c

    def coef(om: float) -> complex:
        return _coefficient(scenario, om, slope * om, channel)

    return _adaptive_phase_derivative(coef, scenario.omega)


def goos_hanchen_shift(scenario: Scenario,
                       channel: Channel = Channel.TRANSMISSION) -> float:
    """Lateral beam shift s = -d(phase)/d(k_x) at fixed omega [m]."""
    scenario.require_tunneling()
    omega = scenario.omega
    kx0 = wavevectors(scenario, omega).k_x

    def coef(kx: float) -> complex:
        return _coefficient(scenario, omega, kx, channel)

    return -_adaptive_phase_derivative(coef, kx0)


def group_delay_direct(scenario: Scenario,
                       channel: Channel = Channel.TRANSMISSION) -> float:
    """Group delay via d(phase)/d(omega) at fixed k_x [s].

    Independent route equal to the assembled breakdown by the chain rule;
    kept separate so the two can cross-check each other.
    """
    scenario.require_tunneling()
    omega = scenario.omega
    kx0 = wavevectors(scenario, omega).k_x

    def coef(om: float) -> complex:
        return _coefficient(scenario, om, kx0, channel)

    return _adaptive_phase_derivative(coef, omega)


def total_group_delay(scenario: Scenario,
                      channel: Channel = Channel.TRANSMISSION) -> DelayBreakdown:
    """Assemble tau_g = tau_0 + s * n sin(theta)/c for one channel."""
    if scenario.d == 0 and channel is Channel.TRANSMISSION:
        return DelayBreakdown(0.0, 0.0, 0.0, channel)
    tau0 = phase_delay(scenario, channel)
    shift = goos_hanchen_shift(scenario, channel)
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

    ``d_values`` must be positive and ascending.  Columns are SI:
    (d, tau0, s, tau_g).  Points are independent; any failure aborts with
    the offending gap width in the message.
    """
    d_values = list(d_values)
    if not d_values:
        raise ValueError("d_values must be non-empty")
    if any(d <= 0 for d in d_values):
        raise ValueError("d_values must be positive")
    if any(b <= a for a, b in zip(d_values, d_values[1:])):
        raise ValueError("d_values must be strictly ascending")

    def point(d: float) -> tuple[float, ...]:
        try:
            bd = total_group_delay(replace(scenario, d=d), channel)
        except Exception as exc:
            raise type(exc)(f"sweep failed at d={d!r} m: {exc}") from exc
        return (d, bd.phase_delay, bd.gh_shift, bd.group_delay)

    rows = tuple(point(d) for d in d_values)
    return SweepTable(columns=("d", "tau0", "s", "tau_g"), rows=rows)


def is_saturated(table: SweepTable, rel_tol: float = 1e-3) -> bool:
    """True if tau_g changed less than ``rel_tol`` over the last decade of d."""
    d = table.column("d")
    tau = table.column("tau_g")
    lo = d[-1] / 10
    tail = [tg for dv, tg in zip(d, tau) if dv >= lo]
    if len(tail) < 2:
        return False
    return abs(tail[-1] - tail[0]) <= rel_tol * abs(tail[-1])
