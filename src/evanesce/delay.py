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

All derivatives are closed forms.  ``scatter``'s t is 1/D with

    D = cos(phi) - (i/2) Q sin(phi)/beta,   phi = beta d,
    Q = alpha_hat + beta^2/alpha_hat,

where alpha and beta are the normal wavenumbers in the prism and the gap
and alpha_hat is alpha with the TM 1/n^2 weight.  Scaled by the bounded
E = e^{2i phi}, D = e^{-i phi} (2 + q)(1 + rho E)/4 with q = alpha_hat/beta
+ beta/alpha_hat and rho = (2 - q)/(2 + q).  On the fixed-angle path alpha
and beta both scale with omega, so q is fixed and tau_0 is the rho E term
alone, 2 d kappa/omega Im(rho E/(1 + rho E)), which keeps its relative
accuracy down to underflow.

The shift s = Im(dD/dk_x / D) has one home, ``_shift``: the carrier's for
``hartman_sweep`` and every bin's for the beam's first moment.  It takes
beta of either regime, and each element takes one of three forms by its
phi:

* |phi| < 1, the near form: cos(phi), sin(phi)/phi and
  (2 phi - sin 2 phi)/(2 phi^3) are entire in beta^2, so D and dD/dk_x
  are real terms in phi^2 = beta^2 d^2, summed from one 12-term Taylor
  series.  Nothing cancels as kappa -> 0 at the critical angle, where the
  scaled form is the difference of two terms growing as 1/kappa^2, and s
  is 0.0 at d = 0.
* kappa d >= 1: the scaled form, in which d multiplies only the bounded
  E = e^{-2 kappa d}, so s saturates at any gap width, also where t
  underflows to 0.
* real beta and phi >= 1, beam components past the gap light line: the
  near form's terms in sin(phi) and cos(phi), with the rounding of the
  product beta d added back.

The reflection coefficient is r = -(i/2)(alpha_hat/beta - beta/alpha_hat)
sin(phi) t, in which the factor of t is i times a real number: a rigid
-90 degree rotation of t in the evanescent regime.  So both channels
share tau_0 and s; only r = 0 at d = 0 sets them apart.
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


# Taylor coefficients in z = phi^2 of cos(phi), sin(phi)/phi and
# (2 phi - sin 2 phi)/(2 phi^3), the three functions entire in beta^2 that
# ``_near_shift`` is written in: row k holds the z^k terms.  At |z| < 1 the
# first omitted terms are below 2e-18 of the sums.
_TAYLOR = np.array([[(-1) ** k / math.factorial(2 * k),
                     (-1) ** k / math.factorial(2 * k + 1),
                     (-1) ** k * 4 ** (k + 1) / math.factorial(2 * k + 3)]
                    for k in range(12)])[:, :, None]


def _q_terms(alpha, alpha_hat, beta_sq, k_x):
    """Q = alpha_hat + beta^2/alpha_hat, so that D = cos(phi) - (i/2) Q
    sin(phi)/beta, and -dQ/dk_x = (k_x/alpha_hat)(2 + (alpha_hat^2 -
    beta^2)/alpha^2), which is > 0: real at real alpha and beta^2."""
    return (alpha_hat + beta_sq / alpha_hat,
            k_x / alpha_hat * (2 + (alpha_hat * alpha_hat - beta_sq)
                               / (alpha * alpha)))


def _near_shift(alpha, alpha_hat, beta, k_x, d):
    """s where |phi| < 1, either regime: Im(D'/D) with D = cos(phi) -
    (i/2) d Q sinc(phi), in real terms that are bounded at phi = 0."""
    beta_sq = (beta * beta).real
    z = beta_sq * d * d
    # z, z^2, ..., z^11 as rows, each row's three terms summed in order
    powers = np.multiply.accumulate(np.broadcast_to(z, (11, len(z))), axis=0)
    cos, sinc, h = _TAYLOR[0] + (_TAYLOR[1:] * powers[:, None]).sum(axis=0)
    q, minus_dq = _q_terms(alpha, alpha_hat, beta_sq, k_x)
    half_dq = 0.5 * d * q  # D = cos - i half_dq sinc
    return ((k_x * d * d * half_dq * h + 0.5 * d * minus_dq * sinc * cos)
            / (cos * cos + (half_dq * sinc) ** 2))


def _split(x):
    """The high 26 bits of ``x`` (Veltkamp), so x - _split(x) is exact."""
    c = 134217729.0 * x
    return c - (c - x)


def _exact_phase(beta, d):
    """(phi, e) with phi = fl(beta d) and phi + e = beta d exactly: Dekker's
    product of the two mantissas, so that no split overflows."""
    (b, b_exp), (g, g_exp) = np.frexp(beta), np.frexp(d)
    phi = b * g
    b_hi, g_hi = _split(b), _split(g)
    b_lo, g_lo = b - b_hi, g - g_hi
    e = ((b_hi * g_hi - phi) + b_hi * g_lo + b_lo * g_hi) + b_lo * g_lo
    exp = b_exp + g_exp
    return np.ldexp(phi, exp), np.ldexp(e, exp)


def _propagating_shift(alpha, alpha_hat, beta, k_x, d):
    """s where beta is real and phi >= 1: ``_near_shift``'s terms times
    beta^2, in sin(phi) and cos(phi), so that d never stands alone.  phi
    is the exact product beta d, since at hundreds of radians its rounding
    alone would move s by ~1e-13; each term is divided by the denominator,
    which is at least min(beta^2, Q^2/4), before it is scaled."""
    beta = beta.real
    q, minus_dq = _q_terms(alpha, alpha_hat, beta * beta, k_x)
    phi, e = _exact_phase(beta, d)
    sin_phi, cos_phi = np.sin(phi), np.cos(phi)
    sin_e, cos_e = np.sin(e), np.cos(e)
    sin = sin_phi * cos_e + cos_phi * sin_e
    cos = cos_phi * cos_e - sin_phi * sin_e
    sin_cos = sin * cos
    den = (beta * cos) ** 2 + (0.5 * q * sin) ** 2
    return (k_x * q / (2 * beta) * (((phi - sin_cos) + e) / den)
            + 0.5 * minus_dq * beta * (sin_cos / den))


def _evanescent_shift(alpha, alpha_hat, beta, k_x, d):
    """s where beta = i kappa and kappa d >= 1, in the scaled form: q and
    p = alpha_hat/beta - beta/alpha_hat are imaginary, E = e^{-2 kappa d}
    is real, and d multiplies only the bounded E."""
    kappa = beta.imag
    q = 1j * (kappa / alpha_hat - alpha_hat / kappa)
    p = -1j * (kappa / alpha_hat + alpha_hat / kappa)
    rho = (2 - q) / (2 + q)
    e = np.exp(-2 * kappa * d)
    den = 1 + rho * e
    # q' = (alpha'/alpha - beta'/beta) p, with alpha'/alpha = -k_x/alpha^2
    # and beta'/beta = k_x/kappa^2; and i d beta' = -d k_x/kappa is real
    d_q = -k_x * (1 / alpha ** 2 + 1 / kappa ** 2) * p
    return (np.imag(d_q / (2 + q) * -np.expm1(-2 * kappa * d) / den)
            - 2 * k_x / kappa * np.imag(rho * (d * e) / den))


def _shift(scenario: Scenario, alpha, beta, k_x, d):
    """The GH shift s = -d(phase)/d(k_x) at fixed omega [m], elementwise:
    at the normal wavenumbers ``alpha`` and ``beta`` as
    ``scattering._normal_wavenumbers`` gives them (alpha real, beta the
    principal root in either regime) and the gap width ``d``.  Each
    argument is a scalar or a 1-D array of the result's length, and one is
    an array.  Each element is evaluated in the one form that its phi =
    beta d selects (see the module docstring)."""
    alpha = np.real(alpha)
    args = (alpha, _tm_weighted(scenario, alpha), beta, k_x, d)
    near = np.abs(beta) * d < 1
    evanescent = np.imag(beta) > 0
    shift = np.empty(near.shape)
    for mask, form in ((near, _near_shift),
                       (~near & evanescent, _evanescent_shift),
                       (~(near | evanescent), _propagating_shift)):
        (index,) = mask.nonzero()
        if len(index) == len(shift):
            shift[:] = form(*args)
        elif len(index):
            shift[index] = form(*[a[index] if np.ndim(a) else a for a in args])
    return shift


def _delays(scenario: Scenario, d: np.ndarray):
    """(tau_0 [s], s [m]) arrays at the carrier for the gap widths ``d``,
    shared by both channels.  Evanescent regime only: callers check it."""
    wv = wavevectors(scenario)
    kappa, alpha = wv.kappa, wv.k_z_prism
    alpha_hat = _tm_weighted(scenario, alpha)
    # beta = i kappa: q is imaginary and E = e^{-2 kappa d} is real
    q = 1j * (kappa / alpha_hat - alpha_hat / kappa)
    rho_e = (2 - q) / (2 + q) * np.exp(-2 * kappa * d)
    # fixed angle: beta' = beta/omega and q' = 0
    tau0 = 2 * d * kappa / scenario.omega * np.imag(rho_e / (1 + rho_e))
    return tau0, _shift(scenario, alpha, 1j * kappa, wv.k_x, d)


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
