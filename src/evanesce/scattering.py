"""Exact two-interface boundary matching for prism / gap / prism.

The stack is solved by composing the 2x2 interface and gap-propagation
matrices with the normal wavenumbers alpha (prism) and beta (gap), whose
principal branch (Im >= 0, decay toward +z) covers the evanescent and
propagating regimes in one code path.  Eliminating the matrices gives the
closed form used below, written in the bounded factor e^{2i beta d} so
that nothing overflows at any gap width.

One alpha: only the carrier forms alpha_0 and beta_0^2 (``wavevectors``),
which cancel nothing near grazing.  Every other alpha^2 and beta^2 is
theirs moved by exact increments (``_normal_wavenumbers``), or on the
fixed-angle path alpha_0 and beta_0 scaled by omega/omega_0.

Phase reference planes: the incident/reflected amplitudes live on the first
gap face (z = 0) and the transmitted amplitude on the second (z = d), so the
coefficient phases contain only the gap's contribution.  Amplitudes are
normalized to a unit incident field.  For TM the matched field is H_y and
the coefficients are H-field ratios.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import Scenario, _tm_weighted, wavevectors
from .delay import Channel


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


def _principal_root(x):
    """``np.sqrt(x + 0j)`` of real x, bit for bit: the correctly rounded
    root of |x|, real for x >= 0 (-0.0 included, as x + 0j makes it +0.0)
    and imaginary below, NaN in both parts for a NaN.  The complex root of
    a radicand with a zero imaginary part is exactly that."""
    x = np.asarray(x)
    root = np.sqrt(np.abs(x))
    out = np.zeros(x.shape, dtype=complex)
    np.copyto(out.real, root, where=~(x < 0))
    np.copyto(out.imag, root, where=~(x >= 0))
    return out[()]  # a scalar for a scalar, as np.sqrt gives


def _normal_wavenumbers(scenario: Scenario, omega, k_x):
    """(alpha, beta) at (omega, k_x), elementwise: the principal roots of the
    carrier's squares less (k_x - k_x0)(k_x + k_x0), first as it is 0 on the
    fixed-k_x drive, plus n^2 (omega - omega_0)(omega + omega_0)/c^2,
    without n^2 for beta.  Both radicands are real."""
    w0, c, wv = scenario.omega, scenario.c, wavevectors(scenario)
    alpha0, kx0 = wv.k_z_prism, wv.k_x
    d_omega = (omega - w0) * (omega + w0) / (c * c)
    d_kx = (k_x - kx0) * (k_x + kx0)
    return (_principal_root(alpha0 * alpha0 - d_kx + scenario.n ** 2 * d_omega),
            _principal_root(wv.k_z_gap_sq - d_kx + d_omega))


def _transfer(scenario: Scenario, alpha, beta):
    """(alpha_hat, den, r_num): t = alpha_hat e^{i beta d}/den and
    r = r_num/den, so that at the prism cutoff alpha = 0 (d > 0) they take
    their limits 0 and -1.  Callers set ``np.errstate`` (it divides by beta)."""
    alpha_hat = _tm_weighted(scenario, alpha)
    d = scenario.d
    phi = beta * d

    # Scaled by the bounded e^{i phi} (Im beta >= 0), nothing overflows and
    # t underflows cleanly to 0 for kappa*d > ~745.  e^{i phi} sin(phi)/beta
    # via its series near phi = 0 keeps the critical angle and d = 0 exact.
    e_sin = np.expm1(2j * phi) / 2j
    small = np.abs(phi) < 1e-8
    if small.any():
        beta_safe = np.where(small, 1.0, beta)
        # phi zeroed where the series is unused, so that d*phi cannot
        # overflow at wide gaps: phi * True is phi, and a product costs far
        # less than np.where on scalars
        e_sin_over_beta = np.where(small, d * (1 + 1j * (phi * small)),
                                   e_sin / beta_safe)
    else:
        # an array, 0-d for a scalar, as np.where gives: array products
        # fuse their multiply-adds where scalar ones do not, so a_term
        # rounds as on the series' path
        e_sin_over_beta = np.asarray(e_sin / beta)
    # alpha_hat (alpha_hat/beta +- beta/alpha_hat) e^{i phi} sin(phi) and
    # alpha_hat e^{i phi} cos(phi): nothing divides by alpha_hat
    a_term = alpha_hat * alpha_hat * e_sin_over_beta
    b_term = beta * e_sin
    den = alpha_hat * (1 + 1j * e_sin) - 0.5j * (a_term + b_term)
    return alpha_hat, den, -0.5j * (a_term - b_term)


def _from_transfer(scenario: Scenario, transfer, beta, channel: Channel,
                   beta_ref: complex = 0.0):
    """t or r from ``_transfer``'s terms, t over e^{i beta_ref d} so that it
    stays bounded where e^{i beta d} underflows, and 1 without a gap, which
    alpha_hat/den gives only to rounding.  Callers set ``np.errstate``."""
    alpha_hat, den, r_num = transfer
    if channel is Channel.REFLECTION:
        return r_num / den
    if scenario.d == 0:
        return np.ones_like(den)
    return alpha_hat * np.exp(1j * scenario.d * (beta - beta_ref)) / den


def _coefficient(scenario: Scenario, alpha, beta, channel: Channel,
                 beta_ref: complex = 0.0):
    """t or r at the normal wavenumbers: ``_from_transfer`` of ``_transfer``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return _from_transfer(scenario, _transfer(scenario, alpha, beta), beta,
                              channel, beta_ref)


def scatter(scenario: Scenario, omega: float | None = None,
            k_x: float | None = None) -> ScatterResult:
    """Solve the two-interface problem at (omega, k_x).

    ``omega`` and ``k_x`` are given together, or neither for the scenario
    carrier at its incidence angle.  Scalar inputs give scalar (complex)
    fields; array inputs broadcast.  A given k_x must be that of a wave
    propagating in the prism, k_x < n*omega/c.

    Returns
    -------
    ScatterResult
        Reflection/transmission coefficients and gap amplitudes, satisfying
        |r|^2 + |t|^2 = 1 for the lossless symmetric stack.
    """
    if (omega is None) != (k_x is None):
        raise ValueError("give omega and k_x together, or neither")
    scalar = np.ndim(omega) == 0 and np.ndim(k_x) == 0
    if omega is None:
        wv = wavevectors(scenario)
        alpha, beta = wv.k_z_prism, cmath.sqrt(wv.k_z_gap_sq)
    else:
        omega, k_x = np.asarray(omega, dtype=float), np.asarray(k_x, dtype=float)
        if not (np.all(np.isfinite(omega)) and np.all(np.isfinite(k_x))):
            raise ValueError("omega and k_x must be finite")
        if np.any(omega <= 0):
            raise ValueError("omega must be positive")
        alpha, beta = _normal_wavenumbers(scenario, omega, k_x)
        if np.any(alpha.real == 0):  # alpha^2 <= 0
            raise ValueError("k_x must correspond to a propagating wave in the "
                             "prism (k_x < n*omega/c)")
        if np.any(alpha.real < 1e-9 * scenario.n * omega / scenario.c):
            raise ValueError("degenerate grazing geometry: k_z_prism ~ 0")

    # The decaying amplitude is matched at the first interface, the growing
    # one (~e^{-2 kappa d}) at the second, where it is a product rather than
    # a difference cancelling to rounding noise.  Exactly at the critical
    # angle both diverge (r and t do not): that point gives inf/nan amplitudes.
    with np.errstate(divide="ignore", invalid="ignore"):
        transfer = _transfer(scenario, alpha, beta)
        t = _from_transfer(scenario, transfer, beta, Channel.TRANSMISSION)
        r = _from_transfer(scenario, transfer, beta, Channel.REFLECTION)
        ratio = transfer[0] / beta
        c_amp = 0.5 * ((1 + r) + ratio * (1 - r))
        d_amp = 0.5 * t * (1 - ratio) * np.exp(1j * beta * scenario.d)

    fields = (r, t, c_amp, d_amp, beta)
    return ScatterResult(*(map(complex, fields) if scalar else fields))


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
    # 20 kappa d formed after the division by ln 10, so that it overflows
    # only where the result does; it rounds as 20 kappa d / ln 10 does
    return 2.0 * (10.0 * kappa * scenario.d / math.log(10.0))
