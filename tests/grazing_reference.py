"""mpmath reference for the one-alpha rule, up to grazing incidence.

The library takes the incidence angle theta and the frequency omega as
exact binary values.  Here the wavenumbers are formed from them in mpmath
at 60 digits: k_x0 = n omega_0 sin(theta)/c and alpha_0 = n omega_0
cos(theta)/c at the carrier, so nothing cancels, and every other
(alpha, beta) from the defining squares (n omega/c)^2 - k_x^2 and
(omega/c)^2 - k_x^2, whose cancellation near grazing those digits absorb.
The coefficients come from the two-interface closed form
t = 1/(cos(beta d) - (i/2) q sin(beta d)), r = -(i/2) p sin(beta d) t with
q, p = alpha_hat/beta +- beta/alpha_hat, and the stored energy and the
evanescent-to-free ratio from the gap amplitudes matched at the first
face, integrated term by term.  The Goos-Hanchen shift (``shift``) is
``mp.diff`` of that t in k_x at omega_0; ``with_beta`` gives the k_x of
a double beta, so that a phase beta d of many radians carries no
rounding of beta into the comparison.  Nothing here calls the library.

Each drive of the synthesis has its function: the fixed angle (k_x and
alpha proportional to omega), the fixed k_x = k_x0, and the fixed omega =
omega_0, whose float k_x the library reads as k_x0 plus the increment from
its float carrier k_x, as here.
"""

from __future__ import annotations

import mpmath as mp

DPS = 60


def _mpf(x) -> mp.mpf:
    return mp.mpf(float(x))


def _carrier(scenario):
    """(omega_0, k_x0, alpha_0), at the working precision."""
    n, c, th = _mpf(scenario.n), _mpf(scenario.c), _mpf(scenario.theta)
    w0 = _mpf(scenario.omega)
    return w0, n * w0 * mp.sin(th) / c, n * w0 * mp.cos(th) / c


def _coefficients(scenario, omega, k_x, alpha):
    """(r, t, beta) at the working precision; ``alpha`` None for the
    principal root of (n omega/c)^2 - k_x^2."""
    n, c, d = _mpf(scenario.n), _mpf(scenario.c), _mpf(scenario.d)
    k0 = omega / c
    if alpha is None:
        alpha = mp.sqrt(mp.mpc((n * k0) ** 2 - k_x ** 2))
    beta = mp.sqrt(mp.mpc(k0 ** 2 - k_x ** 2))
    alpha_hat = alpha / n ** 2 if scenario.polarization.value == "TM" else alpha
    q = alpha_hat / beta + beta / alpha_hat
    p = alpha_hat / beta - beta / alpha_hat
    t = 1 / (mp.cos(beta * d) - 0.5j * q * mp.sin(beta * d))
    return -0.5j * p * mp.sin(beta * d) * t, t, beta


def carrier_coefficients(scenario):
    """(r, t) at the carrier."""
    with mp.workdps(DPS):
        w0, kx0, alpha0 = _carrier(scenario)
        return _coefficients(scenario, w0, kx0, alpha0)[:2]


def fixed_angle(scenario, omega):
    """(r, t e^{-i beta_0 d}) at ``omega`` on the fixed-angle drive."""
    with mp.workdps(DPS):
        w0, kx0, alpha0 = _carrier(scenario)
        beta0 = _coefficients(scenario, w0, kx0, alpha0)[2]
        scale = _mpf(omega) / w0
        r, t, _ = _coefficients(scenario, w0 * scale, kx0 * scale, alpha0 * scale)
        return r, t * mp.exp(-1j * beta0 * _mpf(scenario.d))


def fixed_kx(scenario, omega):
    """(r, t) at ``omega`` and the carrier's k_x0."""
    with mp.workdps(DPS):
        _, kx0, _ = _carrier(scenario)
        return _coefficients(scenario, _mpf(omega), kx0, None)[:2]


def fixed_omega(scenario, k_x, kx0_float):
    """(r, t) at the carrier's omega_0 and k_x0 + (k_x - kx0_float)."""
    with mp.workdps(DPS):
        w0, kx0, _ = _carrier(scenario)
        return _coefficients(scenario, w0, kx0 + (_mpf(k_x) - _mpf(kx0_float)),
                             None)[:2]


def with_beta(scenario, beta):
    """(k_x, alpha, k_x rounded) at omega_0 for the double ``beta``, real
    or imaginary: k_x = sqrt((omega_0/c)^2 - beta^2) at the working
    precision, whose beta is ``beta`` exactly, and alpha rounded to a
    double.  A phase beta d of many radians then carries no rounding of
    beta into the reference."""
    with mp.workdps(DPS):
        n, k0 = _mpf(scenario.n), _mpf(scenario.omega) / _mpf(scenario.c)
        beta_sq = mp.re(mp.mpc(beta) ** 2)
        k_x = mp.sqrt(k0 ** 2 - beta_sq)
        return k_x, float(mp.sqrt((n ** 2 - 1) * k0 ** 2 + beta_sq)), float(k_x)


def beam_k_x(scenario, k_x, kx0_float):
    """The exact carrier's k_x0 plus the increment of the double ``k_x``
    from the float carrier ``kx0_float``: the k_x that a beam bin stands for."""
    with mp.workdps(DPS):
        return _carrier(scenario)[1] + (_mpf(k_x) - _mpf(kx0_float))


def shift(scenario, k_x=None):
    """The GH shift s = -d arg(t)/dk_x at omega_0 [m], at ``k_x`` (a double
    or an mpf), or at the carrier's k_x0 when None: ``mp.diff`` of the
    closed-form t, not its derivative written out."""
    with mp.workdps(DPS):
        w0, kx0, _ = _carrier(scenario)
        k_x = kx0 if k_x is None else mp.mpf(k_x)

        def t(k):
            return _coefficients(scenario, w0, k, None)[1]

        return -mp.im(mp.diff(t, k_x) / t(k_x))


def _gap_terms(scenario):
    """(C + D, kappa, pure, cross) at the carrier: the integral of |F|^2
    over the gap is pure + cross, that of |F'|^2 is kappa^2 (pure - cross)."""
    w0, kx0, alpha0 = _carrier(scenario)
    n, d = _mpf(scenario.n), _mpf(scenario.d)
    r, _, beta = _coefficients(scenario, w0, kx0, alpha0)
    tm = scenario.polarization.value == "TM"
    ratio = (alpha0 / n ** 2 if tm else alpha0) / beta
    # 1 + r = C + D and alpha_hat (1 - r) = beta (C - D) at z = 0
    c_amp = ((1 + r) + ratio * (1 - r)) / 2
    d_amp = ((1 + r) - ratio * (1 - r)) / 2
    kappa = mp.im(beta)
    # expm1: at a 1e-300 mm gap 1 - e^{-2 kappa d} is below 60 digits
    decay = -mp.expm1(-2 * kappa * d) / (2 * kappa)
    grow = mp.expm1(2 * kappa * d) / (2 * kappa)
    pure = abs(c_amp) ** 2 * decay + abs(d_amp) ** 2 * grow
    cross = 2 * mp.re(c_amp * mp.conj(d_amp)) * d
    return c_amp + d_amp, kappa, pure, cross


def dwell_time(scenario):
    """Stored energy per unit area over incident normal flux [s]."""
    with mp.workdps(DPS):
        w0, kx0, alpha0 = _carrier(scenario)
        n, c = _mpf(scenario.n), _mpf(scenario.c)
        _, kappa, pure, cross = _gap_terms(scenario)
        per_area = ((1 + (c * kx0 / w0) ** 2) * (pure + cross)
                    + (c / w0) ** 2 * kappa ** 2 * (pure - cross)) / 4
        tm = scenario.polarization.value == "TM"
        flux = c ** 2 * alpha0 / (2 * w0) / (n ** 2 if tm else 1)
        return per_area / flux


def free_energy_ratio(scenario):
    """Mean of |F|^2 over the gap over its entry value |C + D|^2."""
    with mp.workdps(DPS):
        entry, _, pure, cross = _gap_terms(scenario)
        return (pure + cross) / (abs(entry) ** 2 * _mpf(scenario.d))


def rel_error(got, want) -> float:
    """|got - want| / |want|, ``got`` a double."""
    with mp.workdps(DPS):
        return float(abs(mp.mpc(complex(got)) - want) / abs(want))
