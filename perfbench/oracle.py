"""Reference values computed apart from evanesce.

Nothing here imports the program.  The two-interface problem is solved as
a plain 4x4 boundary-condition system in mpmath at a working precision
that grows with the gap's decay exponent, so the growing gap amplitude D
(about e^{-2 kappa d}) is resolved at any gap width.  Delays are phase
derivatives of that solve; stored energy is the closed-form integral of
the energy density with the solve's own amplitudes; wide-gap values come
from the single-interface closed forms.

Geometry and conventions match the program's documented ones: prism
index n, incidence angle theta, gap d, fields e^{i(k_x x - omega t)},
reflection referred to the first gap face and transmission to the second,
TM matched on H_y with the 1/epsilon weight on its normal derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp

C_DEFAULT = 3.0e8


@dataclass(frozen=True)
class Geometry:
    n: float
    f: float          # Hz
    theta: float      # rad
    d: float          # m
    polarization: str = "TE"
    c: float = C_DEFAULT

    @property
    def omega(self) -> float:
        return 2 * math.pi * self.f

    @property
    def slope(self) -> float:
        """n sin(theta)/c, the fixed-angle dk_x/domega [s/m]."""
        return self.n * math.sin(self.theta) / self.c

    @property
    def kx(self) -> float:
        return self.slope * self.omega

    @property
    def kappa(self) -> float:
        k0 = self.omega / self.c
        return k0 * math.sqrt((self.n * math.sin(self.theta)) ** 2 - 1)


def _dps(geo: Geometry) -> int:
    # e^{kappa d} entries in the system cost about kappa d / ln 10 digits each
    return 40 + int(2 * geo.kappa * geo.d / math.log(10))


def _solve(geo: Geometry, omega, kx):
    """(r, C, D, t, alpha_hat, beta) at the current mpmath precision."""
    n = mp.mpf(geo.n)
    k0 = omega / mp.mpf(geo.c)
    alpha = mp.sqrt((n * k0) ** 2 - kx ** 2)
    beta = mp.sqrt(mp.mpc(k0 ** 2 - kx ** 2))    # principal branch, Im >= 0
    ah = alpha / n ** 2 if geo.polarization == "TM" else alpha
    e = mp.exp(1j * beta * mp.mpf(geo.d))
    a = mp.matrix([
        [1, -1, -1, 0],                     # 1 + r = C + D           (z = 0)
        [-ah, -beta, beta, 0],              # ah (1 - r) = beta (C - D)
        [0, e, 1 / e, -1],                  # C e + D / e = t         (z = d)
        [0, beta * e, -beta / e, -ah],      # beta (C e - D / e) = ah t
    ])
    r, c_amp, d_amp, t = mp.lu_solve(a, mp.matrix([-1, -ah, 0, 0]))
    return r, c_amp, d_amp, t, ah, beta


def coefficients(geo: Geometry, omega: float | None = None,
                 kx: float | None = None) -> tuple[complex, complex]:
    """(r, t) at (omega, k_x), defaulting to the carrier and its angle."""
    with mp.workdps(_dps(geo)):
        om = mp.mpf(geo.omega if omega is None else omega)
        k = om * mp.mpf(geo.slope) if kx is None else mp.mpf(kx)
        r, _, _, t, _, _ = _solve(geo, om, k)
        return complex(r), complex(t)


def _phase_derivative(geo: Geometry, channel: str, d_omega: float,
                      d_kx: float) -> float:
    """Central derivative of the channel phase along (d_omega, d_kx) per unit step."""
    with mp.workdps(_dps(geo) + 30):
        om0 = mp.mpf(geo.omega)
        kx0 = om0 * mp.mpf(geo.slope)
        h = mp.mpf(10) ** -12

        def phase(u):
            r, _, _, t, _, _ = _solve(geo, om0 + u * om0 * d_omega,
                                      kx0 + u * kx0 * d_kx)
            return mp.arg(t if channel == "transmission" else r)

        # the ratio's angle is the nearest-branch phase difference
        diff = phase(h) - phase(-h)
        diff = diff - 2 * mp.pi * mp.nint(diff / (2 * mp.pi))
        return float(diff / (2 * h))


@dataclass(frozen=True)
class Delays:
    tau0: float     # s, fixed-angle d(phase)/d(omega)
    shift: float    # m, Goos-Hanchen shift -d(phase)/d(k_x)
    tau_g: float    # s, d(phase)/d(omega) at fixed k_x


def delays(geo: Geometry, channel: str = "transmission") -> Delays:
    om, kx = geo.omega, geo.kx
    tau_g = _phase_derivative(geo, channel, 1.0, 0.0) / om
    tau0 = _phase_derivative(geo, channel, 1.0, 1.0) / om
    shift = -_phase_derivative(geo, channel, 0.0, 1.0) / kx
    return Delays(tau0=tau0, shift=shift, tau_g=tau_g)


@dataclass(frozen=True)
class Energy:
    per_area: float    # stored energy per unit interface area (normalized)
    flux: float        # incident normal flux (normalized)
    free_ratio: float  # mean |F|^2 over |F(0)|^2, the evanescent/free ratio

    @property
    def dwell(self) -> float:
        return self.per_area / self.flux


def energy(geo: Geometry) -> Energy:
    """Closed-form integral over the gap of the program's density
    u = (1/4)[(1 + (c k_x/omega)^2)|F|^2 + (c/omega)^2 |F'|^2]."""
    with mp.workdps(_dps(geo)):
        om = mp.mpf(geo.omega)
        kx = om * mp.mpf(geo.slope)
        c = mp.mpf(geo.c)
        d = mp.mpf(geo.d)
        _, c_amp, d_amp, _, _, beta = _solve(geo, om, kx)
        kappa = beta.imag
        grow = mp.exp(2 * kappa * d)
        a_int = abs(c_amp) ** 2 * (1 - 1 / grow) / (2 * kappa)
        b_int = abs(d_amp) ** 2 * (grow - 1) / (2 * kappa)
        x_int = 2 * mp.re(c_amp * mp.conj(d_amp)) * d
        field_sq = a_int + b_int + x_int
        deriv_sq = kappa ** 2 * (a_int + b_int - x_int)
        per_area = ((1 + (c * kx / om) ** 2) * field_sq
                    + (c / om) ** 2 * deriv_sq) / 4
        alpha = mp.sqrt((mp.mpf(geo.n) * om / c) ** 2 - kx ** 2)
        flux = c ** 2 * alpha / (2 * om)
        if geo.polarization == "TM":
            flux /= mp.mpf(geo.n) ** 2
        free = field_sq / (abs(c_amp + d_amp) ** 2 * d)
        return Energy(per_area=float(per_area), flux=float(flux),
                      free_ratio=float(free))


def saturated(geo: Geometry) -> tuple[float, float]:
    """Single-interface (d -> infinity) GH shift [m] and dwell time [s].

    The shift is 2 d/dk_x arctan(kappa/alpha_hat), which is 2 tan(theta)/kappa
    for TE; the dwell time keeps only the decaying term C e^{-kappa z} with
    the single-interface entry amplitude |C|^2 = 4 alpha_hat^2/(alpha_hat^2 + kappa^2).
    """
    k0 = geo.omega / geo.c
    kx = geo.kx
    kappa = geo.kappa
    alpha = math.sqrt((geo.n * k0) ** 2 - kx ** 2)
    w = geo.n ** 2 if geo.polarization == "TM" else 1.0
    ah = alpha / w
    shift = 2 * w * kx * (alpha ** 2 + kappa ** 2) / (
        alpha * kappa * (alpha ** 2 + (w * kappa) ** 2))
    c_sq = 4 * ah ** 2 / (ah ** 2 + kappa ** 2)
    per_area = c_sq * (geo.c * kx / geo.omega) ** 2 / (4 * kappa)
    flux = geo.c ** 2 * alpha / (2 * geo.omega) / w
    return shift, per_area / flux


def saturation_error(geo: Geometry) -> float:
    """Relative size of the terms ``saturated`` drops: the growing term, the
    cross term and the finite gap each enter at order (1 + kappa d) e^{-2 kappa d}."""
    kd = geo.kappa * geo.d
    return 8 * (1 + kd) * math.exp(-2 * kd)


def closed_forms(geo: Geometry) -> dict[str, float]:
    """Attenuation figures from kappa = (omega/c) sqrt(n^2 sin^2 theta - 1)."""
    kappa = geo.kappa
    return {
        "kappa_per_m": kappa,
        "attenuation_db_per_mm": -20 * kappa * 1e-3 * math.log10(math.e),
        "gap_attenuation_db": 20 * kappa * geo.d * math.log10(math.e),
        "transmission_approx": math.exp(-2 * kappa * geo.d),
        "wavelength_cm": geo.c / geo.f * 100,
        "critical_angle_deg": math.degrees(math.asin(1 / geo.n)),
    }


def transmission_exact(geo: Geometry) -> float:
    """|t|^2 at the carrier; underflows to 0.0 where it is below 1e-308."""
    with mp.workdps(_dps(geo)):
        om = mp.mpf(geo.omega)
        _, _, _, t, _, _ = _solve(geo, om, om * mp.mpf(geo.slope))
        return float(abs(t) ** 2)


def close(got: float, want: float, rel: float, abs_tol: float = 0.0) -> bool:
    return math.isfinite(got) and abs(got - want) <= max(rel * abs(want), abs_tol)
