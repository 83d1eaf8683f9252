import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest

from evanesce import (
    Channel, Polarization, Scenario, approx_transmission, attenuation_db_per_mm,
    gap_attenuation_db, RegimeError, scatter, wavevectors,
)
from evanesce.scattering import (
    _coefficient, _from_transfer, _normal_wavenumbers, _principal_root,
    _transfer,
)
from conftest import random_scenario


def fixed_angle_kx(scenario, omega):
    """k_x = n omega sin(theta)/c of the scenario's incidence angle at
    ``omega``, written out here so the oracle shares no code with the
    library."""
    return scenario.n * omega * math.sin(scenario.theta) / scenario.c


def boundary_solve(scenario, omega=None, k_x=None, from_right=False):
    """Independent oracle: direct linear solve of the interface conditions.

    Unknowns (r, C, D, t) for fields 1*e^{i a z} + r e^{-i a z} in the
    source prism, C e^{i b z} + D e^{-i b z} in the gap, t e^{i a (z-d)}
    beyond.  Tangential field and impedance-weighted derivative are matched
    at both faces; no transfer matrices, no shared code with `scatter`.
    ``from_right`` sends the wave through the mirrored stack.
    """
    if omega is None:
        omega = scenario.omega
    if k_x is None:
        k_x = fixed_angle_kx(scenario, omega)
    n, c, d = scenario.n, scenario.c, scenario.d
    a = cmath.sqrt((n * omega / c) ** 2 - k_x ** 2)
    b = cmath.sqrt(complex((omega / c) ** 2 - k_x ** 2))
    if b.imag < 0:
        b = -b
    w_prism = 1 / n ** 2 if scenario.polarization is Polarization.TM else 1.0
    w_gap = 1.0
    # mirrored stack is identical (symmetric), so the geometry is reused
    del from_right
    e_p = cmath.exp(1j * b * d)
    e_m = cmath.exp(-1j * b * d)
    mat = np.array([
        [1, -1, -1, 0],
        [-w_prism * a, -w_gap * b, w_gap * b, 0],
        [0, e_p, e_m, -1],
        [0, w_gap * b * e_p, -w_gap * b * e_m, -w_prism * a],
    ], dtype=complex)
    rhs = np.array([-1, -w_prism * a, 0, 0], dtype=complex)
    r, c_amp, d_amp, t = np.linalg.solve(mat, rhs)
    return r, c_amp, d_amp, t


class TestScatterOracle:
    def test_matches_direct_solve(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            s = random_scenario(rng, tunneling=bool(rng.random() < 0.7))
            res = scatter(s)
            r, c_amp, d_amp, t = boundary_solve(s)
            for got, want in [(res.r, r), (res.t, t),
                              (res.c_amp, c_amp), (res.d_amp, d_amp)]:
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_headline_point_against_oracle(self, headline):
        res = scatter(headline)
        _, _, _, t = boundary_solve(headline)
        assert abs(res.t - t) <= 1e-10 * abs(t)
        assert abs(res.t) ** 2 == pytest.approx(abs(t) ** 2, rel=1e-10)

    def test_source_side_swap_preserves_transmission(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            s = random_scenario(rng)
            _, _, _, t_left = boundary_solve(s)
            _, _, _, t_right = boundary_solve(s, from_right=True)
            assert abs(abs(t_left) - abs(t_right)) <= 1e-12
            assert abs(abs(scatter(s).t) - abs(t_left)) <= 1e-10 * abs(t_left)


class TestUnitarity:
    def test_thousand_random_scenarios(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(1000):
            s = random_scenario(rng, tunneling=bool(rng.random() < 0.5))
            res = scatter(s)
            worst = max(worst, abs(abs(res.r) ** 2 + abs(res.t) ** 2 - 1))
        assert worst <= 1e-12

    def test_d_zero_is_transparent(self, headline):
        res = scatter(Scenario(n=1.6, f=9.15e9, theta=headline.theta, d=0.0))
        assert res.t == 1.0
        assert res.r == 0.0


class TestGapAmplitudes:
    def test_boundary_values(self, headline):
        res = scatter(headline)
        d = headline.d
        kz = res.k_z_gap
        f0 = res.c_amp + res.d_amp
        fd = res.c_amp * cmath.exp(1j * kz * d) + res.d_amp * cmath.exp(-1j * kz * d)
        assert abs(f0 - (1 + res.r)) <= 1e-12
        assert abs(fd - res.t) <= 1e-12

    def test_growing_component_retained(self, headline):
        res = scatter(headline)
        assert res.d_amp != 0

    def test_growing_amplitude_against_mpmath(self, headline):
        # at kappa d = 40 the growing amplitude is ~e^{-80}; a 60-digit solve
        # of the four interface conditions resolves it to every digit
        kappa = wavevectors(headline).kappa
        s = Scenario(n=1.6, f=9.15e9, theta=headline.theta, d=40 / kappa)
        k_x = wavevectors(s).k_x
        with mpmath.workdps(60):
            k0 = mpmath.mpf(s.omega) / mpmath.mpf(s.c)
            a = mpmath.sqrt((s.n * k0) ** 2 - mpmath.mpf(k_x) ** 2)
            b = 1j * mpmath.sqrt(mpmath.mpf(k_x) ** 2 - k0 ** 2)
            e_p, e_m = mpmath.exp(1j * b * s.d), mpmath.exp(-1j * b * s.d)
            mat = mpmath.matrix([[1, -1, -1, 0],
                                 [-a, -b, b, 0],
                                 [0, e_p, e_m, -1],
                                 [0, b * e_p, -b * e_m, -a]])
            _, _, d_amp, _ = mpmath.lu_solve(mat, mpmath.matrix([-1, -a, 0, 0]))
            want = complex(d_amp)
        got = scatter(s).d_amp
        assert abs(got - want) <= 1e-9 * abs(want)


class TestWideGaps:
    @pytest.mark.parametrize("polarization", [Polarization.TE, Polarization.TM])
    def test_finite_and_unitary_to_kd_1e4(self, headline, polarization):
        kappa = wavevectors(headline).kappa
        for kd in np.logspace(0, 4, 41):
            s = Scenario(n=1.6, f=9.15e9, theta=headline.theta, d=kd / kappa,
                         polarization=polarization)
            res = scatter(s)
            fields = [res.r, res.t, res.c_amp, res.d_amp]
            assert all(cmath.isfinite(v) for v in fields)
            assert abs(abs(res.r) ** 2 + abs(res.t) ** 2 - 1) <= 1e-12

    def test_transmission_underflows_to_zero(self, headline):
        s = Scenario(n=1.6, f=9.15e9, theta=headline.theta, d=10.0)
        assert scatter(s).t == 0

    @pytest.mark.parametrize("polarization", [Polarization.TE, Polarization.TM])
    def test_no_overflow_at_1e300_mm(self, headline, polarization):
        # the small-phase series d (1 + i phi), unused at this width, was
        # evaluated all the same and overflowed with a RuntimeWarning
        s = Scenario(n=1.6, f=9.15e9, theta=headline.theta, d=1e297,
                     polarization=polarization)
        omegas = s.omega * np.array([0.9, 1.0, 1.1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = scatter(s)
            arr = scatter(s, omegas, s.n * math.sin(s.theta) / s.c * omegas)
        assert res.t == 0 and abs(abs(res.r) - 1) <= 1e-12
        assert np.all(arr.t == 0) and np.all(np.abs(np.abs(arr.r) - 1) <= 1e-12)


class TestAsymptotics:
    def test_exponential_law(self, headline):
        # log|t|^2 + 2 kappa d approaches a d-independent constant; the
        # exact coefficient carries e^{-2 kappa d} corrections, so the
        # converged tail is checked tightly and the approach monotonically
        kappa = wavevectors(headline).kappa
        kds = np.linspace(3, 10, 15)
        vals = []
        for kd in kds:
            s = Scenario(n=1.6, f=9.15e9, theta=headline.theta, d=kd / kappa)
            t = scatter(s).t
            vals.append(math.log(abs(t) ** 2) + 2 * kd)
        diffs = np.abs(np.diff(vals))
        assert all(b < a for a, b in zip(diffs, diffs[1:]))  # converging
        tail = [v for kd, v in zip(kds, vals) if kd >= 8]
        assert max(tail) - min(tail) < 1e-6

    def test_continuity_across_critical_angle(self):
        # the complex-k_z path must cross the branch point without a glitch;
        # the residual difference is the smooth angular variation itself
        crit = math.asin(1 / 1.6)
        eps = 1e-10
        t_above = scatter(Scenario(n=1.6, f=9.15e9, theta=crit + eps, d=0.04)).t
        t_below = scatter(Scenario(n=1.6, f=9.15e9, theta=crit - eps, d=0.04)).t
        assert abs(t_above - t_below) < 1e-8
        assert np.isfinite([t_above.real, t_above.imag, t_below.real, t_below.imag]).all()

    def test_fabry_perot_oscillation_below_critical(self):
        # at 30 deg the gap propagates: |t|^2 oscillates in d and stays unitary
        mags = []
        for d in np.linspace(1e-4, 0.1, 400):
            s = Scenario(n=1.6, f=9.15e9, theta=math.radians(30), d=d)
            res = scatter(s)
            assert abs(abs(res.r) ** 2 + abs(res.t) ** 2 - 1) < 1e-12
            mags.append(abs(res.t) ** 2)
        mags = np.array(mags)
        interior = (mags[1:-1] - mags[:-2]) * (mags[1:-1] - mags[2:])
        n_extrema = int(np.sum(interior > 0))
        assert n_extrema >= 3


class TestScalarArrayParity:
    def test_array_broadcast(self, headline):
        omegas = np.linspace(0.8, 1.2, 5) * headline.omega
        kxs = fixed_angle_kx(headline, omegas)
        res = scatter(headline, omegas, kxs)
        for i, (om, kx) in enumerate(zip(omegas, kxs)):
            single = scatter(headline, float(om), float(kx))
            assert abs(res.t[i] - single.t) < 1e-14
            assert abs(res.r[i] - single.r) < 1e-14

    def test_omega_and_kx_given_together(self, headline):
        for omega, k_x in ((headline.omega, None), (None, 0.0)):
            with pytest.raises(ValueError, match="together"):
                scatter(headline, omega, k_x)

    def test_rejects_prism_evanescent_kx_by_default(self, headline):
        with pytest.raises(ValueError):
            scatter(headline, headline.omega, 1.01 * headline.n * headline.omega / headline.c)


def inline_scatter(scenario, alpha, beta):
    """``scatter``'s closed form at the normal wavenumbers (alpha, beta),
    written out in one function in its operation order, as the bitwise
    reference for the shared kernel."""
    tm = scenario.polarization is Polarization.TM
    alpha_hat = alpha / scenario.n ** 2 if tm else alpha
    d = scenario.d
    phi = beta * d
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e_sin = np.expm1(2j * phi) / 2j
        small = np.abs(phi) < 1e-8
        beta_safe = np.where(small, 1.0, beta)
        e_sin_over_beta = np.where(small, d * (1 + 1j * phi), e_sin / beta_safe)
        a_term = alpha_hat * alpha_hat * e_sin_over_beta
        b_term = beta * e_sin
        den = alpha_hat * (1 + 1j * e_sin) - 0.5j * (a_term + b_term)
        prop = np.exp(1j * beta * d)
        t = alpha_hat * prop / den if d else np.ones_like(den)
        r = -0.5j * (a_term - b_term) / den
        ratio = alpha_hat / beta
        c_amp = 0.5 * ((1 + r) + ratio * (1 - r))
        d_amp = 0.5 * t * (1 - ratio) * prop
    return r, t, c_amp, d_amp, beta


def carrier_wavenumbers(scenario):
    """(alpha_0, beta_0) written out: (n omega/c) cos(theta), and the
    principal root of (omega/c)^2 (1 - n^2 sin^2 theta)."""
    k0 = scenario.omega / scenario.c
    radicand = scenario.n * scenario.n * math.sin(scenario.theta) ** 2 - 1.0
    return (scenario.n * scenario.omega / scenario.c * math.cos(scenario.theta),
            cmath.sqrt(-(k0 * k0) * radicand))


class TestSharedKernel:
    """``scatter`` and the spectral synthesis share ``_transfer``; its
    fields must keep every bit of the closed form."""

    @staticmethod
    def assert_bitwise(res, want):
        got = (res.r, res.t, res.c_amp, res.d_amp, res.k_z_gap)
        for g, w in zip(got, want):
            g, w = np.asarray(g, dtype=complex), np.asarray(w, dtype=complex)
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    def test_scalar_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            s = random_scenario(rng, tunneling=bool(rng.random() < 0.7))
            omega = s.omega * rng.uniform(0.5, 2.0)
            kx = fixed_angle_kx(s, omega)
            self.assert_bitwise(scatter(s, omega, kx), inline_scatter(
                s, *_normal_wavenumbers(s, np.asarray(omega), np.asarray(kx))))
            # the carrier: alpha_0 and beta_0 as they are, not re-formed
            self.assert_bitwise(scatter(s),
                                inline_scatter(s, *carrier_wavenumbers(s)))
        s = Scenario(n=1.6, f=9.15e9, theta=math.radians(45), d=0.0)
        self.assert_bitwise(scatter(s), inline_scatter(s, *carrier_wavenumbers(s)))

    def test_array_inputs(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            s = random_scenario(rng, tunneling=bool(rng.random() < 0.7))
            omegas = s.omega * rng.uniform(0.5, 2.0, 257)
            slope = s.n * math.sin(s.theta) / s.c
            self.assert_bitwise(scatter(s, omegas, slope * omegas), inline_scatter(
                s, *_normal_wavenumbers(s, omegas, slope * omegas)))
            # the fixed-k_x drive of the synthesis reaches the kernel
            # directly: its k_x may lie past the prism cone
            kx = np.full_like(omegas, wavevectors(s).k_x)
            alpha, beta = _normal_wavenumbers(s, omegas, kx)
            with np.errstate(divide="ignore", invalid="ignore"):
                alpha_hat, den, r_num = _transfer(s, alpha, beta)
                got = (r_num / den,
                       alpha_hat * np.exp(1j * beta * s.d) / den, beta)
            r, t, _, _, k_z_gap = inline_scatter(s, alpha, beta)
            for g, w in zip(got, (r, t, k_z_gap)):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()


    @pytest.mark.parametrize("d", [0.04, 0.0])
    @pytest.mark.parametrize("polarization", list(Polarization))
    def test_scatter_t_and_r_are_the_shared_rule(self, d, polarization):
        # scatter's t and r are _from_transfer's on its one _transfer, and
        # the syntheses' _coefficient gives the same bits; without a gap t
        # is exactly 1
        s = Scenario(n=1.6, f=9.15e9, theta=math.radians(45), d=d,
                     polarization=polarization)
        alpha, beta = carrier_wavenumbers(s)
        res = scatter(s)
        with np.errstate(divide="ignore", invalid="ignore"):
            transfer = _transfer(s, alpha, beta)
            shared = {channel: _from_transfer(s, transfer, beta, channel)
                      for channel in Channel}
        for channel, got in ((Channel.TRANSMISSION, res.t),
                             (Channel.REFLECTION, res.r)):
            for want in (shared[channel], _coefficient(s, alpha, beta, channel)):
                assert (np.complex128(got).tobytes()
                        == np.complex128(want).tobytes()), channel
        assert (res.t == 1) == (d == 0)


class TestPrincipalRoot:
    """The radicands of ``_normal_wavenumbers`` are real, and the root of
    |x|, placed in the real part or the imaginary one, has the bits of
    ``np.sqrt(x + 0j)``."""

    EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
             2.2250738585072014e-308, -2.2250738585072014e-308, 1.0, -1.0,
             2.0, -2.0, 1e300, -1e300, 1.7976931348623157e308,
             -1.7976931348623157e308, math.inf, -math.inf]

    def test_array(self):
        rng = np.random.default_rng(25)
        x = np.concatenate([self.EDGES, rng.standard_normal(4000)
                            * 10.0 ** rng.integers(-330, 300, 4000)])
        got, want = _principal_root(x), np.sqrt(x + 0j)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_scalar(self):
        for v in self.EDGES:
            for x in (v, np.float64(v)):
                got, want = _principal_root(x), np.sqrt(x + 0j)
                assert type(got) is type(want), v
                assert got.tobytes() == want.tobytes(), v

    def test_nan(self):
        got = _principal_root(np.array([math.nan, -math.nan]))
        assert np.isnan(got.real).all() and np.isnan(got.imag).all()


class TestPrismCutoff:
    """At alpha = 0 the fixed-k_x drive meets the prism cutoff: the
    closed form's limits there are t = 0 and r = -1 for any gap d > 0."""

    @pytest.mark.parametrize("polarization", list(Polarization))
    @pytest.mark.parametrize("d", [1e-300, 1e-6, 0.04, 10.0])
    def test_limits_at_alpha_zero(self, polarization, d):
        s = Scenario(n=1.6, f=9.15e9, theta=math.radians(45), d=d,
                     polarization=polarization)
        k0 = s.omega / s.c
        beta = 1j * k0 * math.sqrt(s.n ** 2 - 1)  # k_x = n omega/c
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alpha_hat, den, r_num = _transfer(s, 0.0, beta)
            assert alpha_hat * cmath.exp(1j * beta * d) / den == 0
            # to the rounding of one complex division
            assert abs(r_num / den + 1) <= 2.0 ** -52

    @pytest.mark.parametrize("polarization", list(Polarization))
    def test_limits_are_continuous(self, polarization):
        # alpha -> 0 from either side of the cutoff tends to the limits
        s = Scenario(n=1.6, f=9.15e9, theta=math.radians(45), d=0.001,
                     polarization=polarization)
        k0 = s.omega / s.c
        beta = 1j * k0 * math.sqrt(s.n ** 2 - 1)
        for alpha in (1e-9 * k0, 1e-9j * k0):
            alpha_hat, den, r_num = _transfer(s, alpha, beta)
            assert abs(alpha_hat * cmath.exp(1j * beta * s.d) / den) < 1e-8
            assert abs(r_num / den + 1) < 1e-8

    def test_fixed_kx_drive_on_the_cutoff_bin(self):
        # n sin(theta) = 1.1 at n = 2.2, 30 deg: the fixed-k_x cutoff
        # omega_0 sin(theta) = omega_0/2 lands exactly on alpha = 0
        s = Scenario(n=2.2, f=9.15e9, theta=math.radians(30), d=0.04)
        omega = np.array([0.5 * s.omega])
        alpha, beta = _normal_wavenumbers(s, omega, wavevectors(s).k_x)
        assert alpha[0] == 0
        alpha_hat, den, r_num = _transfer(s, alpha, beta)
        assert (alpha_hat * np.exp(1j * beta * s.d) / den)[0] == 0
        assert abs((r_num / den)[0] + 1) <= 2.0 ** -52


class TestTransmissionNumbers:
    def test_headline_t(self, headline):
        assert approx_transmission(headline) == pytest.approx(3e-4, rel=0.03)

    def test_d_zero(self, headline):
        s = Scenario(n=1.6, f=9.15e9, theta=headline.theta, d=0.0)
        assert approx_transmission(s) == 1.0

    def test_one_meter_gap(self, headline):
        s = Scenario(n=1.6, f=9.15e9, theta=headline.theta, d=1.0)
        assert math.log10(approx_transmission(s)) == pytest.approx(-88.1, abs=0.1)

    def test_db_per_mm(self, headline):
        assert attenuation_db_per_mm(headline) == pytest.approx(-0.88, abs=0.005)

    def test_db_per_mm_9p72(self):
        s = Scenario(n=1.6, f=9.72e9, theta=math.radians(45), d=0.04)
        got = attenuation_db_per_mm(s)
        assert got == pytest.approx(-0.94, abs=0.01)
        # independent route: direct evaluation of the defining expression
        kappa = wavevectors(s).kappa
        assert got == pytest.approx(10 * math.log10(math.exp(-2 * kappa * 1e-3)),
                                    rel=1e-12)

    def test_db_per_mm_vanishes_at_critical(self):
        s = Scenario(n=1.6, f=9.15e9, theta=math.asin(1 / 1.6) + 1e-9, d=0.04)
        assert abs(attenuation_db_per_mm(s)) < 1e-3

    def test_gap_db(self, headline):
        assert gap_attenuation_db(headline) == pytest.approx(35.2, abs=0.1)
        s = Scenario(n=1.6, f=9.15e9, theta=headline.theta, d=1.0)
        assert gap_attenuation_db(s) == pytest.approx(880, abs=1)
        s0 = Scenario(n=1.6, f=9.15e9, theta=headline.theta, d=0.0)
        assert gap_attenuation_db(s0) == 0.0

    def test_gap_db_past_the_overflow_of_20_kappa_d(self, headline):
        # 20 kappa d overflows at 1e305 m, but the result fits in a double
        s = Scenario(n=1.6, f=9.15e9, theta=headline.theta, d=1e305)
        assert gap_attenuation_db(s) == 8.807913285788688e+307

    def test_gap_db_rounds_as_the_direct_quotient(self):
        # dividing before the last doubling moves no bit where 20 kappa d
        # is finite (kappa d < 1e305 here)
        rng = np.random.default_rng(2021)
        for _ in range(2000):
            s = Scenario(n=rng.uniform(1.01, 4.0), f=10 ** rng.uniform(8, 11),
                         theta=rng.uniform(1.2, 1.57), d=10 ** rng.uniform(-6, 300))
            if s.is_tunneling:
                direct = 20.0 * wavevectors(s).kappa * s.d / math.log(10.0)
                assert gap_attenuation_db(s) == direct, s

    def test_consistency_db_routes(self, headline):
        per_mm = attenuation_db_per_mm(headline)
        assert gap_attenuation_db(headline) == pytest.approx(
            -per_mm * headline.d * 1e3, rel=1e-12)

    def test_below_critical_rejected(self):
        s = Scenario(n=1.6, f=9.15e9, theta=math.radians(30), d=0.04)
        for fn in (approx_transmission, attenuation_db_per_mm, gap_attenuation_db):
            with pytest.raises(RegimeError):
                fn(s)
