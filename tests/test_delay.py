import cmath
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from evanesce import (
    Channel, DegenerateChannelError, Polarization, RegimeError, Scenario,
    channel_phase, delay_implied_by_shift, goos_hanchen_shift,
    hartman_sweep, phase_delay, scatter,
    shift_implied_by_delay, total_group_delay, vacuum_wavelength, wavevectors,
)
from conftest import random_scenario

GAMMA = lambda s: s.n * math.sin(s.theta) / s.c


def nine_point_phase_derivative(coef_fn, x0, h):
    """8th-order stencil on the accumulated phase; independent oracle."""
    weights = [1 / 280, -4 / 105, 1 / 5, -4 / 5, 0.0, 4 / 5, -1 / 5, 4 / 105, -1 / 280]
    vals = [coef_fn(x0 + k * h) for k in range(-4, 5)]
    # nearest-branch accumulation across the stencil nodes
    phases = [0.0]
    for a, b in zip(vals, vals[1:]):
        phases.append(phases[-1] + cmath.phase(b / a))
    return sum(w * p for w, p in zip(weights, phases)) / h


class TestPhaseDelay:
    def test_zero_at_closed_gap(self):
        s = Scenario(n=1.6, f=9.15e9, theta=math.radians(45), d=0.0)
        bd = total_group_delay(s, Channel.TRANSMISSION)
        assert bd.phase_delay == 0.0 and bd.gh_shift == 0.0 and bd.group_delay == 0.0

    def test_reflection_degenerate_at_closed_gap(self):
        s = Scenario(n=1.6, f=9.15e9, theta=math.radians(45), d=0.0)
        with pytest.raises(DegenerateChannelError):
            total_group_delay(s, Channel.REFLECTION)

    def test_against_nine_point_stencil(self, headline):
        lam = vacuum_wavelength(headline.f)
        s = Scenario(n=1.6, f=9.15e9, theta=headline.theta, d=lam / 10)
        slope = GAMMA(s)

        def coef(om):
            return scatter(s, om, slope * om).t

        oracle = nine_point_phase_derivative(coef, s.omega, 1e-6 * s.omega)
        got = phase_delay(s, Channel.TRANSMISSION)
        assert got == pytest.approx(oracle, rel=1e-6)

    def test_small_beyond_a_wavelength(self, headline):
        lam = vacuum_wavelength(headline.f)
        s = Scenario(n=1.6, f=9.15e9, theta=headline.theta, d=3 * lam)
        bd = total_group_delay(s, Channel.TRANSMISSION)
        assert abs(bd.phase_delay) < 0.05 * bd.group_delay


class TestGoosHanchen:
    def test_zero_at_closed_gap(self):
        s = Scenario(n=1.6, f=9.15e9, theta=math.radians(45), d=0.0)
        assert total_group_delay(s, Channel.TRANSMISSION).gh_shift == 0.0

    def test_saturated_te_closed_form(self, headline):
        # for wide gaps the TE shift approaches 2 tan(theta)/kappa, the
        # classic single-interface stationary-phase result
        wv = wavevectors(headline)
        s = Scenario(n=1.6, f=9.15e9, theta=headline.theta, d=12 / wv.kappa)
        oracle = 2 * math.tan(s.theta) / wv.kappa
        assert goos_hanchen_shift(s, Channel.TRANSMISSION) == pytest.approx(
            oracle, rel=1e-6)
        assert goos_hanchen_shift(s, Channel.REFLECTION) == pytest.approx(
            oracle, rel=1e-6)

    def test_positive_in_regime(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = random_scenario(rng)
            assert goos_hanchen_shift(s, Channel.TRANSMISSION) > 0


class TestReflectionPhase:
    def test_wide_gap_matches_fresnel_tir(self):
        # oracle: single-interface total-internal-reflection phase
        for pol in (Polarization.TE, Polarization.TM):
            s = Scenario(n=1.6, f=9.15e9, theta=math.radians(45), d=0.12,
                         polarization=pol)
            wv = wavevectors(s)
            alpha = wv.k_z_prism / (s.n ** 2 if pol is Polarization.TM else 1.0)
            oracle = -2 * math.atan2(wv.kappa, alpha)
            got = channel_phase(s, channel=Channel.REFLECTION)
            diff = (got - oracle + math.pi) % (2 * math.pi) - math.pi
            assert abs(diff) < 1e-8

    def test_matches_scatter_coefficients(self):
        # both regimes, and the light line k_x = omega/c where q is infinite
        rng = np.random.default_rng(8)
        cases = [(s, None) for s in (random_scenario(rng, tunneling=bool(i % 2))
                                     for i in range(40))]
        cases.append((Scenario(n=1.6, f=9.15e9, theta=math.radians(45), d=0.04),
                      2 * math.pi * 9.15e9 / 3e8))
        for s, k_x in cases:
            res = scatter(s, s.omega, k_x)
            for channel, coef in ((Channel.TRANSMISSION, res.t),
                                  (Channel.REFLECTION, res.r)):
                diff = channel_phase(s, k_x=k_x, channel=channel) - cmath.phase(coef)
                assert abs((diff + math.pi) % (2 * math.pi) - math.pi) < 1e-9

    def test_transmission_reflection_quadrature(self, headline):
        # in the evanescent regime the two coefficients differ by a rigid
        # -90 degree rotation, which is why their delays agree exactly
        res = scatter(headline)
        assert cmath.phase(res.r / res.t) == pytest.approx(-math.pi / 2, abs=1e-12)


class TestGroupDelay:
    def test_identity_by_construction(self, headline):
        bd = total_group_delay(headline, Channel.TRANSMISSION)
        assert bd.group_delay == bd.phase_delay + bd.gh_shift * GAMMA(headline)

    def test_chain_rule_equality(self):
        # tau0 + s*gamma must equal the fixed-k_x frequency derivative,
        # here a finite difference of scatter's t
        rng = np.random.default_rng(5)
        for _ in range(25):
            s = random_scenario(rng)
            bd = total_group_delay(s, Channel.TRANSMISSION)
            kx0 = wavevectors(s).k_x

            def coef(om):
                return scatter(s, om, kx0).t

            direct = nine_point_phase_derivative(coef, s.omega, 1e-6 * s.omega)
            assert bd.group_delay == pytest.approx(direct, rel=1e-8, abs=1e-18)

    def test_transmission_reflection_equality(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            s = random_scenario(rng)
            tg_t = total_group_delay(s, Channel.TRANSMISSION).group_delay
            tg_r = total_group_delay(s, Channel.REFLECTION).group_delay
            assert abs(tg_t - tg_r) <= 1e-6 * abs(tg_t)

    def test_breakdown_equality_at_30mm(self, headline):
        s = Scenario(n=1.6, f=9.15e9, theta=headline.theta, d=0.030)
        bd_t = total_group_delay(s, Channel.TRANSMISSION)
        bd_r = total_group_delay(s, Channel.REFLECTION)
        assert bd_t.phase_delay == pytest.approx(bd_r.phase_delay, rel=1e-6)
        assert bd_t.gh_shift == pytest.approx(bd_r.gh_shift, rel=1e-9)

    def test_below_critical_rejected(self):
        s = Scenario(n=1.6, f=9.15e9, theta=math.radians(30), d=0.04)
        with pytest.raises(RegimeError):
            total_group_delay(s, Channel.TRANSMISSION)


class TestEquationInversion:
    def test_hundred_ps_shift(self, headline):
        # tau_g = 100 ps and s = 2.65 cm imply each other at 45 deg, n=1.6
        assert shift_implied_by_delay(headline, 100e-12) == pytest.approx(
            0.0265, rel=0.005)
        assert delay_implied_by_shift(headline, 0.0265) == pytest.approx(
            100e-12, rel=0.005)

    def test_saturated_delay_is_lateral_transport(self, headline):
        wv = wavevectors(headline)
        s = Scenario(n=1.6, f=9.15e9, theta=headline.theta, d=6 / wv.kappa)
        bd = total_group_delay(s, Channel.TRANSMISSION)
        assert bd.group_delay == pytest.approx(
            delay_implied_by_shift(s, bd.gh_shift), rel=0.01)

    def test_tuned_scenario_reaches_100ps(self, headline):
        bd = total_group_delay(headline, Channel.TRANSMISSION)
        implied = delay_implied_by_shift(headline, 0.0265)
        assert implied == pytest.approx(100e-12, rel=0.02)
        assert bd.group_delay < implied  # TE theory sits below the quoted shift


class TestHartman:
    def test_sweep_matches_single_point(self, headline):
        table = hartman_sweep(headline, [headline.d], Channel.TRANSMISSION)
        bd = total_group_delay(headline, Channel.TRANSMISSION)
        (row,) = table.rows
        assert row == (headline.d, bd.phase_delay, bd.gh_shift, bd.group_delay)
        # the array evaluation of a long sweep against point-by-point calls
        ds = list(np.linspace(1e-3, 0.1, 37))
        for row, d in zip(hartman_sweep(headline, ds).rows, ds):
            bd = total_group_delay(Scenario(n=1.6, f=9.15e9, theta=headline.theta, d=d))
            assert row == (d, bd.phase_delay, bd.gh_shift, bd.group_delay)

    def test_saturation_profile(self, headline):
        ds = np.linspace(5e-3, 50e-3, 10)
        table = hartman_sweep(headline, list(ds), Channel.TRANSMISSION)
        tau_g = table.column("tau_g")
        assert abs(tau_g[-1] / tau_g[7] - 1) < 0.01  # 50 mm vs ~40 mm
        assert all(b > a for a, b in zip(tau_g, tau_g[1:]))

    def test_saturation_exponents(self, headline):
        # residuals decay like d * e^{-2 kappa d}; the fitted exponential
        # rate (with the algebraic prefactor divided out) must be 2 kappa
        kappa = wavevectors(headline).kappa
        ds = np.linspace(2 / kappa, 6 / kappa, 12)
        table = hartman_sweep(headline, list(ds), Channel.TRANSMISSION)
        s_inf = goos_hanchen_shift(
            Scenario(n=1.6, f=9.15e9, theta=headline.theta, d=20 / kappa),
            Channel.TRANSMISSION)
        resid = np.abs(np.array(table.column("s")) - s_inf)
        rate_s = -np.polyfit(ds, np.log(resid / ds), 1)[0]
        assert rate_s == pytest.approx(2 * kappa, rel=0.10)
        tau0 = np.abs(np.array(table.column("tau0")))
        rate_t = -np.polyfit(ds, np.log(tau0 / ds), 1)[0]
        assert rate_t == pytest.approx(2 * kappa, rel=0.10)

    def test_is_saturated_flag(self, headline):
        # over the last decade of swept d, a sweep ending at 500 mm has its
        # tau_g tail flat, one ending at 50 mm still spans the knee
        def tail_change(ds):
            table = hartman_sweep(headline, list(ds))
            d, tau_g = np.array(table.column("d")), np.array(table.column("tau_g"))
            tail = tau_g[d >= d[-1] / 10]
            return abs(tail[-1] / tail[0] - 1)

        assert tail_change(np.geomspace(5e-3, 0.5, 12)) <= 1e-3
        assert tail_change(np.linspace(5e-3, 50e-3, 10)) > 1e-3

    def test_sweep_validation(self, headline):
        with pytest.raises(ValueError):
            hartman_sweep(headline, [])
        with pytest.raises(ValueError):
            hartman_sweep(headline, [2e-3, 1e-3])
        with pytest.raises(ValueError):
            hartman_sweep(headline, [-1e-3, 1e-3])

    def test_sweep_error_names_offending_point(self):
        below = Scenario(n=1.6, f=9.15e9, theta=math.radians(30), d=0.04)
        with pytest.raises(RegimeError):
            hartman_sweep(below, [7e-3, 8e-3])


class TestSymbolicOracle:
    def test_gap_width_sensitivity(self, headline):
        # independent closed form, differentiated symbolically in d
        sympy = pytest.importorskip("sympy")
        kappa_v = wavevectors(headline).kappa
        alpha_v = wavevectors(headline).k_z_prism
        d_sym, kap, al = sympy.symbols("d kappa alpha", positive=True)
        u = (kap ** 2 - al ** 2) / (2 * kap * al)
        phase_expr = -sympy.atan(u * sympy.tanh(kap * d_sym))
        dphi_dd = sympy.lambdify((d_sym, kap, al),
                                 sympy.diff(phase_expr, d_sym), "math")
        d5 = 5 / kappa_v
        s5 = Scenario(n=1.6, f=9.15e9, theta=headline.theta, d=d5)
        h = 1e-7
        fd = (channel_phase(Scenario(n=1.6, f=9.15e9, theta=headline.theta, d=d5 + h))
              - channel_phase(Scenario(n=1.6, f=9.15e9, theta=headline.theta, d=d5 - h))) / (2 * h)
        oracle = dphi_dd(d5, kappa_v, alpha_v)
        assert fd == pytest.approx(oracle, rel=1e-5, abs=1e-12)
        # phase is d-insensitive once kappa*d is large
        assert abs(oracle) < 0.1 * kappa_v
        assert abs(channel_phase(s5)) < math.pi / 2




def _load_mpmath_oracle():
    """The benchmark's mpmath boundary-condition solve, which imports nothing
    from evanesce."""
    pytest.importorskip("mpmath")
    import importlib.util
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("evanesce_mpmath_oracle", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


class TestWideGaps:
    """Delays at gap widths where t is tiny, subnormal or zero."""

    @pytest.mark.parametrize("pol", ["TE", "TM"])
    @pytest.mark.parametrize("d_mm", [200, 400, 2000])
    def test_delays_match_mpmath_solve(self, pol, d_mm):
        oracle = _load_mpmath_oracle()
        s = Scenario(n=1.6, f=9.15e9, theta=math.radians(45), d=d_mm * 1e-3,
                     polarization=pol)
        want = oracle.delays(oracle.Geometry(n=s.n, f=s.f, theta=s.theta, d=s.d,
                                             polarization=pol))
        for channel in Channel:
            bd = total_group_delay(s, channel)
            assert bd.phase_delay == pytest.approx(want.tau0, rel=1e-10, abs=0)
            assert bd.gh_shift == pytest.approx(want.shift, rel=1e-10, abs=0)

    def test_te_phase_delay_at_400mm(self, headline):
        # a difference quotient of t gives noise near 1e-20 s of either sign
        s = Scenario(n=1.6, f=9.15e9, theta=headline.theta, d=0.4)
        assert phase_delay(s) == pytest.approx(8.1449683285e-45, rel=1e-10, abs=0)

    @pytest.mark.parametrize("pol, s_cm", [("TE", 1.97229226861),
                                           ("TM", 2.52857983155)])
    def test_shift_saturated_at_any_width(self, pol, s_cm):
        # t underflows to 0 past ~7.4 m; the shift does not depend on t
        for d in (2.0, 7.1, 10.0, 100.0):
            s = Scenario(n=1.6, f=9.15e9, theta=math.radians(45), d=d,
                         polarization=pol)
            assert goos_hanchen_shift(s) * 100 == pytest.approx(s_cm, rel=1e-11)
        table = hartman_sweep(s, [7.0, 7.05, 7.1, 10.0, 100.0])
        assert table.column("s") == [goos_hanchen_shift(s)] * 5
        assert table.column("tau0") == [0.0] * 5

    @pytest.mark.parametrize("pol", [Polarization.TE, Polarization.TM])
    def test_channel_phase_where_t_underflows(self, headline, pol):
        # oracle: -atan(u tanh(kappa d)),
        # u = (kappa^2 - alpha_hat^2)/(2 kappa alpha_hat)
        wv = wavevectors(headline)
        alpha_hat = wv.k_z_prism / (headline.n ** 2 if pol is Polarization.TM else 1.0)
        s = Scenario(n=1.6, f=9.15e9, theta=headline.theta, d=1000 / wv.kappa,
                     polarization=pol)
        assert scatter(s).t == 0
        u = (wv.kappa ** 2 - alpha_hat ** 2) / (2 * wv.kappa * alpha_hat)
        oracle = -math.atan(u * math.tanh(1000.0))
        assert channel_phase(s) == pytest.approx(oracle, rel=1e-14, abs=1e-15)
        got_r = channel_phase(s, channel=Channel.REFLECTION)
        assert got_r == pytest.approx(oracle - math.pi / 2, rel=1e-14, abs=1e-15)
