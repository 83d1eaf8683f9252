import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import trapezoid

from evanesce import (
    Channel, Polarization, RegimeError, Scenario, evanescent_vs_free_energy,
    goos_hanchen_shift, scatter, stored_energy, total_group_delay, train_model,
    wavevectors,
)
from evanesce.energy import incident_flux, integrated_density
from conftest import random_scenario
import grazing_reference as ref


def kd_scenario(headline, kd: float) -> Scenario:
    kappa = wavevectors(headline).kappa
    return replace(headline, d=kd / kappa)


def gap_profile(s: Scenario, z: np.ndarray):
    """Gap field C e^{i k_z z} + D e^{-i k_z z} and its energy density
    (module docstring of ``evanesce.energy``) from scatter's amplitudes;
    e^{kappa z} is formed, so keep kappa d well inside the exponent range."""
    res = scatter(s)
    kz = res.k_z_gap
    up, down = res.c_amp * np.exp(1j * kz * z), res.d_amp * np.exp(-1j * kz * z)
    k_x = wavevectors(s).k_x
    density = 0.25 * ((1 + (s.c * k_x / s.omega) ** 2) * np.abs(up + down) ** 2
                      + (s.c / s.omega) ** 2 * np.abs(kz * (up - down)) ** 2)
    return up + down, density


class TestGapField:
    def test_interface_continuity(self):
        # tangential field and impedance-weighted slope must match the
        # prism-side waves at both faces; reconstruction at z=d amplifies
        # the growing component's roundoff by e^{kappa d}, so the sampled
        # gaps stay within kappa d <= 6 where 1e-10 is meaningful
        rng = np.random.default_rng(21)
        for _ in range(200):
            s = random_scenario(rng)
            kappa = wavevectors(s).kappa
            if kappa > 0 and kappa * s.d > 6:
                s = replace(s, d=6 / kappa)
            res = scatter(s)
            f0, fd = gap_profile(s, np.array([0.0, s.d]))[0]
            assert abs(f0 - (1 + res.r)) <= 1e-10 * abs(1 + res.r)
            assert abs(fd - res.t) <= 1e-10 * max(abs(res.t), 1.0)
            # derivative continuity across each face
            wv = wavevectors(s)
            weight = s.n ** 2 if s.polarization is Polarization.TM else 1.0
            alpha_hat = wv.k_z_prism / weight
            slope_in = 1j * alpha_hat * (1 - res.r)
            slope_gap = (1j * res.k_z_gap
                         * (res.c_amp - res.d_amp))
            assert abs(slope_gap - slope_in) <= 1e-10 * abs(slope_in)

    def test_entry_value_te(self, headline):
        res = scatter(headline)
        assert res.c_amp + res.d_amp == pytest.approx(1 + res.r, rel=1e-12)

    def test_decaying_term_dominates_first_half(self, headline):
        s = kd_scenario(headline, 6.0)
        res = scatter(s)
        kappa = wavevectors(s).kappa
        z = np.linspace(0.0, s.d / 2, 256)
        field, _ = gap_profile(s, z)
        approx = np.abs(res.c_amp) * np.exp(-kappa * z)
        assert np.max(np.abs(np.abs(field) / approx - 1)) < 0.01

    def test_density_exponential_fit(self, headline):
        # least-squares A e^{-2 kappa z} on the first half, kd = 6
        s = kd_scenario(headline, 6.0)
        kappa = wavevectors(s).kappa
        z = np.linspace(0.0, s.d / 2, 256)
        _, u = gap_profile(s, z)
        basis = np.exp(-2 * kappa * z)
        amplitude = float(np.dot(basis, u) / np.dot(basis, basis))
        residual = u - amplitude * basis
        r_squared = 1 - float(np.sum(residual ** 2) / np.sum((u - u.mean()) ** 2))
        assert r_squared > 0.999

    def test_density_nonnegative(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            s = random_scenario(rng, tunneling=bool(rng.random() < 0.5))
            _, u = gap_profile(s, np.linspace(0.0, s.d, 64))
            assert np.all(u >= 0)

    def test_below_critical_is_flagged_not_rejected(self):
        s = Scenario(n=1.6, f=9.15e9, theta=math.radians(30), d=0.08)
        # a real gap wavenumber marks the propagating regime
        assert scatter(s).k_z_gap.imag == 0
        # oscillatory standing pattern: the density is non-monotone
        _, u = gap_profile(s, np.linspace(0.0, s.d, 256))
        assert np.any(np.diff(u) > 0) and np.any(np.diff(u) < 0)

    def test_regime_flag_set_in_gap(self, headline):
        assert scatter(headline).k_z_gap.imag > 0


class TestStoredEnergy:
    def test_zero_gap(self, headline):
        budget = stored_energy(replace(headline, d=0.0))
        assert budget.stored == 0.0
        assert budget.dwell_time == 0.0

    @pytest.mark.parametrize("polarization", list(Polarization))
    def test_zero_gap_is_positive_zero(self, headline, polarization):
        # closed prisms take the general path: +0.0, sign included
        s = replace(headline, d=0.0, polarization=polarization)
        budget = stored_energy(s)
        for value in (integrated_density(s), budget.stored,
                      budget.incident_power, budget.dwell_time):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_dwell_identity(self, headline):
        # per-area energy over flux, which stored / incident_power equals
        # but for the rounding of the shift s that scales both
        budget = stored_energy(headline)
        assert budget.dwell_time \
            == integrated_density(headline) / incident_flux(headline)
        assert budget.dwell_time == pytest.approx(
            budget.stored / budget.incident_power, rel=1e-15)

    def test_dwell_survives_underflow_of_stored(self, headline):
        # at 1e-300 mm the stored energy (per-area energy times s, both
        # ~1e-300) underflows to 0.0; the dwell time does not involve s
        s = replace(headline, d=1e-303)
        budget = stored_energy(s)
        assert budget.stored == 0.0
        assert budget.dwell_time * 1e12 == pytest.approx(5.24438e-300, rel=1e-6)
        # linear in d while kappa d << 1 (1e-7 at a nanometre)
        thin = stored_energy(replace(headline, d=1e-9)).dwell_time
        assert budget.dwell_time == pytest.approx(thin * 1e-294, rel=1e-6)

    def test_quadrature_against_closed_form(self, headline):
        # oracle: the z-integral has a closed form in the two amplitudes
        for kd in (0.5, 2.0, 6.0):
            s = kd_scenario(headline, kd)
            res = scatter(s)
            kappa = wavevectors(s).kappa
            k_x = wavevectors(s).k_x
            cs, ds_ = res.c_amp, res.d_amp
            w = (s.c * k_x / s.omega) ** 2
            # |F|^2 and |F'|^2 integrate term by term
            i_cc = abs(cs) ** 2 * (1 - math.exp(-2 * kappa * s.d)) / (2 * kappa)
            i_dd = abs(ds_) ** 2 * (math.exp(2 * kappa * s.d) - 1) / (2 * kappa)
            i_cross = 2 * (cs * ds_.conjugate()).real * s.d
            closed = 0.25 * ((1 + w) * (i_cc + i_dd + i_cross)
                             + (s.c / s.omega) ** 2 * kappa ** 2
                             * (i_cc + i_dd - i_cross))
            assert integrated_density(s) == pytest.approx(closed, rel=1e-9)

    @pytest.mark.parametrize("d", [0.4, 1.0, 2.0])
    def test_wide_gap_decaying_term_only(self, headline, d):
        # past kappa d ~ 35 the growing and cross terms are below rounding:
        # the stored energy is the integral of the decaying term alone, whose
        # amplitude is the single-interface value 2 alpha / (alpha + i kappa)
        s = replace(headline, d=d)
        wv = wavevectors(s)
        c_amp = 2 * wv.k_z_prism / (wv.k_z_prism + 1j * wv.kappa)
        weight = 0.25 * (1 + (s.c * wv.k_x / s.omega) ** 2
                         + (s.c * wv.kappa / s.omega) ** 2)
        closed = weight * abs(c_amp) ** 2 / (2 * wv.kappa)
        assert integrated_density(s) == pytest.approx(closed, rel=1e-12)

    def test_saturation_profile_dominant_regime(self, headline):
        # the pure decaying-exponential integral predicts the profile in the
        # dominant-term window
        kappa = wavevectors(headline).kappa
        kds = np.linspace(3.5, 6.0, 10)
        stored = np.array([stored_energy(kd_scenario(headline, kd)).stored
                           for kd in kds])
        model = 1 - np.exp(-kds * 2)
        profile = stored / stored[-1]
        assert np.max(np.abs(profile - model / model[-1])) < 0.02

    def test_monotone_in_d(self, headline):
        kds = np.linspace(0.2, 8.0, 25)
        stored = [stored_energy(kd_scenario(headline, kd)).stored for kd in kds]
        assert all(b > a for a, b in zip(stored, stored[1:]))

    def test_saturation_exponent(self, headline):
        kappa = wavevectors(headline).kappa
        kds = np.linspace(2.0, 6.0, 12)
        ds = kds / kappa
        stored = np.array([stored_energy(kd_scenario(headline, kd)).stored
                           for kd in kds])
        resid = stored[-1] * 1.0001 - stored  # headroom keeps logs finite
        rate = -np.polyfit(ds, np.log(resid / ds), 1)[0]
        assert rate == pytest.approx(2 * kappa, rel=0.10)

    def test_dwell_saturates_40_to_50mm(self, headline):
        dw40 = stored_energy(replace(headline, d=0.040)).dwell_time
        dw50 = stored_energy(replace(headline, d=0.050)).dwell_time
        assert abs(dw50 / dw40 - 1) < 0.01

    def test_dwell_profile_tracks_group_delay(self, headline):
        # shared saturation: normalized dwell and group-delay profiles agree
        kds = np.linspace(2.0, 6.0, 9)
        dwell = np.array([stored_energy(kd_scenario(headline, kd)).dwell_time
                          for kd in kds])
        tau = np.array([
            total_group_delay(kd_scenario(headline, kd), Channel.TRANSMISSION).group_delay
            for kd in kds])
        assert np.max(np.abs(dwell / dwell[-1] - tau / tau[-1])) < 0.05

    def test_group_delay_energy_correlation(self, headline):
        kds = np.linspace(2.0, 6.0, 20)
        tau = np.array([
            total_group_delay(kd_scenario(headline, kd), Channel.TRANSMISSION).group_delay
            for kd in kds])
        stored = np.array([stored_energy(kd_scenario(headline, kd)).stored
                           for kd in kds])
        a, b = tau - tau[-1], stored - stored[-1]
        corr = float(np.dot(a, b) / math.sqrt(np.dot(a, a) * np.dot(b, b)))
        assert corr > 0.999

    def test_lateral_extent_uses_transmitted_shift(self, headline):
        budget = stored_energy(headline)
        shift = goos_hanchen_shift(headline, Channel.TRANSMISSION)
        assert budget.stored / integrated_density(headline) == pytest.approx(
            shift, rel=1e-9)

    def test_below_critical_rejected(self):
        s = Scenario(n=1.6, f=9.15e9, theta=math.radians(30), d=0.04)
        for fn in (stored_energy, integrated_density):
            with pytest.raises(RegimeError):
                fn(s)


class TestEvanescentVsFree:
    def test_wide_gap_stores_less(self, headline):
        assert evanescent_vs_free_energy(kd_scenario(headline, 6.0)) < 0.2

    def test_thin_gap_limit(self, headline):
        assert evanescent_vs_free_energy(kd_scenario(headline, 1e-3)) \
            == pytest.approx(1.0, abs=1e-3)

    def test_monotone_decreasing(self, headline):
        kds = np.linspace(0.5, 8.0, 20)
        ratios = [evanescent_vs_free_energy(kd_scenario(headline, kd)) for kd in kds]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_against_trapezoid_oracle(self, headline):
        # independent dense integration of the same mean-square field
        s = kd_scenario(headline, 3.0)
        res = scatter(s)
        z = np.linspace(0, s.d, 20001)
        field = (res.c_amp * np.exp(1j * res.k_z_gap * z)
                 + res.d_amp * np.exp(-1j * res.k_z_gap * z))
        oracle = trapezoid(np.abs(field) ** 2, z) / (abs(field[0]) ** 2 * s.d)
        assert evanescent_vs_free_energy(s) == pytest.approx(oracle, rel=1e-7)

    def test_below_one_once_kd_order_one(self, headline):
        assert evanescent_vs_free_energy(kd_scenario(headline, 1.0)) < 1.0

    @pytest.mark.parametrize("polarization", list(Polarization))
    @pytest.mark.parametrize("n, theta_deg", [(1.6, 45.0), (1.5, 42.0), (2.2, 70.0)])
    @pytest.mark.parametrize("d_mm", [1e-300, 1e-9, 1e-6, 1e-4, 1e-3])
    def test_thin_gap_against_mpmath(self, polarization, n, theta_deg, d_mm):
        # below 1 to the last bit and within an ulp of the exact
        # ratio, also near the critical angle (42 deg at n = 1.5), where
        # the field integrals cancel
        s = Scenario(n=n, f=9.15e9, theta=math.radians(theta_deg),
                     d=d_mm * 1e-3, polarization=polarization)
        got = evanescent_vs_free_energy(s)
        assert got <= 1.0
        assert abs(got - float(ref.free_energy_ratio(s))) <= 2.0 ** -53

    def test_requires_gap(self, headline):
        with pytest.raises(ValueError):
            evanescent_vs_free_energy(replace(headline, d=0.0))


class TestTrainModel:
    def test_sixteen_five_cars(self):
        assert train_model(16, 5) == (31, 31 / 32)

    def test_single_car(self):
        assert train_model(1, 1) == (1, 0.5)

    def test_never_reaches_double_first_car(self):
        for n in (1, 3, 16, 17, 100, 1024):
            for cars in (1, 2, 5, 20, 64):
                total, proxy = train_model(n, cars)
                assert total < 2 * n
                assert proxy < 1.0

    def test_floor_never_exceeds_geometric(self):
        for n in (5, 16, 33):
            for cars in (1, 4, 10):
                # exact halving sums to 2N (1 - 2^-cars)
                geometric = 2 * Fraction(n) * (1 - Fraction(1, 2 ** cars))
                assert train_model(n, cars)[0] <= geometric

    def test_validation(self):
        for bad in ((0, 5), (16, 0), (-1, 2)):
            with pytest.raises(ValueError):
                train_model(*bad)
