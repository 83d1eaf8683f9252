import cmath
import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from evanesce import (
    BeamSpec, Channel, DegenerateChannelError, GridGuardError, Polarization,
    PulseSpec, Scenario, beam_centroid_shift, differential_delay,
    front_causality_check, goos_hanchen_shift, propagate_pulse,
    quasi_static_ratio, scatter, total_group_delay, vacuum_wavelength,
    wavevectors,
)
from evanesce import scattering, wavesynth
from evanesce.scattering import _coefficient
from evanesce.wavesynth import (
    _BLOCK, _envelope, _fixed_angle, _grid_index, _newton, _one_sided, _peak,
    _smooth_step, _step, sample_pulse, time_grid,
)
from conftest import HEADLINE, random_scenario
from spectral_reference import (
    analytic_envelope, apply_channel, band_envelope, carrier_rate_series,
    continuous_pulse, exact_peak, gaussian_spectrum,
    incident_envelope,
)

PULSE = PulseSpec(fwhm=16e-9, carrier=9.15e9)


def spatial_centroid(profile):
    """sum(x I)/sum(I) of a beam profile."""
    return float(np.sum(profile.x_samples * profile.intensity)
                 / np.sum(profile.intensity))


def window_resolves(profile):
    """Whether the profile is below 1e-20 of its peak over the outer
    sixteenth of the window at each end.  Where it is not, a spectrum cut
    at the prism cutoff rings out to the window's edges, and sum(x I)/sum(I)
    depends on the window rather than on the beam."""
    edge = len(profile.intensity) // 16
    tails = np.concatenate((profile.intensity[:edge], profile.intensity[-edge:]))
    return tails.max() < 1e-20 * profile.intensity.max()


def front_pulse(n_sigmas=3.0, rise=None):
    sigma = PULSE.sigma
    return PulseSpec(fwhm=PULSE.fwhm, carrier=PULSE.carrier,
                     front_time=-n_sigmas * sigma, front_rise=rise)


class TestPulsePropagation:
    def test_identity_at_zero_gap(self, headline):
        s = replace(headline, d=0.0)
        series, report = propagate_pulse(s, PULSE)
        t = series.t_samples
        assert np.max(np.abs(series.values - sample_pulse(PULSE, t))) < 1e-10
        assert report.peak_time == 0.0
        assert report.peak_amplitude == pytest.approx(1.0, abs=1e-12)

    def test_shape_preserved_through_40mm(self, headline):
        _, report = propagate_pulse(headline, PULSE)
        assert abs(report.fwhm / PULSE.fwhm - 1) < 0.01
        assert report.shape_correlation > 0.999

    def test_peak_intensity_matches_exact_coefficient(self, headline):
        _, report = propagate_pulse(headline, PULSE)
        exact = abs(scatter(headline).t) ** 2
        assert report.peak_amplitude ** 2 == pytest.approx(exact, rel=0.10)

    def test_peak_delay_matches_stationary_phase(self, headline):
        _, report = propagate_pulse(headline, PULSE)
        predicted = total_group_delay(headline, Channel.TRANSMISSION).phase_delay
        assert abs(report.peak_time - predicted) < 0.01 * PULSE.fwhm

    def test_reflected_pulse_same_delay(self, headline):
        _, rep_t = propagate_pulse(headline, PULSE, Channel.TRANSMISSION)
        _, rep_r = propagate_pulse(headline, PULSE, Channel.REFLECTION)
        assert abs(rep_t.peak_time - rep_r.peak_time) < 1e-12
        assert rep_r.peak_amplitude == pytest.approx(
            abs(scatter(headline).r), rel=1e-3)

    def test_shape_preserved_across_scenarios(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            s = random_scenario(rng)
            pulse = PulseSpec(fwhm=150 / s.f, carrier=s.f)  # fwhm*carrier = 150
            _, report = propagate_pulse(s, pulse)
            assert report.shape_correlation > 0.999

    def test_energy_conserved_across_channels(self, headline):
        t = time_grid(PULSE, 16, 16)
        x = sample_pulse(PULSE, t)
        dt = t[1] - t[0]
        out_t = apply_channel(x, dt, headline, Channel.TRANSMISSION)
        out_r = apply_channel(x, dt, headline, Channel.REFLECTION)
        env_in = analytic_envelope(x)
        e_in = np.sum(env_in ** 2)
        e_out = np.sum(analytic_envelope(out_t) ** 2) \
            + np.sum(analytic_envelope(out_r) ** 2)
        assert e_out == pytest.approx(e_in, rel=1e-6)

    def test_linearity(self, headline):
        t = time_grid(PULSE, 16, 16)
        dt = t[1] - t[0]
        a = sample_pulse(PULSE, t)
        b = sample_pulse(front_pulse(), t)
        out_sum = apply_channel(a + 2 * b, dt, headline)
        parts = apply_channel(a, dt, headline) + 2 * apply_channel(b, dt, headline)
        assert np.max(np.abs(out_sum - parts)) < 1e-12 * np.max(np.abs(parts))

    def test_report_invariants(self, headline):
        _, report = propagate_pulse(headline, PULSE)
        assert report.fwhm > 0
        assert abs(report.shape_correlation) <= 1.0

    @pytest.mark.parametrize("d", [0.01, 0.04, 1.0])
    def test_shape_correlation_matches_complex_transforms(self, headline, d):
        # against complex transforms of the carrier-rate output envelope and
        # of the sampled closed-form incident envelope, whose best
        # carrier-rate lag brackets the continuous one; there the incident
        # envelope is its closed form and the lag is found by Brent's
        # method.  The coarse Riemann sums and the full carrier-rate ones
        # round in another order, a few ulps of 1 apart
        s = replace(headline, d=d)
        t = time_grid(PULSE, 16, 16)
        lo, omegas, band = _one_sided(PULSE, len(t), _step(PULSE, 16))
        spectrum = np.zeros(len(t), dtype=complex)
        spectrum[lo:lo + len(band)] = band * np.conj(
            _fixed_angle(s, Channel.TRANSMISSION, omegas))
        env_out = np.abs(np.fft.ifft(spectrum))
        env_in = np.exp(-t ** 2 / (2 * PULSE.sigma ** 2))
        corr = np.fft.ifft(np.fft.fft(env_out) * np.conj(np.fft.fft(env_in))).real
        dt = _step(PULSE, 16)
        lag = (np.argmax(corr) + len(t) // 2) % len(t) * dt + t[0]

        def overlap(lag):
            return float(env_out @ np.exp(-(t - lag) ** 2 / (2 * PULSE.sigma ** 2)))

        best = minimize_scalar(lambda lag: -overlap(lag), method="bounded",
                               bounds=(lag - dt, lag + dt),
                               options={"xatol": 1e-9 * dt})
        want = overlap(best.x) / math.sqrt(np.sum(env_out ** 2)
                                           * np.sum(env_in ** 2))
        assert abs(propagate_pulse(s, PULSE)[1].shape_correlation - want) \
            <= 4 * np.finfo(float).eps

    def test_bandwidth_guard(self, headline):
        with pytest.raises(GridGuardError):
            propagate_pulse(headline, PulseSpec(fwhm=1e-9, carrier=5e9))

    def test_grid_guards(self, headline):
        with pytest.raises(GridGuardError):
            front_causality_check(headline, front_pulse(), dt_factor=4)

    def test_fixed_grid(self, headline):
        series, _ = propagate_pulse(headline, PULSE)
        assert len(series.t_samples) == len(series.values) == 65536
        assert _step(PULSE, 16) == 1 / (16 * PULSE.carrier)
        # measured on the band's 573 bins and on the power of two above them
        _, filtered, _, _, coarse, *_ = wavesynth._propagated(
            headline, PULSE, Channel.TRANSMISSION)
        assert len(filtered) == 573
        assert len(coarse) == 1024

    def test_front_pulse_rejected(self, headline):
        # the report measures against the plain Gaussian; a pulse with a
        # front is the front check's
        for measure in (propagate_pulse, differential_delay):
            with pytest.raises(ValueError, match="plain Gaussian pulse"):
                measure(headline, front_pulse())

    def test_reflection_degenerate_at_zero_gap(self, headline):
        with pytest.raises(DegenerateChannelError):
            propagate_pulse(replace(headline, d=0.0), PULSE, Channel.REFLECTION)

    def test_underflowed_output_rejected(self, headline):
        # at gaps of 1e-163 and 1e-303 m r is ~1e-161 and ~1e-301: the
        # reflected envelope squared was subnormal (width 4.0164 ns and
        # correlation 1.0015 for a 4 ns pulse) or 0.0 at every sample (exit
        # 2).  The band is measured scaled by a power of two, so the shape
        # is the one at 1e-103 m and only the amplitude scales with d.
        pulse = PulseSpec(fwhm=4e-9, carrier=PULSE.carrier)
        # r is C omega d to first order in kappa d, so the reflected
        # envelope |g'|^2 + omega_0^2 g^2 of the incident g peaks at t = 0:
        # each delay is round-off about 0 (0.0 s at 1e-103 and 1e-303 m,
        # 1.5e-39 s at 1e-163 m), far below the peak's 1e-25 s floor
        want = propagate_pulse(replace(headline, d=1e-103), pulse,
                               Channel.REFLECTION)[1]
        assert abs(want.peak_time) <= 1e-30
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d in (1e-163, 1e-303):
                got = propagate_pulse(replace(headline, d=d), pulse,
                                      Channel.REFLECTION)[1]
                assert got.fwhm == pytest.approx(want.fwhm, rel=1e-12)
                assert got.shape_correlation <= 1.0
                assert got.shape_correlation == pytest.approx(
                    want.shape_correlation, rel=1e-12)
                assert abs(got.peak_time) <= 1e-30
                assert got.peak_amplitude / d == pytest.approx(
                    want.peak_amplitude / 1e-103, rel=1e-12)
            assert propagate_pulse(replace(headline, d=1e-303), PULSE)[1] \
                .shape_correlation == pytest.approx(1.0, abs=1e-12)

    def test_band_past_double_range_rejected(self, headline):
        # at 100 m the growth guard admits e^708, but alpha_hat e^708
        # overflows: the band is checked before any product can warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridGuardError, match="gap too wide for the "
                               "pulse synthesis: transmission varies by e\\^708 "):
                wavesynth._propagated(replace(headline, d=100.0), PULSE,
                                      Channel.TRANSMISSION)
            assert wavesynth._propagated(replace(headline, d=90.0), PULSE,
                                         Channel.TRANSMISSION)[6] \
                == pytest.approx(0.0, abs=1e-24)


class TestDifferentialDelay:
    def test_magnitude_matches_phase_delay(self, headline):
        dd = differential_delay(headline, PULSE)
        tau0 = total_group_delay(headline, Channel.TRANSMISSION).phase_delay
        assert abs(abs(dd) - abs(tau0)) < 3e-12

    def test_sign_closed_minus_gapped(self, headline):
        # the gapped pulse arrives later, so closed-minus-gapped is negative
        assert differential_delay(headline, PULSE) < 0

    def test_zero_gap(self, headline):
        # closed prisms take the general path: t = 1 gives +0.0
        for polarization in Polarization:
            delay = differential_delay(
                replace(headline, d=0.0, polarization=polarization), PULSE)
            assert delay == 0.0 and math.copysign(1.0, delay) == 1.0

    def test_small_against_pulse_width(self, headline):
        assert abs(differential_delay(headline, PULSE)) < 0.01 * PULSE.fwhm


class TestFrontCausality:
    def test_headline_leakage_below_threshold(self, headline):
        assert front_causality_check(headline, front_pulse()) < 1e-6

    def test_leakage_across_gap_range(self, headline):
        for d_mm in (5, 20, 50):
            s = replace(headline, d=d_mm * 1e-3)
            assert front_causality_check(s, front_pulse()) < 1e-6

    def test_self_convergent_under_refinement(self, headline):
        leak = front_causality_check(headline, front_pulse(), dt_factor=16)
        leak_fine = front_causality_check(headline, front_pulse(), dt_factor=32)
        assert leak_fine <= 5 * leak + 1e-9

    def test_zero_gap_leak_is_input_level(self, headline):
        # no barrier: t = 1, so the output is the damped input's round trip
        # through rfft and irfft, exactly zero before the front but for the
        # transforms' round-off.  The analytic envelope's Hilbert tail read
        # 1.7e-7 of the peak there
        pulse = front_pulse()
        s0 = replace(headline, d=0.0)
        for dt_factor in (16, 32):
            leak = front_causality_check(s0, pulse, dt_factor)
            assert leak == damped_synthesis(s0, pulse, dt_factor)[-1]
            assert leak < 1e-16

    def test_requires_front(self, headline):
        with pytest.raises(ValueError):
            front_causality_check(headline, PULSE)

    def test_front_past_the_pulse_rejected(self, headline):
        # a front 40 sigmas after the peak, past the Gaussian's reach: the
        # pulse is zero at every sample after it.  The ratio was 0/0, a
        # RuntimeWarning and NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridGuardError, match="zero at every sample "
                               "after its front"):
                front_causality_check(headline, front_pulse(-40.0))

    @pytest.mark.parametrize("polarization", list(Polarization))
    @pytest.mark.parametrize("d", [0.04, 0.4, 1.0, 10.0, 250.0, 277.0, 290.0])
    def test_criterion_11_across_the_gap_range(self, d, polarization):
        # the periodic 64-fwhm window read 2.0e-9, 4.0e-3, 0.016 and 0.286
        # at 40 mm, 0.4, 1 and 10 m (TE) and 1.0 at 250 m; it ended at
        # +895 ns, so its guard passed 277 m and rejected 290 m, whose
        # vacuum front arrives at 938 ns.  The window is sized from the
        # arrival, so no gap is past it
        s = Scenario(**{**HEADLINE, "d": d}, polarization=polarization)
        leak = front_causality_check(s, front_pulse(), 16)
        leak_fine = front_causality_check(s, front_pulse(), 32)
        assert leak < 1e-6 and leak_fine < 1e-6
        assert leak_fine <= 5 * leak + 1e-9

    @pytest.mark.parametrize("n, f, theta_deg, d", [
        (1.6, 13.6e9, 89.9999999, 0.2e-3),  # grazing: 6.65e-3 in the window
        (2.2, 20e9, 70.0, 0.04),            # 1.49e-6, self-convergent
    ])
    def test_criterion_11_where_it_failed(self, n, f, theta_deg, d):
        s = Scenario(n=n, f=f, theta=math.radians(theta_deg), d=d)
        pulse = PulseSpec(fwhm=PULSE.fwhm, carrier=f,
                          front_time=-3 * PULSE.sigma)
        leak = front_causality_check(s, pulse, 16)
        leak_fine = front_causality_check(s, pulse, 32)
        assert leak < 1e-6 and leak_fine < 1e-6
        assert leak_fine <= 5 * leak + 1e-9

    @pytest.mark.parametrize("dt_factor, n", [(16, 32768), (32, 65536)])
    def test_fixed_grid(self, headline, monkeypatch, dt_factor, n):
        # the transforms run on n samples, whose first half spans 1 fwhm
        # before the front to 4 fwhm after the peak (108.8 ns), and no
        # time grid is built
        sizes = []
        real = wavesynth._grid_size

        def counted(*args):
            sizes.append(real(*args))
            return sizes[-1]

        def unused(*args):
            raise AssertionError("the front check built a time grid")

        monkeypatch.setattr(wavesynth, "_grid_size", counted)
        monkeypatch.setattr(wavesynth, "_grid", unused)
        calls = counted_transforms(monkeypatch)
        front_causality_check(headline, front_pulse(), dt_factor)
        assert sizes == [n]
        assert calls == [("rfft", n), ("irfft", n)]
        first, _, dt, damping = wavesynth._front_window(
            headline, front_pulse(), dt_factor)
        assert first * dt <= front_pulse().front_time - PULSE.fwhm \
            < (first + 1) * dt
        assert (first + n // 2) * dt >= 4 * PULSE.fwhm
        assert damping == (30.0 if dt_factor == 16 else 27.0)

    @pytest.mark.parametrize("dt_factor", [16, 32])
    @pytest.mark.parametrize("polarization", list(Polarization))
    def test_bitwise_full_grid_route(self, polarization, dt_factor):
        # the one-buffer check against the full-grid damped route at 0,
        # 40 mm and 1 m, and below the critical angle
        for d, theta_deg in ((0.0, 45), (0.04, 45), (1.0, 45), (0.04, 30)):
            s = Scenario(n=1.6, f=9.15e9, theta=math.radians(theta_deg), d=d,
                         polarization=polarization)
            got = front_causality_check(s, front_pulse(), dt_factor)
            assert got == damped_synthesis(s, front_pulse(), dt_factor)[-1], \
                (d, theta_deg)

    def test_field_is_zero_before_front(self, headline):
        # the real field itself, not just the envelope, sits at the
        # numerical floor ahead of the vacuum front arrival
        pulse = front_pulse()
        t = time_grid(pulse, 16, 64)
        x = sample_pulse(pulse, t)
        kx0 = wavevectors(headline).k_x
        out = apply_channel(x, t[1] - t[0], headline, fixed_kx=True)
        arrival = pulse.front_time + headline.d / headline.c
        pre = t < arrival
        assert np.abs(out[pre]).max() / np.abs(out).max() < 1e-8


class TestGridIndex:
    """``_grid_index`` is ``np.searchsorted`` on the grid, without it."""

    @staticmethod
    def assert_searchsorted(t, dt, xs, first=None):
        first = -(len(t) // 2) if first is None else first
        for x in xs:
            for side in ("left", "right"):
                assert _grid_index(first, len(t), dt, x, side) \
                    == np.searchsorted(t, x, side), (x, side)

    @pytest.mark.parametrize("pulse, dt_factor, span_factor", [
        (PULSE, 16, 16), (front_pulse(), 16, 64), (front_pulse(), 32, 64)])
    def test_time_grid(self, pulse, dt_factor, span_factor):
        # at sample times, an ulp either side of them, and outside the
        # window
        t = time_grid(pulse, dt_factor, span_factor)
        n, dt = len(t), _step(pulse, dt_factor)
        rng = np.random.default_rng(7)
        at = np.concatenate([t[:3], t[n // 2 - 2:n // 2 + 3], t[-3:],
                             rng.choice(t, 200)])
        self.assert_searchsorted(t, dt, np.concatenate([
            at, np.nextafter(at, -np.inf), np.nextafter(at, np.inf),
            [t[0] - dt, t[-1] + dt, -1e300, 1e300, -np.inf, np.inf]]).tolist())

    @pytest.mark.parametrize("n", [1, 2, 9, 4097])
    def test_small_and_odd_grids(self, n):
        dt = _step(PULSE, 16)
        t = wavesynth._grid(n, dt)
        self.assert_searchsorted(t, dt, np.concatenate([
            t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf),
            [t[0] - dt, t[-1] + dt, -0.0]]).tolist())

    @pytest.mark.parametrize("d", [0.04, 250.0])
    def test_front_window(self, headline, d):
        # the front check's window, which starts 1 fwhm before the front
        pulse = front_pulse()
        first, n, dt, _ = wavesynth._front_window(replace(headline, d=d),
                                                  pulse, 16)
        t = (np.arange(n) + first) * dt
        edges = [pulse.front_time, pulse.front_time + d / headline.c,
                 -38.7 * pulse.sigma, 38.7 * pulse.sigma]
        at = np.concatenate([t[:3], t[-3:], t[np.minimum(
            np.searchsorted(t, edges), n - 1)]])
        self.assert_searchsorted(t, dt, np.concatenate([
            at, np.nextafter(at, -np.inf), np.nextafter(at, np.inf),
            edges, [-np.inf, np.inf]]).tolist(), first)


class TestClosedFormSpectrum:
    """A plain pulse's spectrum is the closed-form DFT on its live band."""

    @pytest.mark.parametrize("fwhm, carrier, dt_factor, span_factor", [
        (16e-9, 9.15e9, 16, 16),   # the headline grid
        (16e-9, 9.15e9, 32, 64),
        (1.1e-9, 9.15e9, 16, 16),  # fwhm*carrier 10.07: the band starts at bin 1
        (5e-9, 20e9, 8, 8),
        (2e-9, 5.1e9, 32, 16),
    ])
    def test_band_matches_rfft_of_samples(self, fwhm, carrier, dt_factor,
                                          span_factor):
        pulse = PulseSpec(fwhm=fwhm, carrier=carrier)
        t = time_grid(pulse, dt_factor, span_factor)
        n, dt = len(t), 1 / (dt_factor * carrier)
        lo, omegas, band = _one_sided(pulse, n, _step(pulse, dt_factor))
        hi = lo + len(band)
        got = np.zeros((n + 1) // 2, dtype=complex)
        got[lo:hi] = band
        want = 2.0 * np.fft.rfft(sample_pulse(pulse, t))[:(n + 1) // 2]
        want[0] = 0.0  # the analytic spectrum holds omega > 0 only
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.array_equal(omegas, 2 * math.pi * np.fft.rfftfreq(n, dt)[lo:hi])
        # outside the band the exact spectrum underflows to 0.0
        exact = gaussian_spectrum(pulse, n, dt)[:(n + 1) // 2]
        assert not exact[1:lo].any() and not exact[hi:].any()

    @pytest.mark.parametrize("dt_factor", [16, 32])
    def test_front_pulse_keeps_rfft(self, headline, monkeypatch, dt_factor):
        # a front pulse's spectrum has no closed form: the front check
        # transforms back the rfft of its damped samples on every bin,
        # which at d = 0, where t = 1, is the spectrum the inverse
        # transform receives
        pulse = front_pulse()
        first, n, dt, damping = wavesynth._front_window(
            replace(headline, d=0.0), pulse, dt_factor)
        i = np.arange(n)
        samples = (sample_pulse(pulse, (i + first) * dt)
                   * np.exp(-(damping / n) * i))
        seen = []
        real = np.fft.irfft

        def spy(a, *args, **kwargs):
            seen.append(a.copy())
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", spy)
        front_causality_check(replace(headline, d=0.0), pulse, dt_factor)
        (spectrum,) = seen
        assert np.array_equal(spectrum, np.fft.rfft(samples))


class TestIncidentClosedForm:
    """The incident pulse is not synthesized.  Its envelope, the envelope's
    spectrum and its sum of squares are closed forms, which the FFT path
    reproduces to round-off."""

    # the inverse FFT's round-off grows with the grid: 6.8e-16, 7.9e-15 and
    # 5.7e-13 on 2^12, 2^16 and 2^22 samples, where the closed form is exact
    @pytest.mark.parametrize("cycles, bound", [(10.001, 1e-14), (150, 1e-14),
                                               (1e4, 1e-12)])
    def test_synthesized_envelope(self, cycles, bound):
        pulse = PulseSpec(fwhm=cycles / 9.15e9, carrier=9.15e9)
        t = time_grid(pulse, 16, 16)
        n, dt = len(t), _step(pulse, 16)
        lo, _, band = _one_sided(pulse, n, dt)
        spectrum = np.zeros(n, dtype=complex)
        spectrum[lo:lo + len(band)] = band
        env = np.abs(np.fft.ifft(spectrum, out=spectrum))
        del spectrum
        assert np.max(np.abs(env - np.exp(-t ** 2 / (2 * pulse.sigma ** 2)))) <= bound

    @pytest.mark.parametrize("cycles", [10.001, 150, 1e4])
    def test_spectrum_and_sum_of_squares(self, cycles):
        pulse = PulseSpec(fwhm=cycles / 9.15e9, carrier=9.15e9)
        t = time_grid(pulse, 16, 16)
        n, dt = len(t), _step(pulse, 16)
        samples = np.exp(-t ** 2 / (2 * pulse.sigma ** 2))
        del t
        spectrum, energy = incident_envelope(n, pulse.sigma, dt)
        want = np.fft.rfft(samples)
        live = len(spectrum)
        assert 0 < live < len(want)
        error = max(np.max(np.abs(spectrum - want[:live])),
                    np.max(np.abs(want[live:])))
        assert error <= 1e-13 * np.max(np.abs(want))
        assert energy == pytest.approx(float(np.sum(samples ** 2)), rel=1e-15, abs=0)


class TestPeakSums:
    """``_peak`` on the continuous envelope (``_envelope``) against Newton's
    method at 40 digits on the same band (``exact_peak``), each from its
    own start: the kernel's from half a coarse spacing to either side of
    the peak, the reference's from t = 0, the incident peak.  The
    derivatives weigh the band's offsets from its largest bin, so the peak
    rounds near 1e-25 s rather than at the carrier's 1e-16 of sigma/(omega_0
    sigma)."""

    @pytest.mark.parametrize("d, polarization, channel", [
        (0.0, Polarization.TE, Channel.TRANSMISSION),
        (0.01, Polarization.TE, Channel.TRANSMISSION),  # delay 4.29 ps
        (0.04, Polarization.TM, Channel.REFLECTION),
        (0.4, Polarization.TE, Channel.TRANSMISSION),   # delay ~1e-13 ps
    ])
    def test_against_exact_sums(self, d, polarization, channel):
        s = Scenario(**{**HEADLINE, "d": d}, polarization=polarization)
        n, dt = len(time_grid(PULSE, 16, 16)), _step(PULSE, 16)
        reach = n // 1024 * dt  # the coarse spacing
        lo, omegas, band = _one_sided(PULSE, n, dt)
        filtered = np.multiply(band, np.conj(_fixed_angle(s, channel, omegas)))
        for spectrum in (band, filtered):
            want_time, want_value = exact_peak(
                band_envelope(n, dt, lo, spectrum), 0.0, PULSE.sigma)
            envelope = _envelope(n, dt, spectrum)
            for start in (-reach / 2, reach / 2):
                time = _peak(envelope, float(want_time) + start, reach)
                assert abs(time - want_time) <= 1e-24  # 1e-12 ps
                assert abs(envelope(time)[0]) == pytest.approx(
                    float(want_value), rel=1e-15)

    def test_incident_peak_is_exactly_zero(self):
        # the incident band is real: Re(E* E') is 0.0 at t = 0 term by term
        n, dt = len(time_grid(PULSE, 16, 16)), _step(PULSE, 16)
        lo, _, band = _one_sided(PULSE, n, dt)
        assert _peak(_envelope(n, dt, band), 0.0, n // 1024 * dt) == 0.0


def band_measurement_cases():
    """The headline geometry from 0 to 5 m, TE and TM, then twelve seeded
    random scenarios with gaps up to 1 m and pulses of 100-200 cycles."""
    for polarization in Polarization:
        for d in (0.0, 1e-3, 0.01, 0.04, 0.2, 1.0, 5.0):
            yield Scenario(**{**HEADLINE, "d": d}, polarization=polarization), PULSE
    rng = np.random.default_rng(71)
    for _ in range(12):
        s = replace(random_scenario(rng), d=10 ** rng.uniform(-4, 0))
        yield s, PulseSpec(fwhm=rng.uniform(100, 200) / s.f, carrier=s.f)


class TestBandMeasurement:
    """The report measured on the band (the continuous envelope, its coarse
    samples and Newton's method) against the same band's continuous
    envelope at 40 digits (``continuous_pulse``, polished from the
    report's own values): the peak delay within 1e-12 ps, the width and the
    correlation within 1e-14 and the amplitude within 1e-15, relative."""

    @pytest.mark.parametrize("channel", list(Channel))
    def test_matches_continuous_reference(self, channel):
        for s, pulse in band_measurement_cases():
            if s.d == 0 and channel is Channel.REFLECTION:
                continue
            got = propagate_pulse(s, pulse, channel)[1]
            want = continuous_pulse(s, pulse, channel, near=got)
            assert abs(got.peak_time - want.peak_time) <= 1e-24, s
            assert got.fwhm == pytest.approx(want.fwhm, rel=1e-14, abs=0), s
            assert got.shape_correlation == pytest.approx(
                want.shape_correlation, rel=1e-14, abs=0), s
            assert got.peak_amplitude == pytest.approx(
                want.peak_amplitude, rel=1e-15, abs=0), s

    def test_reference_from_the_incident_pulse(self):
        # the reference's Newton's method from the incident pulse's peak and
        # crossings reaches the roots it polishes from the report's
        for polarization in Polarization:
            s = Scenario(**{**HEADLINE, "d": 0.01}, polarization=polarization)
            got = propagate_pulse(s, PULSE)[1]
            want = continuous_pulse(s, PULSE)
            assert abs(got.peak_time - want.peak_time) <= 1e-24
            assert got.fwhm == pytest.approx(want.fwhm, rel=1e-14, abs=0)


class TestContinuousEnvelope:
    """The report carries no carrier-rate interpolation.  Measured at that
    rate, the width read 16.000000360859698 ns at 0.4 m and at d = 0, the
    peak at 10 mm sat 1.4e-7 ps from the envelope's, and the correlation at
    10 mm read 1 - 1.7e-8, the deficit of a lag 2.54 ps from the peak."""

    def test_width_at_wide_gap(self, headline):
        _, report = propagate_pulse(replace(headline, d=0.4), PULSE)
        assert report.fwhm == pytest.approx(16e-9, rel=1e-14, abs=0)

    # the TM gap reshapes the pulse itself by 1.1e-13 at 10 mm, the TE one
    # by 3.0e-14 (``continuous_pulse`` agrees to 2e-16)
    @pytest.mark.parametrize("polarization, deficit", [
        (Polarization.TE, 1e-13), (Polarization.TM, 2e-13)])
    def test_correlation_at_10mm(self, polarization, deficit):
        s = Scenario(**{**HEADLINE, "d": 0.01}, polarization=polarization)
        assert propagate_pulse(s, PULSE)[1].shape_correlation >= 1 - deficit

    @pytest.mark.parametrize("polarization", list(Polarization))
    def test_unchanged_pulse_at_zero_gap(self, polarization):
        s = Scenario(**{**HEADLINE, "d": 0.0}, polarization=polarization)
        _, report = propagate_pulse(s, PULSE)
        assert report.peak_time == 0.0
        assert report.peak_amplitude == 1.0
        assert report.shape_correlation == 1.0
        assert report.fwhm == pytest.approx(16e-9, rel=1e-14, abs=0)

    @pytest.mark.parametrize("fwhm", [16e-9, 160e-9, 1e-6])
    def test_width_at_zero_gap_to_the_ulp(self, fwhm):
        # the band's omega - omega_0 from integer bin offsets: from rounded
        # bin frequencies, the width was 1.6e-15, 3.8e-15 and 3.9e-14
        # relative off on 65 536, 2^19 and 2^22 samples
        s = Scenario(**{**HEADLINE, "d": 0.0})
        report = propagate_pulse(s, PulseSpec(fwhm=fwhm, carrier=PULSE.carrier))[1]
        assert abs(report.fwhm / fwhm - 1) <= 2.0 ** -51

    @pytest.mark.parametrize("slope", [
        lambda t: (1.0, 0.0),           # a zero derivative
        lambda t: (math.nan, 1.0),      # a NaN
        lambda t: (1.0, 1e-3),          # a step past the reach
        lambda t: (1.0, 2.0),           # steps that never settle
    ])
    def test_newton_is_bounded(self, slope):
        with pytest.raises(GridGuardError, match="did not converge"):
            _newton(slope, 0.0, 1.0, "root")

    def test_unconverged_newton_exits_2(self, monkeypatch, capsys):
        from evanesce import cli

        monkeypatch.setattr(wavesynth, "_NEWTON_STEPS", 1)
        assert cli.main(["pulse"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: no envelope peak found: Newton's method "
                              "did not converge in 1 steps")
        assert err.count("\n") == 1


def equivalence_cases(polarization, fwhm_cycles):
    """The headline pulse, then five random tunneling scenarios with a
    pulse of fwhm_cycles carrier cycles."""
    yield Scenario(**HEADLINE, polarization=polarization), PULSE
    rng = np.random.default_rng(53)
    for _ in range(5):
        s = random_scenario(rng, polarization=polarization)
        yield s, PulseSpec(fwhm=fwhm_cycles / s.f, carrier=s.f)


class TestReferenceEquivalence:
    """The one-sided real FFT with one closed-form coefficient reproduces
    the full-spectrum pipeline of ``spectral_reference`` to round-off.

    Both pipelines round at the scale of the incident signal's transform,
    so each bound adds 1e-15 of the incident peak: in the thicker random
    gaps |t| is ~1e-6 and that round-off is up to ~5e-12 of the
    transmitted peak.
    """

    @pytest.mark.parametrize("channel", list(Channel))
    @pytest.mark.parametrize("polarization", list(Polarization))
    def test_propagated_series(self, polarization, channel):
        for s, pulse in equivalence_cases(polarization, 150):
            series, _ = propagate_pulse(s, pulse, channel)
            t = series.t_samples
            x = sample_pulse(pulse, t)
            dt = 1 / (16 * pulse.carrier)  # the step time_grid multiplies by
            want = apply_channel(x, dt, s, channel,
                                 spectrum=gaussian_spectrum(pulse, len(t), dt))
            assert np.max(np.abs(series.values - want)) \
                <= 1e-13 * np.max(np.abs(want)) + 1e-15 * np.max(np.abs(x))

    @pytest.mark.parametrize("polarization", list(Polarization))
    def test_front_causality_leakage(self, polarization):
        # the check is the full-grid damped route's ratio, and that route's
        # field is the undamped synthesis on a window 4x longer, over the
        # measured span (1 fwhm before the front to 4 fwhm after the peak).
        # The difference, damped again by e^{-gamma (t - t_0)} (undamping
        # multiplies the route's round-off by it), is the longer window's
        # own floor: 6e-17 to 8e-13 of the input's peak, the most at 40 mm,
        # where the longer window's wrap is 8e-13 before the front.  Fronts
        # of 9.4 carrier periods (fwhm/16 of 150 cycles), as in the CLI's
        # default pulse: those of 2.5 periods leave an aliasing floor of
        # 3e-9 at 16 samples per period
        for s, pulse in equivalence_cases(polarization, 150):
            front = replace(pulse, front_time=-3 * pulse.sigma)
            for dt_factor in (16, 32):
                first, n, dt, damping = wavesynth._front_window(s, front,
                                                                dt_factor)
                _, field, leak = damped_synthesis(s, front, dt_factor)
                assert front_causality_check(s, front, dt_factor) == leak
                t = (np.arange(4 * n) + first) * dt
                want = apply_channel(sample_pulse(front, t), dt, s,
                                     fixed_kx=True)[:n]
                span = t[:n] < 4 * front.fwhm
                error = np.abs(field - want)[span] / np.exp(
                    (damping / n) * np.arange(n)[span])
                assert error.max() <= 2e-12, (s, dt_factor)

    @pytest.mark.parametrize("polarization", list(Polarization))
    def test_differential_delay_is_minus_gapped_peak(self, polarization):
        for s, pulse in equivalence_cases(polarization, 150):
            _, gapped = propagate_pulse(s, pulse)
            assert differential_delay(s, pulse) == -gapped.peak_time
            # the closed-prism peak the subtraction leaves out is exactly 0
            _, closed = propagate_pulse(replace(s, d=0.0), pulse)
            assert closed.peak_time == 0.0

    def test_smooth_step_bitwise(self):
        def ramp(x):
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                a = np.where(x > 0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)
                b = np.where(x < 1, np.exp(-1.0 / np.maximum(1.0 - x, 1e-300)),
                             0.0)
            return a / (a + b)

        x = np.concatenate([
            np.linspace(-0.5, 1.5, 20001),
            [0.0, -0.0, 1.0, 1e-300, 5e-324, 1e-310, 2e-300, 1e-3, 0.999,
             1 - 2.0 ** -53, 1 - 2.0 ** -52, 1 + 2.0 ** -52, -1e300, 1e300],
        ])
        got, want = _smooth_step(x), ramp(x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def counted_transforms(monkeypatch):
    """The numpy FFT calls made from here on, as (name, transform length);
    the length of an ``irfft`` is its real output's."""
    calls = []
    for name in ("fft", "rfft", "ifft", "irfft"):
        real = getattr(np.fft, name)

        def counted(a, n=None, *args, _name=name, _real=real, **kwargs):
            calls.append((_name, len(a) if n is None else n))
            return _real(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


class TestSavedWork:
    """Counts of the transforms and propagations the outputs need."""

    def test_front_causality_transforms(self, headline, monkeypatch):
        calls = counted_transforms(monkeypatch)
        pulse = front_pulse()
        n = wavesynth._front_window(headline, pulse, 16)[1]
        front_causality_check(headline, pulse)
        forward = [c for c in calls if c[0] in ("fft", "rfft")]
        inverse = [c for c in calls if c[0] in ("ifft", "irfft")]
        assert forward == [("rfft", n)]
        assert inverse == [("irfft", n)]

    def test_pulse_transforms(self, headline, monkeypatch):
        # the report is measured on the band: one inverse FFT of m = 1024
        # samples, the power of two above its 573 bins.  The series is
        # synthesized, once, when it is read, by one length-n inverse FFT,
        # bit for bit the full-grid synthesis
        want = {channel: carrier_rate_series(headline, PULSE, channel)
                for channel in Channel}
        calls = counted_transforms(monkeypatch)
        spectra = []
        real = wavesynth._one_sided

        def counted(*args):
            spectra.append(args)
            return real(*args)

        monkeypatch.setattr(wavesynth, "_one_sided", counted)
        n, m = len(time_grid(PULSE, 16, 16)), 1024
        for channel in Channel:
            calls.clear()
            spectra.clear()
            series, _ = propagate_pulse(headline, PULSE, channel)
            assert calls == [("ifft", m)]
            assert len(spectra) == 1
            values = series.values
            assert series.values is values
            assert calls == [("ifft", m), ("ifft", n)]
            assert values.tobytes() == want[channel].tobytes()
        calls.clear()
        spectra.clear()
        differential_delay(headline, PULSE)
        assert calls == [("ifft", m)]
        assert len(spectra) == 1

    def test_coefficient_only_on_the_band(self, headline, monkeypatch):
        # the headline pulse's spectrum is nonzero on 573 of 32 767 bins
        sizes = []
        real = scattering._transfer

        def counted(scenario, omega, *args):
            sizes.append(np.size(omega))
            return real(scenario, omega, *args)

        monkeypatch.setattr(scattering, "_transfer", counted)
        for channel in Channel:
            sizes.clear()
            propagate_pulse(headline, PULSE, channel)
            assert 0 < sum(sizes) <= 600

    def test_differential_delay_propagates_once(self, headline, monkeypatch):
        calls = []
        real = wavesynth._propagated

        def counted(*args, **kwargs):
            calls.append(args[0].d)
            return real(*args, **kwargs)

        monkeypatch.setattr(wavesynth, "_propagated", counted)
        differential_delay(headline, PULSE)
        assert calls == [headline.d]

    def test_differential_delay_builds_no_report(self, headline, monkeypatch):
        # only the peak times are used: no half-maximum crossings, no
        # correlation lag, and no carrier-rate grid
        want = 0.0 - propagate_pulse(headline, PULSE)[1].peak_time

        def unused(*args, **kwargs):
            raise AssertionError("differential_delay measured more than peaks")

        monkeypatch.setattr(wavesynth, "_fwhm", unused)
        monkeypatch.setattr(wavesynth, "_shape_correlation", unused)
        monkeypatch.setattr(wavesynth, "time_grid", unused)
        assert differential_delay(headline, PULSE) == want


def full_grid_pulse(pulse, t):
    """The pulse formula evaluated on every grid point."""
    env = np.exp(-t ** 2 / (2 * pulse.sigma ** 2))
    if pulse.front_time is not None:
        env = env * _smooth_step((t - pulse.front_time) / pulse.rise)
    return env * np.cos(2 * math.pi * pulse.carrier * t)


def damped_roots_fixed_kx(scenario, omegas, gamma):
    """The fixed-k_x transmission at omegas + i gamma, with alpha and beta
    the complex roots, by ``np.sqrt``, of the carrier's squares moved by
    ((omega + i gamma)^2 - omega_0^2)/c^2, whose real and imaginary parts
    are formed apart so that the imaginary one is 2 omega gamma >= 0.  It
    is taken in chunks of 8191 bins: numpy reuses the temporaries of arrays
    of 256 KiB and more, and may swap a complex product's operands then,
    which moves last bits."""
    wv, c2 = wavevectors(scenario), scenario.c * scenario.c
    chunks = []
    for start in range(0, len(omegas), 8191):
        w = omegas[start:start + 8191]
        shift = (((w - scenario.omega) * (w + scenario.omega) - gamma * gamma)
                 / c2 + 1j * ((2 * gamma / c2) * w))
        chunks.append(_coefficient(
            scenario, np.sqrt(wv.k_z_prism * wv.k_z_prism
                              + scenario.n ** 2 * shift),
            np.sqrt(wv.k_z_gap_sq + shift), Channel.TRANSMISSION))
    return np.concatenate(chunks)


def damped_synthesis(scenario, pulse, dt_factor):
    """``front_causality_check`` by the full-grid route: the window's times
    (first + i) dt, the pulse sampled on them and damped by
    e^{-gamma dt i}, its ``rfft`` on every bin, the coefficient at
    omega + i gamma from ``damped_roots_fixed_kx``,
    ``np.multiply(band, np.conj(coef))``, one ``irfft`` and the undamping
    e^{gamma dt i}.  Returns (t, field, leakage): the largest |field|
    before the vacuum arrival over the largest in the window's first
    half."""
    first, n, dt, damping = wavesynth._front_window(scenario, pulse, dt_factor)
    i = np.arange(n)
    t = (i + first) * dt
    rate = damping / n
    omegas = 2 * math.pi * np.fft.rfftfreq(n, dt)
    # np.multiply: ``a * np.conj(b)`` may reuse the temporary and swap the
    # operands
    spectrum = np.multiply(
        np.fft.rfft(sample_pulse(pulse, t) * np.exp(-rate * i)),
        np.conj(damped_roots_fixed_kx(scenario, omegas, damping / (n * dt))))
    field = np.fft.irfft(spectrum, n) * np.exp(rate * i)
    size = np.abs(field[:n // 2])
    k = np.searchsorted(t, pulse.front_time + scenario.d / scenario.c)
    return t, field, float(size[:k].max() / size.max())


class TestBlockedSynthesis:
    """Cache-sized blocks and live-span sampling keep every output bit."""

    @pytest.mark.parametrize("bins", [2047, 8 * _BLOCK, 32767, 131071, 262143])
    @pytest.mark.parametrize("polarization", list(Polarization))
    def test_coefficient_block_invariant(self, bins, polarization, monkeypatch):
        # a front pulse's band is every bin: n // 2 + 1 of them.  The grid
        # size is forced, on the coarsest step, whose window of 4092
        # samples holds a front 2 sigma ahead of the peak: a band that is a
        # whole number of blocks (an odd n), one that ends a bin short, one
        # shorter than a block, and samples staged to the buffer's last
        # float where the window cuts the pulse
        s = Scenario(**HEADLINE, polarization=polarization)
        n = 2 * bins - 1 if bins == 8 * _BLOCK else 2 * bins - 2
        monkeypatch.setattr(wavesynth, "_grid_size", lambda *args: n)
        assert len(np.fft.rfftfreq(n)) == bins
        pulse = front_pulse(2.0)
        assert front_causality_check(s, pulse, 8) \
            == damped_synthesis(s, pulse, 8)[-1]

    @pytest.mark.parametrize("polarization", list(Polarization))
    def test_filtered_matches_unblocked_product(self, polarization):
        # the synthesis grids: the plain pulse's closed-form band, filtered
        # at the fixed angle in one pass, and the front pulse's full band,
        # filtered at fixed k_x on the damped contour block by block
        s = Scenario(**HEADLINE, polarization=polarization)
        n, dt = len(time_grid(PULSE, 16, 16)), _step(PULSE, 16)
        _, omegas, band = _one_sided(PULSE, n, dt)
        wv = wavevectors(s)
        alpha0, beta0 = wv.k_z_prism, cmath.sqrt(wv.k_z_gap_sq)
        scale = omegas / s.omega
        for channel in Channel:
            coef = _coefficient(s, alpha0 * scale, beta0 * scale, channel, beta0)
            want = np.multiply(band, np.conj(coef))
            got = wavesynth._propagated(s, PULSE, channel)[1]
            assert got.tobytes() == want.tobytes(), channel
        for dt_factor in (16, 32):
            assert front_causality_check(s, front_pulse(), dt_factor) \
                == damped_synthesis(s, front_pulse(), dt_factor)[-1]

    @pytest.mark.parametrize("dt_factor, span_factor",
                             [(16, 16), (16, 64), (32, 64)])
    def test_live_span_sampling(self, dt_factor, span_factor):
        for pulse in (PULSE, front_pulse(), front_pulse(rise=1e-9)):
            t = time_grid(pulse, dt_factor, span_factor)
            got = sample_pulse(pulse, t)
            assert got.dtype == t.dtype and got.shape == t.shape
            assert np.array_equal(got, full_grid_pulse(pulse, t))

    def test_front_outside_the_support(self):
        t = time_grid(PULSE, 16, 64)
        early = replace(front_pulse(), front_time=2 * t[0])
        assert np.array_equal(sample_pulse(early, t), full_grid_pulse(early, t))
        late = replace(front_pulse(), front_time=40 * PULSE.sigma)
        got = sample_pulse(late, t)
        assert not got.any()
        assert np.array_equal(got, full_grid_pulse(late, t))

    def test_gaussian_underflow_edge(self):
        sigma = PULSE.sigma
        edge = np.concatenate([
            np.linspace(38.5, 38.8, 3001) * sigma,
            [38.61 * sigma, 38.7 * sigma, np.nextafter(38.7 * sigma, 0.0),
             np.nextafter(38.7 * sigma, np.inf)],
        ])
        t = np.sort(np.concatenate([-edge, edge]))
        for pulse in (PULSE, replace(front_pulse(), front_time=-38.65 * sigma)):
            want = full_grid_pulse(pulse, t)
            assert np.count_nonzero(want) > 0  # the edge holds subnormals
            assert np.array_equal(sample_pulse(pulse, t), want)

    @pytest.mark.parametrize("dt_factor", [16, 32])
    def test_front_causality_peak_allocation(self, dt_factor):
        # one complex sample costs 16 bytes.  On the 64-fwhm window of 2^18
        # samples (2^19 at dt_factor 32) the unblocked synthesis with
        # full-grid sampling peaked at 7.0x that, and with the grid, the
        # bin frequencies, the band and the coefficient held beside the
        # buffer through the inverse transform at 2.76x.  With the
        # coefficient multiplied into the buffer block by block, the peak
        # was the buffer, the band and the bin frequencies: 1.75x.  With the
        # samples staged in the buffer and no grid, band or bin-frequency
        # array, it was the buffer of n + 1 bins and one block's
        # temporaries: 1.19x at 2^18 samples, 1.09x at 2^19.  The damped
        # window holds 2^15 (2^16) samples at 40 mm, under the same bytes,
        # and is one buffer and a block's temporaries at any gap: 1.09x and
        # 1.05x at 250 m, on 2^19 and 2^20 samples.
        pulse = front_pulse()
        old_n = {16: 1 << 18, 32: 1 << 19}[dt_factor]
        for polarization, d in itertools.product(Polarization, (0.04, 250.0)):
            s = Scenario(**{**HEADLINE, "d": d}, polarization=polarization)
            n = wavesynth._front_window(s, pulse, dt_factor)[1]
            tracemalloc.start()
            try:
                front_causality_check(s, pulse, dt_factor)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.25 * 16 * (old_n if d == 0.04 else n), \
                (polarization, d)


class TestBelowCritical:
    """The synthesis functions also run below the critical angle, where the
    gap wave propagates and beta_0 is real.  Reference values (n = 1.6,
    30 deg, 40 mm, 16 ns pulse, 20-wavelength beam): the beam shift from
    the earlier design, which formed each beta from its own square root,
    and the pulse report as measured on the continuous envelope, each value
    within 2.3e-16 of ``continuous_pulse``.  The front leakage, 1.0e-9
    (TE) and 5.9e-10 (TM) on the periodic 64-fwhm window, is the damped
    route's (``damped_synthesis``), at the transforms' round-off: 4.0e-16
    and 2.9e-16.  A real beta_0 taken as i kappa_0 = 0 gave a NaN leakage
    and gives a TE beam shift of 0.0318 cm."""

    WANT = {
        # (leakage bound, {channel: (peak_time, fwhm, peak_amplitude,
        #                            shape_correlation, beam centroid shift)})
        Polarization.TE: (1e-15, {
            Channel.TRANSMISSION: (5.869465746610329e-11, 1.5999742416483246e-08,
                                   0.7314803654068843, 0.9999999999352008,
                                   0.038716987367670846),
            Channel.REFLECTION: (5.86946085171733e-11, 1.6000304122125355e-08,
                                 0.6818623408819926, 0.9999999999096894,
                                 0.038730453504522436)}),
        Polarization.TM: (1e-15, {
            Channel.TRANSMISSION: (7.958809138095715e-11, 1.5999994303565844e-08,
                                   0.9947840202850601, 0.9999999999999684,
                                   0.053202667809510856),
            Channel.REFLECTION: (7.958808989602215e-11, 1.6000556000170346e-08,
                                 0.10200364578472638, 0.9999999996981369,
                                 0.052736753722461685)}),
    }

    @pytest.mark.parametrize("polarization", list(Polarization))
    def test_matches_reference_values(self, polarization):
        s = Scenario(n=1.6, f=9.15e9, theta=math.radians(30), d=0.04,
                     polarization=polarization)
        assert not s.is_tunneling
        bound, by_channel = self.WANT[polarization]
        # the leakage is the synthesis' round-off, so it is held to the
        # route that repeats its arithmetic, and below a bound
        leakage = front_causality_check(s, front_pulse())
        assert leakage == damped_synthesis(s, front_pulse(), 16)[-1]
        assert leakage < bound
        beam = BeamSpec(waist=20 * vacuum_wavelength(s.f))
        for channel, (peak, fwhm, amplitude, shape, shift) in by_channel.items():
            _, report = propagate_pulse(s, PULSE, channel)
            # the peak is measured to 1e-24 s
            assert report.peak_time == pytest.approx(peak, abs=1e-24)
            assert (report.fwhm, report.peak_amplitude, report.shape_correlation) \
                == pytest.approx((fwhm, amplitude, shape), rel=1e-12)
            assert beam_centroid_shift(s, beam, channel).centroid_shift \
                == pytest.approx(shift, rel=1e-12)

    # delays past the coarse spacing that bounds each Newton step: 640 and
    # 797 ps against 437 ps for the 16 ns pulse at 0.4 m, 59 and 80 ps
    # against 55 ps for a 2 ns pulse at 40 mm.  The incident peak, at
    # t = 0, is searched for from there, not from the output's start
    @pytest.mark.parametrize("d, fwhm", [(0.4, 16e-9), (0.04, 2e-9)])
    @pytest.mark.parametrize("polarization", list(Polarization))
    def test_delay_past_the_coarse_spacing(self, d, fwhm, polarization):
        s = Scenario(n=1.6, f=9.15e9, theta=math.radians(30), d=d,
                     polarization=polarization)
        pulse = PulseSpec(fwhm=fwhm, carrier=PULSE.carrier)
        for channel in Channel:
            got = propagate_pulse(s, pulse, channel)[1]
            want = continuous_pulse(s, pulse, channel)
            assert got.peak_time > 50e-12
            assert abs(got.peak_time - want.peak_time) <= 1e-24
            assert got.fwhm == pytest.approx(want.fwhm, rel=1e-14, abs=0)
            assert got.shape_correlation == pytest.approx(
                want.shape_correlation, rel=1e-14, abs=0)
            assert got.peak_amplitude == pytest.approx(
                want.peak_amplitude, rel=1e-15, abs=0)
            if channel is Channel.TRANSMISSION:
                assert differential_delay(s, pulse) == -got.peak_time


class TestQuasiStatic:
    def test_headline_ratio(self, headline):
        assert quasi_static_ratio(headline, PULSE) == pytest.approx(120.0, rel=1e-9)
        assert quasi_static_ratio(headline, PULSE) > 10

    def test_zero_gap(self, headline):
        assert quasi_static_ratio(replace(headline, d=0.0), PULSE) == math.inf


class TestBeam:
    def test_matches_phase_derivative_both_channels(self, headline):
        lam = vacuum_wavelength(headline.f)
        beam = BeamSpec(waist=20 * lam)
        for channel in (Channel.TRANSMISSION, Channel.REFLECTION):
            profile = beam_centroid_shift(headline, beam, channel)
            oracle = goos_hanchen_shift(headline, channel)
            assert profile.centroid_shift == pytest.approx(oracle, rel=0.02)

    def test_zero_gap_zero_shift(self, headline):
        lam = vacuum_wavelength(headline.f)
        profile = beam_centroid_shift(replace(headline, d=0.0),
                                      BeamSpec(waist=20 * lam))
        assert profile.centroid_shift == 0.0

    def test_centroid_consistency(self, headline):
        # the spectral first moment against the centroid sum(x I)/sum(I) of
        # the returned profile, which does not call the shift kernel, where
        # the 32-waist window resolves the output beam
        for polarization, waist_lam, d, channel in itertools.product(
                Polarization, (20, 100, 1000), (0.04, 0.1, 0.5), Channel):
            s = replace(headline, d=d, polarization=polarization)
            profile = beam_centroid_shift(
                s, BeamSpec(waist=waist_lam * vacuum_wavelength(s.f)), channel)
            assert np.all(profile.intensity >= 0) and window_resolves(profile)
            assert profile.centroid_shift == pytest.approx(
                spatial_centroid(profile), rel=1e-12), (
                    polarization, waist_lam, d, channel)

    @pytest.mark.parametrize("polarization", list(Polarization))
    def test_wide_gap_matches_weighted_gh_shift(self, headline, polarization):
        # At 500 mm the transmitted spectrum is ~e^{-50} of the input, far
        # below the round-off of an FFT of the sampled input, so only an
        # exact input spectrum gives the centroid: the |S t|^2-weighted mean
        # of the plane-wave GH shifts over the grid's evanescent k_x.
        s = replace(headline, d=0.5, polarization=polarization)
        waist = 20 * vacuum_wavelength(s.f)
        n_points, length = 4096, 32 * waist
        k0 = s.omega / s.c
        kx = wavevectors(s).k_x + 2 * math.pi * np.fft.fftfreq(
            n_points, length / n_points)
        kx = kx[(kx > k0) & (kx < s.n * k0)]
        weight = (np.exp(-(kx - wavevectors(s).k_x) ** 2 * waist ** 2 / 2)
                  * np.abs(scatter(s, s.omega, kx).t) ** 2)
        shifts = np.array([
            goos_hanchen_shift(replace(s, theta=math.asin(k / (s.n * k0))))
            for k in kx])
        oracle = float(np.sum(weight * shifts) / np.sum(weight))
        profile = beam_centroid_shift(s, BeamSpec(waist=waist))
        assert profile.centroid_shift == pytest.approx(oracle, rel=1e-9)

    def test_fixed_grid(self, headline):
        waist = 20 * vacuum_wavelength(headline.f)
        profile = beam_centroid_shift(headline, BeamSpec(waist=waist))
        assert len(profile.x_samples) == len(profile.intensity) == 4096
        assert profile.x_samples[-1] - profile.x_samples[0] \
            == pytest.approx(32 * waist * 4095 / 4096, rel=1e-12)

    def test_reflection_degenerate_at_zero_gap(self, headline):
        # reflection vanishes at d = 0: the centroid would be 0/0 (NaN)
        beam = BeamSpec(waist=20 * vacuum_wavelength(headline.f))
        with pytest.raises(DegenerateChannelError):
            beam_centroid_shift(replace(headline, d=0.0), beam,
                                Channel.REFLECTION)

    @pytest.mark.parametrize("polarization", list(Polarization))
    def test_profile_matches_scatter_route(self, polarization, monkeypatch):
        # the profile from the one coefficient routine against the one the
        # public scatter's t and r give on the same launchable k_x (its
        # accuracy against mpmath is checked in test_grazing.py), and the
        # shift against that profile's spatial centroid
        def via_scatter(scenario, omega, k_x, channel):
            res = scatter(scenario, omega, k_x)
            return res.t if channel is Channel.TRANSMISSION else res.r

        rng = np.random.default_rng(23)
        headline = Scenario(**HEADLINE, polarization=polarization)
        cases = [headline, replace(headline, d=0.5)]
        for _ in range(20):
            n = rng.uniform(1.3, 2.5)
            theta = rng.uniform(math.asin(1 / n) + 0.03, math.radians(80))
            cases.append(Scenario(n=n, f=rng.uniform(1e9, 40e9), theta=theta,
                                  d=10 ** rng.uniform(-4, -0.5),
                                  polarization=polarization))
        resolved = 0
        for s in cases:
            beam = BeamSpec(waist=rng.uniform(10, 40) * vacuum_wavelength(s.f))
            for channel in Channel:
                got = beam_centroid_shift(s, beam, channel)
                with monkeypatch.context() as m:
                    # scatter takes (omega, k_x) where _coefficient takes
                    # the normal wavenumbers formed from them; the shift
                    # kernel, which needs the wavenumbers, is left out
                    m.setattr(wavesynth, "_normal_wavenumbers",
                              lambda scenario, omega, k_x: (
                                  np.full_like(k_x, omega), k_x))
                    m.setattr(wavesynth, "_coefficient", via_scatter)
                    m.setattr(wavesynth, "_shift",
                              lambda scenario, alpha, beta, k_x, d: 0 * k_x)
                    want = beam_centroid_shift(s, beam, channel)
                assert np.array_equal(got.x_samples, want.x_samples)
                assert np.max(np.abs(got.intensity - want.intensity)) \
                    <= 1e-14 * np.max(want.intensity)
                if window_resolves(want):
                    resolved += 1
                    assert got.centroid_shift == pytest.approx(
                        spatial_centroid(want), rel=1e-12)
        # one draw's spectrum reaches the prism cutoff with weight; both
        # of its channels ring out to the window's edges
        assert resolved == 2 * len(cases) - 2

    @pytest.mark.parametrize("scenario, channel", [
        (Scenario(**{**HEADLINE, "d": 1e-303}), Channel.REFLECTION),
        (Scenario(n=1.39, f=6.13e9, theta=math.radians(66.3), d=149.688,
                  polarization="TM"), Channel.TRANSMISSION),
    ])
    def test_underflowed_intensity_rejected(self, scenario, channel):
        # the intensity is 0.0 at every sample: the centroid was 0/0 (NaN)
        waist = 45.6 * vacuum_wavelength(scenario.f)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridGuardError, match=f"the {channel.value} "
                               "intensity underflows to 0.0"):
                beam_centroid_shift(scenario, BeamSpec(waist=waist), channel)

    def test_waist_guard(self, headline):
        lam = vacuum_wavelength(headline.f)
        with pytest.raises(GridGuardError):
            beam_centroid_shift(headline, BeamSpec(waist=4 * lam))

    def test_prism_evanescent_weight_guard(self):
        # near-grazing carrier with a tight waist spills spectral weight
        # past the prism's propagation cone
        s = Scenario(n=1.6, f=9.15e9, theta=math.radians(86), d=0.02)
        lam = vacuum_wavelength(s.f)
        with pytest.raises(GridGuardError):
            beam_centroid_shift(s, BeamSpec(waist=5.1 * lam))
