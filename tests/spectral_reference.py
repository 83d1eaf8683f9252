"""Full-spectrum reference pipeline for the spectral synthesis tests.

A complex FFT of the real samples (or, for a plain Gaussian pulse, its
closed-form DFT on every bin), the channel coefficient on the
positive-frequency bins, and an inverse FFT per analytic signal.  The
coefficient comes from the public ``scatter``, or for the fixed-k_x drive,
whose k_x lies past the prism cone that ``scatter`` admits, from
``_transfer`` as t = alpha_hat e^{i beta d}/den and r = r_num/den.
``evanesce.wavesynth`` does the same filtering on the band of bins where
the spectrum is nonzero, with one closed-form coefficient; the tests
compare the two.

``carrier_rate_series`` is the propagated series synthesized at the
carrier rate, the filtered band's length-n inverse FFT, against which the
lazily synthesized ``TimeSeries`` is checked.  ``continuous_pulse`` is the
pulse report measured on the continuous envelope of the same band at 40
digits (mpmath): Newton's method on E, E' and E'' for the peak and the
half-maximum crossings, and the continuous-lag maximum of the coarse
Riemann sum for the shape correlation.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp
import numpy as np
from scipy.optimize import minimize_scalar

from evanesce import (
    Channel, PulseReport, PulseSpec, Scenario, scatter, wavevectors,
)
from evanesce.scattering import _normal_wavenumbers, _transfer
from evanesce.wavesynth import (
    _DT_FACTOR, _PULSE_SPAN, _fixed_angle, _one_sided, _step, time_grid,
)


def gaussian_spectrum(pulse: PulseSpec, n: int, dt: float) -> np.ndarray:
    """Closed-form DFT, on all n ``fftfreq`` bins, of the plain pulse sampled
    at (j - n/2) dt, j = 0 .. n - 1, for even n.

    Poisson summation turns the sum over samples into the continuous
    transform sigma sqrt(2 pi)/2 [G(w - w0) + G(w + w0)] over dt, with
    G(u) = exp(-u^2 sigma^2/2); its aliases and the truncation to n samples
    are far below double precision on the synthesis grids, and the origin
    at sample n/2 contributes e^{-i pi k} = (-1)^k.
    """
    if pulse.front_time is not None or n % 2:
        raise ValueError("closed form only for a plain pulse on an even grid")
    omegas = 2 * math.pi * np.fft.fftfreq(n, dt)
    w0, sigma = 2 * math.pi * pulse.carrier, pulse.sigma
    gauss = (np.exp(-0.5 * (sigma * (omegas - w0)) ** 2)
             + np.exp(-0.5 * (sigma * (omegas + w0)) ** 2))
    sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return sigma * math.sqrt(2 * math.pi) / (2 * dt) * gauss * sign


def filtered_analytic(values: np.ndarray, dt: float, scenario: Scenario,
                      channel: Channel = Channel.TRANSMISSION,
                      fixed_kx: bool = False,
                      spectrum: np.ndarray | None = None):
    """One-sided spectra in and out; returns (analytic_in, analytic_out).

    ``spectrum``, when given, is the DFT of ``values`` in place of their FFT
    (see ``gaussian_spectrum``).
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    if spectrum is None:
        spectrum = np.fft.fft(values)
    omegas = 2 * math.pi * np.fft.fftfreq(n, dt)
    pos = omegas > 0
    one_sided = np.where(pos, 2.0 * spectrum, 0.0)
    if fixed_kx:
        alpha, beta = _normal_wavenumbers(scenario, omegas[pos],
                                          wavevectors(scenario).k_x)
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha_hat, den, r_num = _transfer(scenario, alpha, beta)
            t = alpha_hat * np.exp(1j * beta * scenario.d) / den
            r = r_num / den
    else:
        slope = scenario.n * math.sin(scenario.theta) / scenario.c
        res = scatter(scenario, omegas[pos], slope * omegas[pos])
        t, r = res.t, res.r
    coef = np.ones(n, dtype=complex)
    # conjugate: physical coefficients are defined for e^{-i omega t}
    coef[pos] = np.conj(t if channel is Channel.TRANSMISSION else r)
    return np.fft.ifft(one_sided), np.fft.ifft(one_sided * coef)


def apply_channel(values: np.ndarray, dt: float, scenario: Scenario,
                  channel: Channel = Channel.TRANSMISSION,
                  fixed_kx: bool = False,
                  spectrum: np.ndarray | None = None) -> np.ndarray:
    """Filter real field samples through the channel; returns real samples."""
    _, out = filtered_analytic(values, dt, scenario, channel, fixed_kx,
                               spectrum)
    return out.real


def analytic_envelope(values: np.ndarray) -> np.ndarray:
    """Envelope |analytic signal| from the one-sided spectrum."""
    n = len(values)
    spectrum = np.fft.fft(np.asarray(values, dtype=float))
    pos = np.fft.fftfreq(n, 1.0) > 0
    return np.abs(np.fft.ifft(np.where(pos, 2.0 * spectrum, 0.0)))


def incident_envelope(n: int, sigma: float, dt: float):
    """The ``rfft`` of the incident envelope e^{-t^2/2 sigma^2} sampled at
    t = (j - n/2) dt, on the bins where it is nonzero, and its sum of
    squares.

    Both are closed forms, by Poisson summation as in ``_one_sided``:
    (sigma sqrt(2 pi)/dt) e^{-(omega sigma)^2/2} (-1)^k on the bins with
    omega sigma <= 38.7, past which it underflows to 0.0, and
    sigma sqrt(pi)/dt.
    """
    live = min(n // 2 + 1, math.floor(38.7 * n * dt / (2 * math.pi * sigma)) + 1)
    omegas = 2 * math.pi * np.fft.rfftfreq(n, dt)[:live]
    spectrum = (sigma * math.sqrt(2 * math.pi) / dt
                * np.exp(-(omegas * sigma) ** 2 / 2))
    spectrum[1::2] *= -1.0
    return spectrum, sigma * math.sqrt(math.pi) / dt


def carrier_rate_series(scenario: Scenario, pulse: PulseSpec,
                        channel: Channel = Channel.TRANSMISSION) -> np.ndarray:
    """The real series of ``propagate_pulse`` synthesized at the carrier
    rate: the filtered band in a zeroed length-n buffer, one inverse FFT,
    and the carrier's gap factor applied."""
    t = time_grid(pulse, _DT_FACTOR, _PULSE_SPAN)
    lo, omegas, band = _one_sided(pulse, len(t), _step(pulse, _DT_FACTOR))
    filtered = np.multiply(band, np.conj(_fixed_angle(scenario, channel, omegas)))
    spectrum = np.zeros(len(t), dtype=complex)
    spectrum[lo:lo + len(band)] = filtered
    analytic = np.fft.ifft(spectrum, out=spectrum)
    return (analytic * _carrier(scenario, channel).conjugate()).real


def _carrier(scenario: Scenario, channel: Channel) -> complex:
    """The carrier's gap factor e^{i beta_0 d} of transmission, 1 for
    reflection."""
    if channel is Channel.REFLECTION:
        return 1.0
    return cmath.exp(1j * cmath.sqrt(wavevectors(scenario).k_z_gap_sq)
                     * scenario.d)


_DIGITS = 40


def band_envelope(n: int, dt: float, lo: int, band: np.ndarray):
    """(E, E', E'') at 40 digits, at any mpf t, of the continuous envelope,
    times n, of the length-n analytic signal whose spectrum is ``band`` on
    bins lo, lo + 1, ...: E(t) = sum_k band_k (-1)^k e^{i omega_k t}, with
    omega_k = 2 pi k/(n dt) exact, up to a phase common to the three.

    The sums run over the bins from the first to the last whose term
    reaches 2^-110 of the largest, as band_k (-1)^k z^(k - k0), with
    z = e^{2 pi i t/(n dt)} and its powers formed by multiplication.  The
    bins left out, fewer than 2^10 terms below 2^-110 of the largest, move
    E'' by under 1e-27 of its scale, far below double precision.
    """
    size = np.abs(band)
    (kept,) = np.nonzero(size >= size.max() * 2.0 ** -110)
    first, last = int(kept[0]), int(kept[-1]) + 1
    with mp.workdps(_DIGITS):
        step = 2 * mp.pi / (n * mp.mpf(dt))
        terms = [mp.mpc(complex(value)) * (-1) ** (lo + first + i)
                 for i, value in enumerate(band[first:last])]
        firsts = [i * term for i, term in enumerate(terms)]
        seconds = [i * term for i, term in enumerate(firsts)]

    def at(t):
        with mp.workdps(_DIGITS):
            z = mp.expj(step * t)
            powers = [mp.mpc(1)]
            for _ in terms[1:]:
                powers.append(powers[-1] * z)
            return (mp.fdot(terms, powers), 1j * step * mp.fdot(firsts, powers),
                    -step ** 2 * mp.fdot(seconds, powers))

    return at


def _newton(slope, t, scale):
    """The root near t, at 40 digits, of the function whose value and
    derivative ``slope`` gives: Newton's method until a step is below
    1e-28 of ``scale``."""
    with mp.workdps(_DIGITS):
        t = mp.mpf(t)
        for _ in range(20):
            value, derivative = slope(t)
            step = value / derivative
            t -= step
            if abs(step) <= 1e-28 * scale:
                return t
    raise AssertionError("the reference's Newton's method did not converge")


def exact_peak(envelope, t, scale):
    """(time, |E| there) of the envelope's maximum near t, at 40 digits:
    Newton's method on Re(E* E'), whose derivative is |E'|^2 + Re(E* E'')."""
    def slope(t):
        e, e1, e2 = envelope(t)
        return (mp.re(mp.conj(e) * e1),
                abs(e1) ** 2 + mp.re(mp.conj(e) * e2))

    peak = _newton(slope, t, scale)
    return peak, abs(envelope(peak)[0])


def exact_crossing(envelope, half, t, scale):
    """The time near t at which |E|^2 = ``half``, at 40 digits: Newton's
    method on |E|^2 - half, whose derivative is 2 Re(E* E')."""
    def slope(t):
        e, e1, _ = envelope(t)
        return abs(e) ** 2 - half, 2 * mp.re(mp.conj(e) * e1)

    return _newton(slope, t, scale)


def riemann_correlation(n: int, dt: float, lo: int, band: np.ndarray,
                        sigma: float, peak: float) -> float:
    """The shape correlation as the continuous-lag maximum of the Riemann
    sum over every (n/m)-th carrier-rate sample, m the power of two at or
    above the band's bin count.

    The samples are taken from the band's length-n inverse FFT, the lag is
    found by bounded Brent minimization within one sample spacing of
    ``peak``, and the sums of squares are Parseval's, energy/n, and the
    closed form sigma sqrt(pi)/dt, after the band is divided by its
    largest magnitude.
    """
    m = 1 << (len(band) - 1).bit_length()
    band = band / np.abs(band).max()
    spectrum = np.zeros(n, dtype=complex)
    spectrum[lo:lo + len(band)] = band
    samples = np.arange(m) * (n // m)
    envelope = np.abs(np.fft.ifft(spectrum, norm="forward"))[samples]
    times = (samples - n // 2) * dt

    def overlap(lag):
        return float(envelope @ np.exp(-(times - lag) ** 2 / (2 * sigma ** 2)))

    spacing = (n // m) * dt
    best = minimize_scalar(lambda lag: -overlap(lag), method="bounded",
                           bounds=(peak - spacing, peak + spacing),
                           options={"xatol": 1e-12 * spacing})
    energy = float(np.vdot(band, band).real)
    return overlap(best.x) / (m * math.sqrt(
        energy / n * (sigma * math.sqrt(math.pi) / dt)))


def continuous_pulse(scenario: Scenario, pulse: PulseSpec,
                     channel: Channel = Channel.TRANSMISSION,
                     near: PulseReport | None = None) -> PulseReport:
    """``propagate_pulse``'s report measured on the continuous envelopes of
    the incident and the filtered band at 40 digits.

    The incident band is real, so its envelope peaks at exactly t = 0,
    where Re(E* E') vanishes term by term, and the peak delay is the output
    peak's time.  The output peak and half-maximum crossings are Newton's
    roots from the peak and crossings of ``near`` where it is given (two
    steps from a measured report), and otherwise from those of the incident
    pulse, 0 and +/- fwhm/2.  The correlation is ``riemann_correlation``
    about the 40-digit peak.
    """
    t = time_grid(pulse, _DT_FACTOR, _PULSE_SPAN)
    n, dt, sigma = len(t), _step(pulse, _DT_FACTOR), pulse.sigma
    lo, omegas, band = _one_sided(pulse, n, dt)
    filtered = np.multiply(band, np.conj(_fixed_angle(scenario, channel, omegas)))
    envelope = band_envelope(n, dt, lo, filtered)
    start, width = (0.0, pulse.fwhm) if near is None else (near.peak_time, near.fwhm)
    with mp.workdps(_DIGITS):
        peak, value = exact_peak(envelope, start, sigma)
        half = value ** 2 / 2
        fwhm = (exact_crossing(envelope, half, peak + width / 2, sigma)
                - exact_crossing(envelope, half, peak - width / 2, sigma))
        value_in = abs(band_envelope(n, dt, lo, band)(mp.mpf(0))[0])
        amplitude = value / value_in * abs(_carrier(scenario, channel))
    return PulseReport(
        peak_time=float(peak), fwhm=float(fwhm),
        shape_correlation=riemann_correlation(n, dt, lo, filtered, sigma,
                                              float(peak)),
        peak_amplitude=float(amplitude))
