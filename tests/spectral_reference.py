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

``carrier_rate_pulse`` is the pulse measured at the carrier rate: the
filtered band's length-n inverse FFT, its envelope's argmax, half-maximum
crossings and FFT cross-correlation, which ``propagate_pulse`` replaces by
measurements on the band.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from evanesce import (
    Channel, PulseReport, PulseSpec, Scenario, scatter, wavevectors,
)
from evanesce.scattering import _normal_wavenumbers, _transfer
from evanesce.wavesynth import (
    _DT_FACTOR, _PULSE_SPAN, _fixed_angle, _one_sided, _peak, _step, time_grid,
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


def exact_peak(t: np.ndarray, dt: float, lo: int, band: np.ndarray,
               j: int) -> tuple[float, float]:
    """``wavesynth._peak`` at 40 digits: the envelope, times n, at samples
    j - 1, j and j + 1 of the analytic signal whose spectrum is ``band`` on
    bins lo, lo + 1, ..., as sums of the double band times exact phases
    e^{2 pi i k m/n}, and the parabola through them.  Returns (time, the
    envelope at j)."""
    import mpmath as mp

    n = len(t)
    with mp.workdps(40):
        env = []
        for m in (j - 1, j, j + 1):
            total = mp.mpc(0)
            for k, value in enumerate(band, start=lo):
                total += mp.mpc(complex(value)) * mp.expjpi(mp.mpf(2 * (k * m % n)) / n)
            env.append(abs(total))
        y0, y1, y2 = env
        peak = mp.mpf(float(t[j])) + mp.mpf(dt) / 2 * (y0 - y2) / (y0 - 2 * y1 + y2)
        return float(peak), float(y1)


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


def envelope_fwhm(t: np.ndarray, env: np.ndarray) -> float:
    """Full width at half maximum of the intensity ``env``^2: the first and
    last samples at or above half its maximum, each crossing interpolated
    linearly with the sample outside it."""
    intensity = env ** 2
    half = intensity.max() / 2
    above = np.flatnonzero(intensity >= half)
    i0, i1 = above[0], above[-1]

    def cross(j_out, j_in):
        y0, y1 = intensity[j_out], intensity[j_in]
        frac = (half - y0) / (y1 - y0)
        return t[j_out] + frac * (t[j_in] - t[j_out])

    left = cross(i0 - 1, i0) if i0 > 0 else t[i0]
    right = cross(i1 + 1, i1) if i1 < len(t) - 1 else t[i1]
    return float(right - left)


def envelope_correlation(env: np.ndarray, sigma: float, dt: float) -> float:
    """Peak normalized cross-correlation of ``env`` with the incident
    envelope on the same grid, by ``rfft``/``irfft`` over every lag."""
    n = len(env)
    spectrum, energy = incident_envelope(n, sigma, dt)
    cross = np.fft.rfft(env)
    cross[:len(spectrum)] *= spectrum  # real: its own conjugate
    cross[len(spectrum):] = 0.0
    corr = np.fft.irfft(cross, n)
    return float(corr.max() / math.sqrt(float(np.sum(env ** 2)) * energy))


def carrier_rate_pulse(scenario: Scenario, pulse: PulseSpec,
                       channel: Channel = Channel.TRANSMISSION):
    """(series values, report) of ``propagate_pulse`` synthesized and
    measured at the carrier rate: the filtered band in a zeroed length-n
    buffer, one inverse FFT, the envelope's argmax as the start of the
    output peak (``_peak``), ``envelope_fwhm`` and
    ``envelope_correlation``."""
    t = time_grid(pulse, _DT_FACTOR, _PULSE_SPAN)
    n, dt = len(t), _step(pulse, _DT_FACTOR)
    lo, omegas, band = _one_sided(pulse, n, dt)
    filtered = np.multiply(band, np.conj(_fixed_angle(scenario, channel, omegas)))
    spectrum = np.zeros(n, dtype=complex)
    spectrum[lo:lo + len(band)] = filtered
    analytic = np.fft.ifft(spectrum, out=spectrum)
    env = np.abs(analytic)
    peak_out, value_out, _ = _peak(n, dt, lo, filtered, int(np.argmax(env)))
    peak_in, value_in, _ = _peak(n, dt, lo, band, n // 2)
    carrier = 1.0
    if channel is Channel.TRANSMISSION:
        carrier = cmath.exp(1j * cmath.sqrt(wavevectors(scenario).k_z_gap_sq)
                            * scenario.d)
    report = PulseReport(
        peak_time=peak_out - peak_in, fwhm=envelope_fwhm(t, env),
        shape_correlation=envelope_correlation(env, pulse.sigma, dt),
        peak_amplitude=value_out / value_in * abs(carrier))
    return (analytic * carrier.conjugate()).real, report
