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
"""

from __future__ import annotations

import math

import numpy as np

from evanesce import Channel, PulseSpec, Scenario, scatter, wavevectors
from evanesce.scattering import _normal_wavenumbers, _transfer


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
