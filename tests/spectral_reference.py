"""Full-spectrum reference pipeline for the spectral synthesis tests.

A complex FFT of the real samples, the channel coefficient taken from the
public ``scatter`` on the positive-frequency bins, and an inverse FFT per
analytic signal.  ``evanesce.wavesynth`` does the same filtering with a
one-sided real FFT and one closed-form coefficient; the tests compare the
two.
"""

from __future__ import annotations

import math

import numpy as np

from evanesce import Channel, Scenario, scatter, wavevectors


def filtered_analytic(values: np.ndarray, dt: float, scenario: Scenario,
                      channel: Channel = Channel.TRANSMISSION,
                      fixed_kx: bool = False):
    """One-sided spectra in and out; returns (analytic_in, analytic_out)."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    spectrum = np.fft.fft(values)
    omegas = 2 * math.pi * np.fft.fftfreq(n, dt)
    pos = omegas > 0
    one_sided = np.where(pos, 2.0 * spectrum, 0.0)
    if fixed_kx:
        kx = np.full(pos.sum(), wavevectors(scenario).k_x)
        res = scatter(scenario, omegas[pos], kx, evanescent_drive=True)
    else:
        slope = scenario.n * math.sin(scenario.theta) / scenario.c
        res = scatter(scenario, omegas[pos], slope * omegas[pos])
    coef = np.ones(n, dtype=complex)
    # conjugate: physical coefficients are defined for e^{-i omega t}
    coef[pos] = np.conj(res.t if channel is Channel.TRANSMISSION else res.r)
    return np.fft.ifft(one_sided), np.fft.ifft(one_sided * coef)


def apply_channel(values: np.ndarray, dt: float, scenario: Scenario,
                  channel: Channel = Channel.TRANSMISSION,
                  fixed_kx: bool = False) -> np.ndarray:
    """Filter real field samples through the channel; returns real samples."""
    _, out = filtered_analytic(values, dt, scenario, channel, fixed_kx)
    return out.real


def analytic_envelope(values: np.ndarray) -> np.ndarray:
    """Envelope |analytic signal| from the one-sided spectrum."""
    n = len(values)
    spectrum = np.fft.fft(np.asarray(values, dtype=float))
    pos = np.fft.fftfreq(n, 1.0) > 0
    return np.abs(np.fft.ifft(np.where(pos, 2.0 * spectrum, 0.0)))
