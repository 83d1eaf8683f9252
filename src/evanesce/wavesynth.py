"""Spectral synthesis of pulses and beams through the double-prism gap.

The structure is linear and time-invariant, so a pulse is propagated by
multiplying its one-sided (analytic) spectrum by the channel coefficient
and transforming back; envelopes are magnitudes of the analytic signal,
which sidesteps carrier-phase ambiguity when locating peaks.  Fields
evolve as e^{i(k_x x - omega t)}, while the FFT synthesizes e^{+i omega t}
components, so coefficients are conjugated on the way in.  The
closed-prism reference for delays is the incident envelope (t = 1).

Only the output pulse is synthesized.  Under the quasi-monochromatic guard
(fwhm * carrier > 10) the incident analytic signal is
e^{-t^2/2 sigma^2} e^{i omega_0 t} to within e^{-(omega_0 sigma)^2/2}
< 1e-154 of its peak, so the incident envelope peaks at t = 0, and its
spectrum and sum of squares, which the shape correlation needs, are
closed forms (``_incident_envelope``).  A peak is a parabola through three
envelope samples formed by direct sums over the band (``_peak``), the
incident's at sample n/2 and the output's around the largest sample of
its envelope.  The same sums on equal bands (d = 0) give a delay of
exactly 0.0 and a peak ratio of exactly 1.0.  Each parabola's slope and
curvature come from small sums rather than from differences of nearly
equal envelope samples, so the peak delay rounds below 1e-12 ps.  Samples
rounded at ~1e-16 of the peak, three of which differ by ~1e-6 of it,
would put that floor at about 1e-9 ps.

Where the one-sided spectrum comes from is the one branch of the
synthesis.  A plain Gaussian pulse takes its closed-form DFT, evaluated
only on its live band |omega - omega_0| <= 38.7/sigma, past which both
Gaussian terms underflow to 0.0: 573 of the 32 767 positive bins of
the default 16 ns pulse.  It is exact where the FFT of samples leaves a
round-off floor of ~1e-16 of the peak bin, which a wide gap (kappa
proportional to omega) would amplify above the pulse.  A pulse with a
front takes the real FFT (``rfft``) of its samples on every positive bin,
because its smooth turn-on has no closed form.  Either way the channel
coefficient is evaluated on the band alone and the band fills one zeroed
length-n buffer (see below), so the carrier-rate grid and series keep
their length.
The grid step is the one ``time_grid`` multiplies by, not t[1] - t[0],
which misses it by a rounding of (1 - n/2) dt - (-n/2) dt.

Three drives appear, each forming alpha and beta from the carrier's:

* fixed angle (the pulse): k_x = n omega sin(theta)/c.  The trace speed
  c/(n sin(theta)) is subluminal, so field may arrive ahead of
  front_time + d/c by entering the gap at earlier interface points.
  Transmission is formed relative to the carrier, e^{i(beta - beta_0) d},
  so the envelope keeps its scale at any gap width; e^{i beta_0 d} is
  applied only to the reported series and peak amplitude.
* fixed k_x (the front check): a transversely uniform drive whose exact
  front bound is front_time + d/c, the analog of a below-cutoff guide;
  alpha is imaginary below the prism cutoff and 0 on it.
* fixed omega (the beam), on the launchable k_x.

Pulses with a front are given compact support with a smooth (C-infinity)
turn-on: the field is identically zero before front_time, which is what
defines a front, while the spectrum stays tame enough that the synthesis
floor sits far below any leakage tolerance of interest.

One routine, ``scattering._coefficient``, gives every drive its t or r
by the rule ``scatter`` applies.  A plain pulse's band, 464 to 928 bins,
takes it in one call.  The front check's band, every positive bin, takes
it in blocks of ``_BLOCK`` bins, each block's conjugate multiplied into
the buffer (below) before the next is formed, so the per-bin work is
sized for the cache.  Every operation is elementwise, so each bin gets
the same bits as from one pass over all bins.
``sample_pulse`` takes an ascending grid and evaluates the pulse only on
the span where it can be nonzero (after the front, within 38.7 sigma,
past which the Gaussian underflows to 0.0), writing zeros elsewhere.

Each synthesis holds one length-n complex buffer, over which the inverse
FFT runs in place.  The pulse's band is under 1 % of its buffer.  In the
front check (``_analytic``) the band is written into the buffer and
released, the coefficient is multiplied into it block by block, and the
bin frequencies and the time grid are released before the transform
runs.  So no band-sized array sits beside the buffer while the
transform runs, and the transform's own scratch, about twice the buffer
(measured as the resident-set growth of one in-place inverse FFT of 2^18
and 2^19 samples), is the floor of the synthesis.  The largest traced
allocation is the buffer, the band and the bin frequencies while the band
is written into the buffer: about 1.75 buffers.  An output that underflows
to 0.0 at every sample has nothing to measure and raises GridGuardError.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BeamSpec, PulseSpec, Scenario, _require_array_size, vacuum_wavelength,
    wavevectors,
)
from .delay import Channel, _require_live, _shift
from .scattering import _coefficient, _normal_wavenumbers


# Bins per block of the channel coefficient: 128 KiB per complex temporary,
# so the ~20 elementwise passes of ``scattering._transfer`` stay in cache.
_BLOCK = 8192

# exp(-t^2 / 2 sigma^2) underflows to exactly 0.0 past 38.61 sigma, so the
# pulse is zero beyond this many sigmas from its peak, and its spectrum
# beyond this many 1/sigma from the carrier.
_GAUSS_REACH = 38.7

# Fixed synthesis grids.  A pulse is propagated at 16 samples per carrier
# period over 16 fwhm; the front check spans 64 fwhm at the caller's
# dt_factor (16 by default); a beam is recomposed on 4096 points over 32
# waists.
_DT_FACTOR = 16
_PULSE_SPAN = 16
_FRONT_SPAN = 64
_BEAM_POINTS = 4096
_BEAM_SPAN = 32


class GridGuardError(ValueError):
    """Synthesis grid or pulse parameters outside validated territory."""


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled real field of one channel."""

    t_samples: np.ndarray
    values: np.ndarray
    channel: Channel


@dataclass(frozen=True)
class PulseReport:
    """Envelope measurements of a propagated pulse.

    ``peak_time`` is the output envelope peak relative to the incident
    envelope peak at the gap entrance (parabolic interpolation through the
    three samples bracketing the maximum).  Its round-off floor is below
    1e-12 ps, which is what it reports wherever the true delay is smaller,
    as at gaps past about 0.2 m: the headline pulse at 45 degrees reads
    2.2e-13 (TE) and -1.7e-13 ps (TM) at 0.2 m, 5.8e-13 and 0.0 at 0.4 m,
    -4.7e-13 and -1.3e-13 at 1 m, -1.5e-13 and -1.4e-13 at 5 m, and
    1.4e-13 and 2.8e-14 at 90 m, where the same parabola through exact
    sums reads below 2.7e-13 ps in magnitude and tau_0 below 2e-15 ps.
    A parabola through the inverse FFT's envelope samples would round at
    about 1e-9 ps.  At 100 m the band's transmission overflows and no peak is measured.
    ``fwhm`` is measured on the intensity envelope; ``shape_correlation``
    is the peak normalized cross-correlation of output and incident
    envelopes; ``peak_amplitude`` is the output/input peak-envelope ratio,
    taken at the middle samples of the two parabolas.
    """

    peak_time: float
    fwhm: float
    shape_correlation: float
    peak_amplitude: float


@dataclass(frozen=True)
class BeamProfile:
    """Transverse intensity profile of the output beam and its centroid
    shift from the input beam, which is centred on x = 0."""

    x_samples: np.ndarray
    intensity: np.ndarray
    centroid_shift: float


def _smooth_step(x: np.ndarray) -> np.ndarray:
    """C-infinity ramp: 0 for x <= 0, 1 for x >= 1."""
    x = np.asarray(x, dtype=float)
    out = np.where(x >= 1, 1.0, 0.0)
    ramp = (x > 0) & (x < 1)
    xr = x[ramp]
    a = np.exp(-1.0 / np.maximum(xr, 1e-300))  # -1/x overflows at subnormal x
    b = np.exp(-1.0 / (1.0 - xr))
    out[ramp] = a / (a + b)
    return out


def sample_pulse(pulse: PulseSpec, t: np.ndarray) -> np.ndarray:
    """Real field samples of the pulse on the ascending grid ``t`` (peak
    envelope at 0).

    Only the span where the field can be nonzero is evaluated; the rest is
    written as zeros, which is what the full formula gives there.
    """
    t = np.asarray(t, dtype=float)
    reach = _GAUSS_REACH * pulse.sigma
    lo = np.searchsorted(t, -reach)
    if pulse.front_time is not None:
        lo = max(lo, np.searchsorted(t, pulse.front_time, side="right"))
    live = t[lo:np.searchsorted(t, reach)]
    env = np.exp(-live ** 2 / (2 * pulse.sigma ** 2))
    if pulse.front_time is not None:
        env = env * _smooth_step((live - pulse.front_time) / pulse.rise)
    out = np.zeros_like(t)
    out[lo:lo + len(live)] = env * np.cos(2 * math.pi * pulse.carrier * live)
    return out


def _step(pulse: PulseSpec, dt_factor: int) -> float:
    """The step ``time_grid`` multiplies its sample indices by."""
    return 1.0 / (dt_factor * pulse.carrier)


def time_grid(pulse: PulseSpec, dt_factor: int, span_factor: int) -> np.ndarray:
    """Uniform grid: step 1/(dt_factor * carrier), span span_factor * fwhm,
    rounded up to a power-of-two sample count (wrap-around padding)."""
    if dt_factor < 8:
        raise GridGuardError(
            f"dt_factor must be >= 8 (Nyquist margin 4x carrier), got {dt_factor}"
        )
    dt = _step(pulse, dt_factor)
    n_req = span_factor * pulse.fwhm / dt
    _require_array_size(2 * n_req, "samples")  # the power of two < 2 n_req
    return _grid(1 << (math.ceil(n_req) - 1).bit_length(), dt)


def _grid(n: int, dt: float) -> np.ndarray:
    """The n samples of step ``dt`` with sample n/2 at t = 0."""
    return (np.arange(n) - n // 2) * dt


def _one_sided(pulse: PulseSpec, n: int, dt: float):
    """The pulse's analytic spectrum 2 X(omega_k) on the n-sample grid of
    step ``dt``, as (lo, omegas, values) on the bins lo, lo + 1, ...; every
    other bin with omega > 0 holds 0.

    A plain pulse takes the closed-form DFT of the sampled Gaussian,
    (2 sigma sqrt(pi/2)/dt) [e^{-(w - w0)^2 sigma^2/2}
    + e^{-(w + w0)^2 sigma^2/2}] (-1)^k, on the band |w - w0| <= 38.7/sigma
    where it can be nonzero; (-1)^k places the time origin at sample n/2
    of the power-of-two grid.  A pulse with a front takes the ``rfft`` of
    its samples on every positive bin, doubled in place.
    """
    if pulse.front_time is not None:
        band = np.fft.rfft(sample_pulse(pulse, _grid(n, dt)))[1:(n + 1) // 2]
        band *= 2.0
        return 1, 2 * math.pi * np.fft.rfftfreq(n, dt)[1:(n + 1) // 2], band
    w0, sigma = 2 * math.pi * pulse.carrier, pulse.sigma
    reach, bin_width = _GAUSS_REACH / sigma, 2 * math.pi / (n * dt)
    lo = max(1, math.ceil((w0 - reach) / bin_width))
    hi = min((n + 1) // 2, math.floor((w0 + reach) / bin_width) + 1)
    omegas = 2 * math.pi * np.fft.rfftfreq(n, dt)[lo:hi]
    gauss = (np.exp(-((omegas - w0) * sigma) ** 2 / 2)
             + np.exp(-((omegas + w0) * sigma) ** 2 / 2))
    return lo, omegas, (2 * sigma * math.sqrt(math.pi / 2) / dt) * np.where(
        np.arange(lo, hi) % 2, -gauss, gauss)


def _analytic(pulse: PulseSpec, n: int, dt: float, coefficient) -> np.ndarray:
    """Length-n analytic signal of the pulse filtered by the channel on the
    n-sample grid of step ``dt``: its one-sided spectrum from ``_one_sided``
    times the conjugated ``coefficient(omegas)`` on the band.

    One length-n complex buffer is held (see the module docstring): the
    band is written into it and released, each block's coefficient is
    multiplied into it, and the bin frequencies are released before the
    inverse transform runs over it in place.  The caller passes the pulse,
    not its band, so that this function holds the only references it
    releases.
    """
    lo, omegas, band = _one_sided(pulse, n, dt)
    spectrum = np.zeros(n, dtype=complex)
    window = spectrum[lo:lo + len(band)]
    window[...] = band
    del band
    for start in range(0, len(omegas), _BLOCK):
        part = window[start:start + _BLOCK]
        # conjugate: physical coefficients are defined for e^{-i omega t}
        np.multiply(part, np.conj(coefficient(omegas[start:start + _BLOCK])),
                    out=part)
    del omegas
    return np.fft.ifft(spectrum, out=spectrum)


def _peak(t: np.ndarray, dt: float, lo: int, band: np.ndarray,
          j: int) -> tuple[float, float]:
    """(time, envelope times n) of the peak near sample j of the length-n
    analytic signal whose spectrum is ``band`` on bins lo, lo + 1, ... and 0
    elsewhere: parabolic interpolation through its envelope at samples
    j - 1, j and j + 1, evaluated by direct sums over the band.

    The terms of sample j are c_k = band_k e^{2 pi i k j/n}, with k j mod n
    reduced as an integer to a quarter turn i^q, exact, times a phase of at
    most pi/4.  Up to a common phase, samples j -/+ 1 are S - (R +/- iQ),
    with S = sum c_k, R = sum c_k 2 sin^2(phi_k/2), Q = sum c_k sin(phi_k)
    and phi_k = 2 pi (k - k_c)/n about the bin k_c of the largest term, so
    that R and Q are small wherever the gap has moved the spectrum's weight
    within the band.  The envelopes' differences from sample j's are formed
    from R and Q, so neither the slope nor the curvature of the parabola is
    a difference of nearly equal envelopes.  A real band at j = n/2 has
    R + iQ and R - iQ conjugate, and so an envelope symmetric about t = 0 to
    the last bit.
    """
    n = len(t)
    eighth = n // 8
    k = np.arange(lo, lo + len(band))
    m = (k * j + eighth) % n - eighth  # k j mod n, in [-n/8, 7n/8)
    quarter = (m + eighth) // (2 * eighth)
    terms = (band * np.array([1, 1j, -1, -1j])[quarter]
             * np.exp((m - 2 * eighth * quarter) * (2j * math.pi / n)))
    phi = (k - k[np.argmax(np.abs(band))]) * (2 * math.pi / n)
    middle = complex(np.sum(terms))
    r = complex(np.sum(terms * (2 * np.sin(phi / 2) ** 2)))
    q = complex(np.sum(terms * np.sin(phi)))
    y1 = abs(middle)
    if j == 0 or j == n - 1:
        return float(t[j]), y1

    def rise(u):
        """|middle - u| - |middle|, from |u|^2 - 2 Re(conj(middle) u)."""
        return ((u.real ** 2 + u.imag ** 2 - 2 * (middle.conjugate() * u).real)
                / (abs(middle - u) + y1))

    before, after = rise(r + 1j * q), rise(r - 1j * q)
    curvature = before + after
    if curvature == 0:
        return float(t[j]), y1
    return float(t[j] + 0.5 * dt * (before - after) / curvature), y1


def _fwhm(t: np.ndarray, env: np.ndarray) -> float:
    intensity = env ** 2
    half = intensity.max() / 2
    above = np.flatnonzero(intensity >= half)
    if len(above) < 2:
        raise GridGuardError("grid too coarse to resolve the envelope width")
    i0, i1 = above[0], above[-1]

    def cross(j_out, j_in):
        y0, y1 = intensity[j_out], intensity[j_in]
        frac = (half - y0) / (y1 - y0)
        return t[j_out] + frac * (t[j_in] - t[j_out])

    left = cross(i0 - 1, i0) if i0 > 0 else t[i0]
    right = cross(i1 + 1, i1) if i1 < len(t) - 1 else t[i1]
    return float(right - left)


def _incident_envelope(n: int, sigma: float, dt: float):
    """The ``rfft`` of the incident envelope e^{-t^2/2 sigma^2} sampled at
    t = (j - n/2) dt, on the bins where it is nonzero, and its sum of
    squares.

    Both are closed forms, by Poisson summation as in ``_one_sided``:
    (sigma sqrt(2 pi)/dt) e^{-(omega sigma)^2/2} (-1)^k on the bins with
    omega sigma <= 38.7, past which it underflows to 0.0, and
    sigma sqrt(pi)/dt.  Under the quasi-monochromatic guard this envelope is
    the pulse's analytic-signal envelope to within
    e^{-(omega_0 sigma)^2/2} < 1e-154 of its peak.
    """
    live = min(n // 2 + 1,
               math.floor(_GAUSS_REACH * n * dt / (2 * math.pi * sigma)) + 1)
    omegas = 2 * math.pi * np.fft.rfftfreq(n, dt)[:live]
    spectrum = (sigma * math.sqrt(2 * math.pi) / dt
                * np.exp(-(omegas * sigma) ** 2 / 2))
    spectrum[1::2] *= -1.0
    return spectrum, sigma * math.sqrt(math.pi) / dt


def _shape_correlation(env: np.ndarray, sigma: float, dt: float) -> float:
    """Peak normalized cross-correlation of ``env`` with the incident
    envelope (``_incident_envelope``) on the same grid."""
    n = len(env)
    spectrum, energy = _incident_envelope(n, sigma, dt)
    cross = np.fft.rfft(env)
    cross[:len(spectrum)] *= spectrum  # real: its own conjugate
    cross[len(spectrum):] = 0.0
    corr = np.fft.irfft(cross, n)
    return float(corr.max() / math.sqrt(float(np.sum(env ** 2)) * energy))


def _check_quasi_monochromatic(pulse: PulseSpec) -> None:
    if pulse.fwhm * pulse.carrier <= 10:
        raise GridGuardError(
            "pulse is not quasi-monochromatic: need fwhm*carrier > 10, got "
            f"{pulse.fwhm * pulse.carrier:.3g}"
        )


def _fixed_angle(scenario: Scenario, channel: Channel,
                 omegas: np.ndarray) -> np.ndarray:
    """The channel coefficient of the fixed-angle drive at the bin
    frequencies ``omegas``: alpha and beta are the carrier's scaled by
    omega/omega_0, and transmission is relative to the carrier's gap factor
    e^{i beta_0 d}."""
    wv = wavevectors(scenario)
    beta0, scale = cmath.sqrt(wv.k_z_gap_sq), omegas / scenario.omega
    return _coefficient(scenario, wv.k_z_prism * scale, beta0 * scale, channel,
                        beta_ref=beta0)


def _propagated(scenario: Scenario, pulse: PulseSpec, channel: Channel):
    """(t, step, output analytic signal, its envelope, carrier factor, peak
    delay, peak ratio) of one channel at fixed incidence angle, on the pulse
    grid.

    Transmission is formed relative to the carrier's gap factor
    e^{i beta_0 d}, which the carrier factor holds (1 for reflection): the
    true output is the returned one times its conjugate, and may underflow
    where the returned one does not.

    Only the output is synthesized.  The incident envelope peaks at sample
    n/2 (t = 0), and the delay and the ratio of the peaks are measured on
    the envelope at the three samples around each peak, by the same direct
    sums over the incident band and the filtered band (``_peak``): where
    the two bands are equal, as at d = 0, the delay is exactly 0.0 and the
    ratio exactly 1.0.  An output whose envelope squared underflows to 0.0
    at every sample has no peak, width or shape and raises GridGuardError.
    """
    _check_quasi_monochromatic(pulse)
    t = time_grid(pulse, _DT_FACTOR, _PULSE_SPAN)
    n, dt = len(t), _step(pulse, _DT_FACTOR)
    _require_live(scenario, channel)
    lo, omegas, band = _one_sided(pulse, n, dt)
    beta0 = cmath.sqrt(wavevectors(scenario).k_z_gap_sq)
    if channel is Channel.TRANSMISSION:
        # on the fixed-angle drive beta is proportional to omega, so
        # e^{i(beta - beta0) d} is largest on the band's lowest bin; e^709.78
        # is the largest double
        growth = beta0.imag * scenario.d * (1 - omegas[0] / scenario.omega)
        if not growth < 709:
            raise GridGuardError(
                "gap too wide for the pulse synthesis: transmission "
                f"varies by e^{growth:.3g} across the pulse band, past "
                "double range")
    # conjugate: physical coefficients are defined for e^{-i omega t}
    filtered = np.multiply(band, np.conj(_fixed_angle(scenario, channel, omegas)))
    spectrum = np.zeros(n, dtype=complex)
    spectrum[lo:lo + len(band)] = filtered
    analytic_out = np.fft.ifft(spectrum, out=spectrum)
    env_out = np.abs(analytic_out)
    if env_out.max() ** 2 == 0.0:
        raise GridGuardError(f"the {channel.value} envelope squared underflows "
                             "to 0.0 at every sample: no width or shape to measure")
    peak_out, value_out = _peak(t, dt, lo, filtered, int(np.argmax(env_out)))
    peak_in, value_in = _peak(t, dt, lo, band, n // 2)
    carrier = (cmath.exp(1j * beta0 * scenario.d)
               if channel is Channel.TRANSMISSION else 1.0)
    return (t, dt, analytic_out, env_out, carrier, peak_out - peak_in,
            value_out / value_in)


def propagate_pulse(scenario: Scenario, pulse: PulseSpec,
                    channel: Channel = Channel.TRANSMISSION
                    ) -> tuple[TimeSeries, PulseReport]:
    """Send the pulse through one channel at fixed incidence angle.

    Returns the output time series on the shared grid plus envelope
    measurements referenced to the incident pulse.  The envelope's shape is
    measured at any gap width; the series and ``peak_amplitude`` are the
    true output, which underflows to 0.0 past a few metres.
    """
    t, dt, analytic_out, env_out, carrier, peak_time, peak_ratio = _propagated(
        scenario, pulse, channel)
    report = PulseReport(
        peak_time=peak_time,
        fwhm=_fwhm(t, env_out),
        shape_correlation=_shape_correlation(env_out, pulse.sigma, dt),
        peak_amplitude=peak_ratio * abs(carrier),
    )
    series = TimeSeries(t_samples=t,
                        values=(analytic_out * carrier.conjugate()).real,
                        channel=channel)
    return series, report


def differential_delay(scenario: Scenario, pulse: PulseSpec) -> float:
    """Peak-time difference, closed (d=0) minus gapped, in seconds.

    The two-measurement procedure: record the transmitted peak with the
    prisms closed, then with the gap open, and subtract.  The sign is
    reported as measured; the gapped pulse arrives later, so the value is
    negative in the evanescent regime, and its magnitude matches the
    fixed-angle phase-derivative delay at the carrier.
    t = 1 exactly without a gap, so the closed-prism peak time is exactly
    0.0 and only the gapped pulse is synthesized.
    """
    return 0.0 - _propagated(scenario, pulse, Channel.TRANSMISSION)[5]


def front_causality_check(scenario: Scenario, pulse: PulseSpec,
                          dt_factor: int = _DT_FACTOR) -> float:
    """Max envelope leakage ahead of the vacuum front, over transmitted peak.

    The pulse must carry a front (compact support).  The drive holds the
    carrier's transverse wavenumber for every frequency, the configuration
    whose exact relativistic bound is arrival at front_time + d/c; any
    output envelope before that instant is synthesis floor, and the
    returned ratio must not grow under grid refinement.  ``dt_factor``
    sets the samples per carrier period (at least 8); the window is a fixed
    64 fwhm, and a vacuum arrival past its end raises ``GridGuardError``.
    """
    if pulse.front_time is None:
        raise ValueError("front causality check needs a pulse with a front")
    _check_quasi_monochromatic(pulse)
    t = time_grid(pulse, dt_factor, _FRONT_SPAN)
    if pulse.front_time <= t[0] or pulse.front_time >= t[-1]:
        raise GridGuardError("front_time outside the synthesis window")
    # t[0] < front_time <= arrival, so the window always opens pre-front
    arrival = pulse.front_time + scenario.d / scenario.c
    if arrival >= t[-1]:
        raise GridGuardError(
            f"front arrival {arrival:.3g} s lies past the synthesis window's "
            f"end at {t[-1]:.3g} s")
    # the grid ascends: the samples before the arrival are t[:k]
    n, k = len(t), int(np.searchsorted(t, arrival))
    del t  # not held beside the synthesis, whose working set is the peak
    kx = wavevectors(scenario).k_x
    env = np.abs(_analytic(
        pulse, n, _step(pulse, dt_factor), lambda w: _coefficient(
            scenario, *_normal_wavenumbers(scenario, w, kx), Channel.TRANSMISSION)))
    return float(env[:k].max() / env.max())


def quasi_static_ratio(scenario: Scenario, pulse: PulseSpec) -> float:
    """Pulse spatial extent over gap width, c*fwhm/d; >10 is quasi-static."""
    if scenario.d == 0:
        return math.inf
    return scenario.c * pulse.fwhm / scenario.d


def beam_centroid_shift(scenario: Scenario, beam: BeamSpec,
                        channel: Channel = Channel.TRANSMISSION) -> BeamProfile:
    """Angular-spectrum propagation of a monochromatic Gaussian beam.

    Each transverse-wavenumber component is scattered independently at the
    carrier frequency, and the output plane is recomposed on 4096 points
    over 32 waists.  The centroid shift is the spectrum's first moment: by
    Parseval, the |S c|^2-weighted mean of the per-component shift s(k_x)
    over the launchable k_x (S the input spectrum, c the channel
    coefficient), so it needs no abscissae and no second synthesis, and a
    vanished structure reports exactly zero.  It equals the profile's
    centroid wherever the window resolves the output beam.
    """
    _require_live(scenario, channel)
    lam = vacuum_wavelength(scenario.f, scenario.c)
    if beam.waist < 5 * lam:
        raise GridGuardError(
            f"waist must be >= 5 wavelengths for the paraxial spectrum, got "
            f"{beam.waist / lam:.2f}"
        )
    omega = scenario.omega
    kx0 = wavevectors(scenario).k_x
    n_points, length = _BEAM_POINTS, _BEAM_SPAN * beam.waist
    x = (np.arange(n_points) - n_points // 2) * (length / n_points)
    k_rel = 2 * math.pi * np.fft.fftfreq(n_points, length / n_points)
    # closed-form DFT of exp(-(x/w)^2), origin at sample 0 (fftshift moves
    # it to x = 0): exact, so the tails that survive e^{-kappa d} are not
    # FFT round-off
    spectrum = (beam.waist * math.sqrt(math.pi) * n_points / length
                * np.exp(-(k_rel * beam.waist / 2) ** 2))
    kx = kx0 + k_rel

    # components evanescent on the prism side cannot be launched; they must
    # carry negligible weight and are dropped from the synthesis
    k_prism = scenario.n * omega / scenario.c
    launchable = np.abs(kx) < k_prism * (1 - 1e-12)
    weights = np.abs(spectrum) ** 2
    bad_weight = float(weights[~launchable].sum() / weights.sum())
    if bad_weight > 0.01:
        raise GridGuardError(
            "beam spectrum spills into prism-evanescent angles: "
            f"{bad_weight:.1%} of the weight exceeds k_x = n omega/c"
        )

    kx = kx[launchable]
    alpha, beta = _normal_wavenumbers(scenario, omega, kx)
    band = spectrum[launchable] * _coefficient(scenario, alpha, beta, channel)
    spectrum_out = np.zeros(n_points, dtype=complex)
    spectrum_out[launchable] = band
    intensity = np.abs(np.fft.fftshift(np.fft.ifft(spectrum_out))) ** 2
    if not intensity.any():
        raise GridGuardError(f"the {channel.value} intensity underflows to 0.0 "
                             "at every sample: no centroid to measure")
    weight = np.abs(band) ** 2
    (live,) = weight.nonzero()
    weight = weight[live]
    shift = _shift(scenario, alpha[live], beta[live], kx[live], scenario.d)
    return BeamProfile(x_samples=x, intensity=intensity, centroid_shift=float(
        np.sum(weight * shift) / np.sum(weight)))
