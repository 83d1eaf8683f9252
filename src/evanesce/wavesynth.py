"""Spectral synthesis of pulses and beams through the double-prism gap.

The structure is linear and time-invariant, so a pulse is propagated by
multiplying its one-sided (analytic) spectrum by the channel coefficient
and transforming back; envelopes are magnitudes of the analytic signal,
which sidesteps carrier-phase ambiguity when locating peaks.  The front
check measures the real field instead (below).  Fields
evolve as e^{i(k_x x - omega t)}, while the FFT synthesizes e^{+i omega t}
components, so coefficients are conjugated on the way in.  The
closed-prism reference for delays is the incident envelope (t = 1).

A pulse is measured on its band, not synthesized.  Under the
quasi-monochromatic guard (fwhm * carrier > 10) the incident analytic
signal is e^{-t^2/2 sigma^2} e^{i omega_0 t} to within
e^{-(omega_0 sigma)^2/2} < 1e-154 of its peak, so the incident envelope is
that closed-form Gaussian, peaking at t = 0.  The output's envelope is the
continuous E(t) = sum_k b_k e^{i omega_k t} over its band of L bins (573
for the default pulse), of which the carrier-rate series holds samples;
E, E' and E'' at any t are direct sums over the band (``_envelope``).
Each measurement is a root found by Newton's method (``_newton``) from a
start on the coarse grid: the band folded by bin mod m into m samples, m
the power of two at or above L, gives by one inverse FFT the envelope at
every (n/m)-th carrier-rate sample (``_coarse``), 1024 samples for 65 536,
12 to 25 to the sigma.  The peak is the root of Re(E* E') (``_peak``),
each half-maximum crossing that of |E|^2 - |E_peak|^2/2 (``_fwhm``), and
the shape correlation's lag that of the lag derivative of its Riemann sum
over the coarse samples (``_shape_correlation``).  Each takes one to three
steps.  Against Newton's method on the same sums at 40 digits, the peak
is within 2.3e-13 ps, and the width, the correlation and the amplitude
within 5.6e-16 relative.  The same steps on equal bands (d = 0) give a
delay of exactly 0.0 and a peak ratio of exactly 1.0.  All are measured
on the band scaled by a power of two, so a band of 1e-300 is measured as
one of 1.  The carrier-rate series is synthesized only when it is read
(``TimeSeries``).

Where the one-sided spectrum comes from is the one branch of the
synthesis.  A plain Gaussian pulse takes its closed-form DFT, evaluated
only on its live band |omega - omega_0| <= 38.7/sigma, past which both
Gaussian terms underflow to 0.0: 573 of the 32 767 positive bins of
the default 16 ns pulse.  It is exact where the FFT of samples leaves a
round-off floor of ~1e-16 of the peak bin, which a wide gap (kappa
proportional to omega) would amplify above the pulse.  The channel
coefficient is evaluated on the band alone, and a series, when it is
read, fills one zeroed length-n buffer with the band, so the carrier-rate
grid and series keep their length.  A pulse with a front is the front
check's alone: its smooth turn-on has no closed form, so it takes the
real FFT (``rfft``) of its damped samples (below) on every bin, and pulse
propagation, whose report measures against the plain Gaussian, rejects
it.
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
  front bound is front_time + d/c, the analog of a below-cutoff guide.  It
  is evaluated at the complex frequencies omega + i gamma of the damped
  contour, where alpha and beta are complex roots of Im >= 0
  (``_damped_fixed_kx``).
* fixed omega (the beam), on the launchable k_x.

Pulses with a front are given compact support with a smooth (C-infinity)
turn-on: the field is identically zero before front_time, which is what
defines a front, while the spectrum stays tame enough that the synthesis
floor sits far below any leakage tolerance of interest.

One routine, ``scattering._coefficient``, gives every drive its t or r
by the rule ``scatter`` applies.  A plain pulse's band, 464 to 928 bins,
takes it in one call.  The front check's band, every bin, takes it in
blocks of ``_BLOCK`` bins, each block's conjugate multiplied into the
buffer (below) before the next is formed, so the per-bin work is sized
for the cache.  Every operation is elementwise, so each bin gets the same
bits as from one pass over all bins of arrays below 256 KiB, past which
numpy may reuse a temporary and swap a product's operands.
The pulse is evaluated only on the span where it can be nonzero (after
the front, within 38.7 sigma, past which the Gaussian underflows to 0.0)
and is zero elsewhere: ``sample_pulse`` finds that span on a given
ascending grid, and the front check from sample indices
(``_grid_index``), both by one formula (``_pulse_samples``).

The front check runs on the damped contour of numerical Laplace
inversion.  It samples x(t) e^{-gamma (t - t_0)} from the window's first
sample t_0, filters at omega + i gamma and multiplies the result by
e^{gamma (t - t_0)}, so output that wraps around the periodic window
returns damped by e^{-gamma T}.  The window is sized from the physics:
its first half runs from 1 fwhm before the front to 4 fwhm past the
later of the pulse's peak and the vacuum arrival, and at least d/c past
the arrival (2^15 samples at 16 per carrier period for the default 16 ns
pulse at 40 mm).  Both maxima are taken over that half, where undamping
amplifies the synthesis error by at most e^{gamma T/2}.  The causal
quantity is the real field, not the analytic envelope, whose Hilbert
transform has a 1/t tail before any front.

Each synthesis holds one complex buffer.  The pulse's band is under 1 %
of its buffer, over which the inverse FFT runs in place, and which only a
read of its series allocates.  The front check's buffer has n + 1 bins
and is the whole check: the damped samples are staged block by block in
its upper n floats, their ``rfft`` is written to its lower n/2 + 1 bins
and multiplied by the coefficient block by block in place, the ``irfft``
is written back over the samples, and the field's undamped maxima are
taken block by block.  No time grid, band, bin-frequency or field array
is made, so the largest traced allocation is the buffer and one block's
temporaries: 1.18 buffers at 2^18 samples and 1.09 at 2^19.  A beam
whose intensity underflows to 0.0 at every sample, a pulse whose band is
0.0 at every bin (reflection where kappa d underflows), or a front pulse
that is zero at every sample after its front has nothing to measure and
raises GridGuardError.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    BeamSpec, PulseSpec, Scenario, _require_array_size, vacuum_wavelength,
    wavevectors,
)
from .delay import Channel, _require_live, _shift
from .scattering import _coefficient, _normal_wavenumbers


# Bins or samples per block of the front check: 64 KiB per complex
# temporary, so the ~20 elementwise passes of ``scattering._transfer`` stay
# in cache, and the temporaries, which malloc serves from its heap, stay
# small beside the buffer and the transforms' scratch (8192 bins raised the
# causality command's peak resident set by about 1 MB, 16384 by 3 MB).
_BLOCK = 4096

# exp(-t^2 / 2 sigma^2) underflows to exactly 0.0 past 38.61 sigma, so the
# pulse is zero beyond this many sigmas from its peak, and its spectrum
# beyond this many 1/sigma from the carrier.
_GAUSS_REACH = 38.7

# Fixed synthesis grids.  A pulse is propagated at 16 samples per carrier
# period over 16 fwhm.  The front check, at the caller's dt_factor (16 by
# default), measures from 1 fwhm before the front to 4 fwhm after the
# later of the pulse's peak and the vacuum arrival, and to no sooner than
# d/c after the arrival.  A beam is recomposed on 4096 points over 32
# waists.
_DT_FACTOR = 16
_PULSE_SPAN = 16
_FRONT_LEAD = 1
_FRONT_TAIL = 4
_BEAM_POINTS = 4096
_BEAM_SPAN = 32

# gamma T, the front check's damping over its window of length T: output
# that wraps around the window returns damped by e^{-gamma T}.  Undamping
# multiplies the synthesis error by e^{gamma (t - t_0)}, which caps gamma T:
# over the measured first half of the window by at most e^15, so that
# round-off stays near 1e-16 e^15 ~ 3e-10 of the largest damped sample.
# Measured over the whole window, a front of 2.5 carrier periods at 16
# samples per period (an aliasing floor of 3e-9) read 0.7 at the window's
# end against a true peak of 1.1e-3.  A finer check damps less, so that a
# wrap reads e^3 = 20 times larger there than at the default and fails the
# self-convergence test.
_DAMPING = 30.0
_DAMPING_REFINED = 27.0

# Newton steps allowed per root of a pulse measurement; from their coarse
# starts the measurements take one to three
_NEWTON_STEPS = 16


class GridGuardError(ValueError):
    """Synthesis grid or pulse parameters outside validated territory."""


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled real field of one channel.

    ``values`` is synthesized on first read: the channel's band, placed in
    a zeroed buffer as long as ``t_samples``, one inverse FFT, and the
    carrier's gap factor applied.  A report that does not read it runs no
    transform of that length.
    """

    t_samples: np.ndarray
    channel: Channel
    _band_start: int = field(repr=False)
    _band: np.ndarray = field(repr=False)
    _carrier: complex = field(repr=False)

    @functools.cached_property
    def values(self) -> np.ndarray:
        spectrum = np.zeros(len(self.t_samples), dtype=complex)
        spectrum[self._band_start:self._band_start + len(self._band)] = self._band
        return (np.fft.ifft(spectrum, out=spectrum)
                * self._carrier.conjugate()).real


@dataclass(frozen=True)
class PulseReport:
    """Envelope measurements of a propagated pulse.

    ``peak_time`` is the output envelope peak relative to the incident
    envelope peak at the gap entrance, each the maximum of its continuous
    envelope.  Its round-off floor is about 3e-13 ps, which is what it
    reports wherever the true delay is smaller, as at gaps past about
    0.2 m: the headline pulse at 45 degrees reads -1.8e-13 (TE) and
    -3.8e-14 ps (TM) at 0.2 m, -2.3e-13 and -1.5e-13 at 0.4 m, -3.3e-13 and
    -2.1e-14 at 1 m, 7.8e-14 and -2.1e-13 at 5 m, and 1.9e-13 and -2.6e-14
    at 90 m, where tau_0 is below 2e-15 ps.  Half of that floor is the
    band's: its continuous envelope, summed at 40 digits, peaks up to
    2.9e-13 ps from 0 there, and the measurement within 1.9e-13 ps of it.
    From 100 m the band's transmission overflows and no peak is measured.
    ``fwhm`` is the width between the continuous intensity envelope's
    half-maximum crossings; ``shape_correlation`` is the peak normalized
    cross-correlation of output and incident envelopes over continuous
    lags, at most 1; ``peak_amplitude`` is the output/input peak-envelope
    ratio.  All four are measured on the band, without a carrier-rate
    synthesis, and the width, the correlation and the delay do not depend
    on the band's scale, down to reflection at a gap of 1e-300 mm.
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


def _pulse_samples(pulse: PulseSpec, t: np.ndarray) -> np.ndarray:
    """Real field samples of the pulse at the times ``t``, by its formula."""
    env = np.exp(-t ** 2 / (2 * pulse.sigma ** 2))
    if pulse.front_time is not None:
        env = env * _smooth_step((t - pulse.front_time) / pulse.rise)
    return env * np.cos(2 * math.pi * pulse.carrier * t)


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
    out = np.zeros_like(t)
    out[lo:lo + len(live)] = _pulse_samples(pulse, live)
    return out


def _step(pulse: PulseSpec, dt_factor: int) -> float:
    """The step ``time_grid`` multiplies its sample indices by."""
    return 1.0 / (dt_factor * pulse.carrier)


def time_grid(pulse: PulseSpec, dt_factor: int, span_factor: int) -> np.ndarray:
    """Uniform grid: step 1/(dt_factor * carrier), span span_factor * fwhm,
    rounded up to a power-of-two sample count (wrap-around padding)."""
    return _grid(_grid_size(pulse, dt_factor, span_factor * pulse.fwhm),
                 _step(pulse, dt_factor))


def _grid_size(pulse: PulseSpec, dt_factor: int, span: float) -> int:
    """The power-of-two sample count at 1/(dt_factor * carrier) that spans
    ``span`` seconds."""
    if dt_factor < 8:
        raise GridGuardError(
            f"dt_factor must be >= 8 (Nyquist margin 4x carrier), got {dt_factor}"
        )
    n_req = span / _step(pulse, dt_factor)
    _require_array_size(2 * n_req, "samples")  # the power of two < 2 n_req
    return 1 << (math.ceil(n_req) - 1).bit_length()


def _grid(n: int, dt: float) -> np.ndarray:
    """The n samples of step ``dt`` with sample n/2 at t = 0, formed in
    place, without an integer temporary as large as the grid."""
    t = np.arange(-(n // 2), n - n // 2, dtype=float)
    t *= dt
    return t


def _grid_index(first: int, n: int, dt: float, x: float,
                side: str = "left") -> int:
    """``np.searchsorted`` on the n samples (first + i) dt without them: the
    count of samples below x, or at or below it for side "right".  The
    guess ceil(x/dt) - first is corrected by comparing x with the samples
    themselves, the products that ``_grid`` (first = -n/2) and the front
    check form."""
    def before(i):
        return (i + first) * dt <= x if side == "right" else (i + first) * dt < x

    ratio = x / dt - first
    i = (min(max(math.ceil(ratio), 0), n) if abs(ratio) < n
         else n if ratio > 0 else 0)
    while i < n and before(i):
        i += 1
    while i > 0 and not before(i - 1):
        i -= 1
    return i


def _bin_frequencies(n: int, dt: float, lo: int, hi: int) -> np.ndarray:
    """2 pi ``np.fft.rfftfreq(n, dt)[lo:hi]``, formed on those bins only."""
    return 2 * math.pi * (np.arange(lo, hi) * (1.0 / (n * dt)))


def _one_sided(pulse: PulseSpec, n: int, dt: float):
    """The plain pulse's analytic spectrum 2 X(omega_k) on the n-sample
    grid of step ``dt``, as (lo, omegas, values) on the bins lo, lo + 1,
    ...; every other bin with omega > 0 holds 0.

    It is the closed-form DFT of the sampled Gaussian,
    (2 sigma sqrt(pi/2)/dt) [e^{-(w - w0)^2 sigma^2/2}
    + e^{-(w + w0)^2 sigma^2/2}] (-1)^k, on the band |w - w0| <= 38.7/sigma
    where it can be nonzero; (-1)^k places the time origin at sample n/2
    of the power-of-two grid.  w - w0 is formed as (k - k0) 2 pi/(n dt)
    less the carrier's residual w0 - k0 2 pi/(n dt), k0 the carrier's
    bin: the residual's rounding is common to every bin, so it moves the
    band by a fraction of an ulp of w0 and does not reshape it, as
    rounding each w before the subtraction did.
    """
    w0, sigma = 2 * math.pi * pulse.carrier, pulse.sigma
    reach, bin_width = _GAUSS_REACH / sigma, 2 * math.pi / (n * dt)
    lo = max(1, math.ceil((w0 - reach) / bin_width))
    hi = min((n + 1) // 2, math.floor((w0 + reach) / bin_width) + 1)
    omegas = _bin_frequencies(n, dt, lo, hi)
    k0 = round(w0 / bin_width)
    offsets = np.arange(lo - k0, hi - k0)
    # (w - w0) sigma, and (-1)^k as (-1)^(k - k0) (-1)^k0
    u = offsets * (bin_width * sigma) - (w0 - k0 * bin_width) * sigma
    gauss = np.exp(u * u / -2) + np.exp(-((omegas + w0) * sigma) ** 2 / 2)
    scale = 2 * sigma * math.sqrt(math.pi / 2) / dt
    return lo, omegas, (-scale if k0 % 2 else scale) * np.where(
        offsets % 2, -gauss, gauss)


def _envelope(n: int, dt: float, band: np.ndarray):
    """(E, E', E'') at any real t of the continuous envelope, times n, of
    the length-n analytic signal whose spectrum is ``band`` on consecutive
    bins, up to a phase common to the three.

    E(t) = sum_k band_k (-1)^k e^{i omega_k t} is the trigonometric
    polynomial whose samples at t = (j - n/2) dt the inverse FFT gives; the
    (-1)^k undoes the band's own, which put t = 0 at sample n/2.  The phases
    are taken about the bin k_c of the largest term, (k - k_c) 2 pi/(n dt) t,
    so that E' and E'' weigh the band's spread rather than the carrier;
    |E|^2, Re(E* E') and its derivative do not depend on that choice.
    """
    centre = int(np.argmax(np.abs(band)))
    offsets = np.arange(-centre, len(band) - centre)
    omegas = offsets * (2 * math.pi / (n * dt))
    squares = omegas * omegas
    terms = np.where(offsets % 2, -band, band)

    def at(t: float) -> tuple[complex, complex, complex]:
        phased = terms * np.exp(1j * (omegas * t))
        return (complex(phased.sum()), 1j * complex(phased @ omegas),
                -complex(phased @ squares))

    return at


def _newton(slope, t: float, reach: float, what: str) -> float:
    """The root near t of the function whose value and derivative at any t
    are ``slope(t)``, by Newton's method.  Each step is at most ``reach``, a
    coarse sample spacing; the method ends after a step below 2^-26 of it,
    which leaves an error of order 2^-52 reach^2/sigma, below round-off.  A
    longer step, a zero derivative or no such step in _NEWTON_STEPS raises
    GridGuardError."""
    t = float(t)  # not a NumPy scalar, which the report would carry
    for _ in range(_NEWTON_STEPS):
        value, derivative = slope(t)
        if value == 0:
            return t
        if not abs(value) <= reach * abs(derivative):  # also NaN
            break
        step = value / derivative
        t -= step
        if abs(step) <= reach * 2.0 ** -26:
            return t
    raise GridGuardError(f"no {what} found: Newton's method did not converge "
                         f"in {_NEWTON_STEPS} steps of at most {reach:.3g} s")


def _peak(envelope, t: float, reach: float) -> float:
    """The time of the envelope's maximum near t: the root of
    (|E|^2)'/2 = Re(E* E'), whose derivative is |E'|^2 + Re(E* E'')."""
    def slope(t):
        e, e1, e2 = envelope(t)
        return ((e.conjugate() * e1).real,
                abs(e1) ** 2 + (e.conjugate() * e2).real)

    return _newton(slope, t, reach, "envelope peak")


def _coarse(n: int, lo: int, band: np.ndarray) -> np.ndarray:
    """The envelope, times n, at every (n/m)-th sample of the length-n
    analytic signal whose spectrum is ``band`` on bins lo, lo + 1, ...,
    with m the power of two at or above the band's bin count: one inverse
    FFT of the band folded by bin mod m.  Sample s p (p = n/m) is
    sum_k band_k e^{2 pi i (k mod m) s/m}, and no two bins share a
    residue, so the fold only moves the band."""
    m = 1 << (len(band) - 1).bit_length()
    folded = np.zeros(m, dtype=complex)
    folded[np.arange(lo, lo + len(band)) % m] = band
    return np.abs(np.fft.ifft(folded, norm="forward"))


def _fwhm(envelope, coarse: np.ndarray, n: int, dt: float,
          peak: float) -> float:
    """Full width at half maximum of the intensity |E|^2 whose maximum is
    at ``peak``.  Each crossing is the root of |E|^2 - |E(peak)|^2/2, whose
    derivative is 2 Re(E* E'), from a linear interpolation between the
    coarse samples (``_coarse``) around it, 12 to 25 to the sigma."""
    m = len(coarse)
    stride = n // m
    half = abs(envelope(peak)[0]) ** 2 / 2
    # the coarse sample nearest the peak is above half
    above = np.flatnonzero(coarse ** 2 >= half)

    def excess(t):
        e, e1, _ = envelope(t)
        return abs(e) ** 2 - half, 2 * (e.conjugate() * e1).real

    def crossing(s, outward):
        inner, outer = coarse[s] ** 2, coarse[(s + outward) % m] ** 2
        frac = (inner - half) / (inner - outer) if inner > outer else 0.0
        return _newton(excess, ((s + outward * frac) * stride - n // 2) * dt,
                       stride * dt, "half-maximum crossing")

    return crossing(above[-1], 1) - crossing(above[0], -1)


def _shape_correlation(coarse: np.ndarray, n: int, dt: float, sigma: float,
                       lag: float) -> float:
    """Peak normalized cross-correlation of the output envelope with the
    incident one, e^{-t^2/2 sigma^2}, over continuous lags: Newton on its
    lag derivative from ``lag``, the output peak.

    At each lag the sum over the n carrier-rate samples is the Riemann sum
    over the m coarse ones (``_coarse``, the envelope times n), which holds
    it to round-off: a product of Gaussians sampled 12 to 25 times per
    sigma.  With u = (t - lag)/sigma and weights w = |E| e^{-u^2/2}, the
    derivative is sum w u/sigma and its own sum w (u^2 - 1)/sigma^2.  The
    correlation of the two unit vectors of samples is formed as
    1 - |a - b|^2/2, which keeps its deficit from 1 to relative round-off:
    at most 1, and exactly 1 at d = 0, where the shapes are equal.
    """
    m = len(coarse)
    times = (np.arange(m) * (n // m) - n // 2) * (dt / sigma)

    def slope(lag):
        u = times - lag / sigma
        w = coarse * np.exp(-u * u / 2)
        return float(w @ u), float(w @ (u * u) - w.sum()) / sigma

    best = _newton(slope, lag, n // m * dt, "correlation lag")
    incident = np.exp(-(times - best / sigma) ** 2 / 2)
    gap = (coarse / math.sqrt(coarse @ coarse)
           - incident / math.sqrt(incident @ incident))
    return 1.0 - float(gap @ gap) / 2


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


def _damped_fixed_kx(scenario: Scenario, omegas: np.ndarray,
                     gamma: float) -> np.ndarray:
    """The transmission coefficient of the fixed-k_x drive at the complex
    frequencies omegas + i gamma (omegas >= 0, gamma > 0), where it is
    analytic: alpha^2 and beta^2 are the carrier's moved by
    ((omega + i gamma)^2 - omega_0^2)/c^2, formed as its real part
    (omega - omega_0)(omega + omega_0) - gamma^2 and its imaginary part
    2 omega gamma >= 0.  Each radicand then has Im >= 0, and its principal
    root Im >= 0, the decaying branch.  At omega = 0 the increment is real
    and negative; numpy's product of the complex factors leaves it an
    imaginary part of rounding error there (+184 on the default window),
    whose sign its fused multiply-adds decide, and a negative one takes
    the growing root."""
    wv, c2 = wavevectors(scenario), scenario.c * scenario.c
    shift = np.empty(len(omegas), dtype=complex)
    shift.real = ((omegas - scenario.omega) * (omegas + scenario.omega)
                  - gamma * gamma) / c2
    shift.imag = (2 * gamma / c2) * omegas
    return _coefficient(
        scenario, np.sqrt(wv.k_z_prism * wv.k_z_prism + scenario.n ** 2 * shift),
        np.sqrt(wv.k_z_gap_sq + shift), Channel.TRANSMISSION)


def _propagated(scenario: Scenario, pulse: PulseSpec, channel: Channel):
    """(band start, filtered band, carrier factor, output envelope, coarse
    envelope, output peak time, peak delay, peak amplitude) of one channel
    at fixed incidence angle, on the pulse grid.

    Transmission is formed relative to the carrier's gap factor
    e^{i beta_0 d}, which the carrier factor holds (1 for reflection): the
    true output is the filtered band's times its conjugate, and may
    underflow where the filtered band's does not.

    Nothing is synthesized at the carrier rate.  The filtered band is
    scaled by the power of two that brings its largest magnitude into
    [1/2, 1), so that no sum of squares leaves the normal range, and its
    continuous envelope (``_envelope``) and coarse samples (``_coarse``)
    are measured.  The output's peak is found by ``_peak`` from the vertex
    of the parabola through the three coarse samples around its largest;
    the incident's, on the incident band, whose envelope peaks at t = 0,
    from that vertex held to within half a coarse spacing of 0, so that a
    delay of any size leaves its first step inside the reach.  Where the
    two bands are equal, as at d = 0, the starts are equal and the same
    steps give a delay of exactly 0.0 and a ratio of the peaks of exactly
    1.0.  The scale is applied back only to the peak amplitude.
    """
    if pulse.front_time is not None:
        raise ValueError("pulse propagation measures a plain Gaussian pulse; "
                         "a pulse with a front is for front_causality_check")
    _check_quasi_monochromatic(pulse)
    n = _grid_size(pulse, _DT_FACTOR, _PULSE_SPAN * pulse.fwhm)
    dt = _step(pulse, _DT_FACTOR)
    _require_live(scenario, channel)
    lo, omegas, band = _one_sided(pulse, n, dt)
    beta0 = cmath.sqrt(wavevectors(scenario).k_z_gap_sq)
    # on the fixed-angle drive beta is proportional to omega, so
    # e^{i(beta - beta0) d} is largest on the band's lowest bin; e^709.78
    # is the largest double, and alpha_hat times e^growth may overflow
    # below it
    growth = (beta0.imag * scenario.d * (1 - omegas[0] / scenario.omega)
              if channel is Channel.TRANSMISSION else 0.0)
    with np.errstate(all="ignore"):
        # conjugate: physical coefficients are defined for e^{-i omega t}
        filtered = np.multiply(band, np.conj(_fixed_angle(scenario, channel,
                                                          omegas)))
    if not (growth < 709 and np.isfinite(filtered).all()):
        raise GridGuardError(
            "gap too wide for the pulse synthesis: transmission "
            f"varies by e^{growth:.3g} across the pulse band, past "
            "double range")
    largest = float(np.max(np.abs(filtered)))
    if largest == 0.0:  # as r where kappa d underflows
        raise GridGuardError(f"the {channel.value} envelope underflows to 0.0 "
                             "at every sample: no peak, width or shape to measure")
    exponent = math.frexp(largest)[1]
    scaled = np.ldexp(filtered.view(float), -exponent).view(complex)
    coarse = _coarse(n, lo, scaled)
    stride = n // len(coarse)
    s = int(np.argmax(coarse))
    y0, y1, y2 = coarse[s - 1], coarse[s], coarse[(s + 1) % len(coarse)]
    curvature = y0 - 2 * y1 + y2
    vertex = s + (0.5 * (y0 - y2) / curvature if curvature else 0.0)
    start, reach = (vertex * stride - n // 2) * dt, stride * dt
    envelope, incident = _envelope(n, dt, scaled), _envelope(n, dt, band)
    peak_out = _peak(envelope, start, reach)
    peak_in = _peak(incident, min(max(start, -reach / 2), reach / 2), reach)
    carrier = (cmath.exp(1j * beta0 * scenario.d)
               if channel is Channel.TRANSMISSION else 1.0)
    ratio = abs(envelope(peak_out)[0]) / abs(incident(peak_in)[0])
    return (lo, filtered, carrier, envelope, coarse, peak_out,
            peak_out - peak_in, math.ldexp(ratio, exponent) * abs(carrier))


def propagate_pulse(scenario: Scenario, pulse: PulseSpec,
                    channel: Channel = Channel.TRANSMISSION
                    ) -> tuple[TimeSeries, PulseReport]:
    """Send the pulse through one channel at fixed incidence angle.

    Returns the output time series on the shared grid plus envelope
    measurements referenced to the incident pulse.  The envelope's shape is
    measured at any gap width; the series and ``peak_amplitude`` are the
    true output, which underflows to 0.0 past a few metres.  The series'
    values are synthesized when first read.
    """
    # the grid first: a request too large for memory fails before measuring
    t = time_grid(pulse, _DT_FACTOR, _PULSE_SPAN)
    lo, filtered, carrier, envelope, coarse, peak, delay, amplitude = \
        _propagated(scenario, pulse, channel)
    n, dt = len(t), _step(pulse, _DT_FACTOR)
    report = PulseReport(
        peak_time=delay,
        fwhm=_fwhm(envelope, coarse, n, dt, peak),
        shape_correlation=_shape_correlation(coarse, n, dt, pulse.sigma, peak),
        peak_amplitude=amplitude,
    )
    return TimeSeries(t, channel, lo, filtered, carrier), report


def differential_delay(scenario: Scenario, pulse: PulseSpec) -> float:
    """Peak-time difference, closed (d=0) minus gapped, in seconds.

    The two-measurement procedure: record the transmitted peak with the
    prisms closed, then with the gap open, and subtract.  The sign is
    reported as measured; the gapped pulse arrives later, so the value is
    negative in the evanescent regime, and its magnitude matches the
    fixed-angle phase-derivative delay at the carrier.
    t = 1 exactly without a gap, so the closed-prism peak time is exactly
    0.0 and only the gapped pulse is measured.
    """
    return 0.0 - _propagated(scenario, pulse, Channel.TRANSMISSION)[6]


def _front_window(scenario: Scenario, pulse: PulseSpec,
                  dt_factor: int) -> tuple[int, int, float, float]:
    """(first, n, dt, gamma T) of the front check: its n samples at
    (first + i) dt and its damping.  The first half of the window holds the
    measured span: from 1 fwhm before the front to 4 fwhm after the later
    of the pulse's peak and the vacuum arrival, and to at least d/c after
    the arrival.  Past the light line the fixed-k_x drive is a dispersive
    guide, whose output keeps growing long after the arrival: with the span
    ending 4 fwhm past it, the ratio read 5e-8 at 239 m and 6e-6 at 507 m.
    By d/c past it the components at c/2 and faster have arrived."""
    dt, delay = _step(pulse, dt_factor), scenario.d / scenario.c
    start = pulse.front_time - _FRONT_LEAD * pulse.fwhm
    end = (max(pulse.front_time + delay, 0.0)
           + max(_FRONT_TAIL * pulse.fwhm, delay))
    n = _grid_size(pulse, dt_factor, 2 * (end - start))
    return (math.floor(start / dt), n, dt,
            _DAMPING if dt_factor <= _DT_FACTOR else _DAMPING_REFINED)


def front_causality_check(scenario: Scenario, pulse: PulseSpec,
                          dt_factor: int = _DT_FACTOR) -> float:
    """Max |field| ahead of the vacuum front, over the transmitted peak.

    The pulse must carry a front (compact support).  The drive holds the
    carrier's transverse wavenumber for every frequency, the configuration
    whose exact relativistic bound is arrival at front_time + d/c; any
    output before that instant is synthesis floor, and the returned ratio
    must not grow under grid refinement.  ``dt_factor`` sets the samples
    per carrier period (at least 8).

    The field is synthesized on the damped contour of numerical Laplace
    inversion (H. Dubner and J. Abate, J. ACM 15, 115 (1968); M. Bouchon
    and K. Aki, BSSA 67, 259 (1977)).  The samples x(t) e^{-gamma (t - t_0)},
    t_0 the window's first, are transformed (``rfft``), multiplied by the
    conjugate of t at omega + i gamma, where the coefficient is analytic,
    transformed back (``irfft``) and multiplied by e^{gamma (t - t_0)}.
    Output that wraps around the window of length T returns damped by
    e^{-gamma T}: gamma T is 30, and 27 for a finer dt_factor, so that a
    wrap fails the self-convergence test.  Undamping amplifies the
    synthesis error late in the window, by up to e^{gamma T}, so both
    maxima are taken over the window's first half, which holds the measured
    span (``_front_window``) and where the amplification is at most e^15.

    The measure is the real field, which is exactly zero before the
    arrival.  Its analytic envelope is not the causal quantity: the Hilbert
    transform that forms it spreads the front over all time with a tail of
    1/t, which no window or damping removes, and which read 1.7e-7 of the
    peak before the front at d = 0, where the field reads 1e-17.

    The check holds one complex buffer of n + 1 bins and no grid: the
    damped samples are staged block by block in its upper n floats, their
    ``rfft`` written to its lower n/2 + 1 bins and multiplied by the
    conjugated coefficient block by block, and the ``irfft`` written back
    over the samples, whose undamped maxima are taken block by block.
    """
    if pulse.front_time is None:
        raise ValueError("front causality check needs a pulse with a front")
    _check_quasi_monochromatic(pulse)
    first, n, dt, damping = _front_window(scenario, pulse, dt_factor)
    # the samples before the arrival, and the pulse's live span: after the
    # front and within the Gaussian's reach (see ``sample_pulse``)
    k = _grid_index(first, n, dt, pulse.front_time + scenario.d / scenario.c)
    reach = _GAUSS_REACH * pulse.sigma
    lo = max(_grid_index(first, n, dt, -reach),
             _grid_index(first, n, dt, pulse.front_time, side="right"))
    hi = _grid_index(first, n, dt, reach)
    rate = damping / n  # gamma dt

    store = np.zeros(n + 1, dtype=complex)
    spectrum = store[:n // 2 + 1]
    samples = store.view(float)[n + 2:]  # past the rfft's n/2 + 1 bins
    for start in range(lo, hi, _BLOCK):
        i = np.arange(start, min(start + _BLOCK, hi))
        samples[start:start + len(i)] = (_pulse_samples(pulse, (i + first) * dt)
                                         * np.exp(-rate * i))
    if not samples[lo:hi].any():
        raise GridGuardError("the pulse is zero at every sample after its "
                             "front: no field to check")
    np.fft.rfft(samples, out=spectrum)
    for start in range(0, len(spectrum), _BLOCK):
        part = spectrum[start:start + _BLOCK]
        # conjugate: physical coefficients are defined for e^{-i omega t}
        np.multiply(part, np.conj(_damped_fixed_kx(scenario, _bin_frequencies(
            n, dt, start, start + len(part)), damping / (n * dt))), out=part)
    np.fft.irfft(spectrum, n, out=samples)

    def peak(begin, end):
        """The largest undamped |field| in [begin, end), NaN if any is."""
        return np.max([np.abs(samples[i:min(i + _BLOCK, end)] * np.exp(
            rate * np.arange(i, min(i + _BLOCK, end)))).max()
            for i in range(begin, end, _BLOCK)])

    before = peak(0, k)
    return float(before / np.maximum(before, peak(k, n // 2)))


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
