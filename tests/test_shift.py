"""The one Goos-Hanchen shift kernel, ``delay._shift``, against mpmath.

The reference (``grazing_reference.shift``) differentiates D = 1/t in
k_x with ``mp.diff`` at 60 digits, so it shares no formula with the
kernel's three forms: the Taylor series in phi^2 where |phi| < 1, the
scaled evanescent form and the propagating form.  Near the critical
angle the shift was the difference of two terms growing as 1/kappa^2 and
lost its digits: at a radicand of 2.2e-16, 4.19921875 cm against 4.2924.
A beam's shift is the |S c|^2-weighted mean of the kernel over its
spectrum; from the profile's centroid it read the round-off of abscissae
of 1e15 m at a 1e16-wavelength waist.
"""

import itertools
import json
import math
import warnings

import numpy as np
import pytest

from evanesce import Polarization, Scenario, cli, vacuum_wavelength, wavevectors
from evanesce.delay import _shift
from evanesce.scattering import _normal_wavenumbers
import grazing_reference as ref

RADICANDS = [10.0 ** e for e in range(-15, -1)]
GAPS_M = [10.0 ** e for e in range(-3, 3)]
DEFECT_THETA_DEG = "38.68218745348944"  # n = 1.6: the radicand is 2.2e-16


def cli_json(capsys, *argv):
    assert cli.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("polarization", list(Polarization))
@pytest.mark.parametrize("regime", ["evanescent", "propagating"])
def test_kernel_matches_mpmath(polarization, regime):
    # the gap radicand (c k_x/omega)^2 - 1 at +-1e-15 ... 1e-2, i.e.
    # beta = i kappa as at a carrier past the critical angle, or real as
    # at the beam's bins beyond the gap light line; beta is exact in both
    # sides, so a phase of hundreds of radians carries no rounding of it
    for radicand, d in itertools.product(RADICANDS, GAPS_M):
        s = Scenario(n=1.6, f=9.15e9, theta=math.radians(60), d=d,
                     polarization=polarization)
        root = s.omega / s.c * math.sqrt(radicand)
        beta = complex(0.0, root) if regime == "evanescent" else complex(root)
        k_x, alpha, k_x_double = ref.with_beta(s, beta)
        got = _shift(s, alpha, beta, k_x_double, np.array([d]))[0]
        assert ref.rel_error(got, ref.shift(s, k_x)) <= 1e-13, (radicand, d)


@pytest.mark.parametrize("polarization", list(Polarization))
@pytest.mark.parametrize("theta_deg", [45.0, 30.0])
def test_beam_bins_match_mpmath(polarization, theta_deg):
    # every 16th of the headline beam's live bins as beam_centroid_shift
    # forms them; above and below the critical angle the band straddles
    # the gap light line, so both regimes and all three forms are met
    s = Scenario(n=1.6, f=9.15e9, theta=math.radians(theta_deg), d=0.04,
                 polarization=polarization)
    kx0, waist = wavevectors(s).k_x, 20 * vacuum_wavelength(s.f)
    k_rel = 2 * math.pi * np.fft.fftfreq(4096, 32 * waist / 4096)
    kx = kx0 + k_rel[np.abs(k_rel) < 60][::16]
    alpha, beta = _normal_wavenumbers(s, s.omega, kx)
    got = _shift(s, alpha, beta, kx, s.d)
    assert np.any(beta.real > 0) and np.any(beta.imag > 0)
    for k, value in zip(kx, got):
        assert ref.rel_error(value, ref.shift(s, ref.beam_k_x(s, k, kx0))) \
            <= 1e-13, k


def test_critical_angle_hartman_column(capsys):
    # s_cm took the quantized values 0.585938, 0.976562, 1.75781, ...
    assert cli.main(["hartman", "--theta-deg", DEFECT_THETA_DEG]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    s_cm = [row.split(",")[2] for row in rows]
    assert s_cm[0] == "0.582889"
    # each printed as the CLI prints it (%.6g), from mpmath at exact theta
    for d_mm, value in zip(range(5, 55, 5), s_cm):
        s = Scenario(n=1.6, f=9.15e9, theta=math.radians(float(DEFECT_THETA_DEG)),
                     d=d_mm * 1e-3)
        assert value == f"{float(ref.shift(s)) * 100:.6g}", d_mm


def test_critical_angle_gh_shift(capsys):
    # the float radicand 2.2e-16 misses the exact one by ~1e-16, which
    # moves s by far less than its rounding at phi = kappa d ~ 1e-6
    payload = cli_json(capsys, "beam", "--theta-deg", DEFECT_THETA_DEG)
    s = Scenario(n=1.6, f=9.15e9, theta=math.radians(float(DEFECT_THETA_DEG)),
                 d=0.04)
    assert payload["gh_shift_cm"] == pytest.approx(4.29240198067, rel=1e-11)
    assert ref.rel_error(payload["gh_shift_cm"] / 100, ref.shift(s)) <= 1e-13


@pytest.mark.parametrize("waist_wavelengths", ["1e14", "1e16", "1e300"])
def test_wide_waist_beam_gives_gh_shift(waist_wavelengths, capsys):
    # the spatial centroid read -1.2467 cm at 1e16 and -1.6e284 at 1e300
    payload = cli_json(capsys, "beam", "--waist-wavelengths", waist_wavelengths)
    assert payload["centroid_shift_cm"] == pytest.approx(
        payload["gh_shift_cm"], rel=1e-12)
    assert payload["centroid_cm"] == payload["centroid_shift_cm"]
    assert payload["gh_shift_cm"] == pytest.approx(1.96703579154469, rel=1e-12)


@pytest.mark.parametrize("d_mm", ["1e300", "1e308"])
def test_beam_shift_finite_at_any_phase(d_mm, capsys):
    # the beam's propagating components reach phi = beta d ~ 1e307 rad,
    # whose rounding e is past 2^53 rad: sin(phi + e) stays bounded, and
    # s ~ d k_x/beta past the light line, of order d itself
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        payload = cli_json(capsys, "beam", "--d-mm", d_mm)
    d_m, shift_m = float(d_mm) / 1000, payload["centroid_shift_cm"] / 100
    assert 0.1 * d_m < shift_m < math.inf
