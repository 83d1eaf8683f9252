import math
import subprocess
import sys
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from evanesce import (
    C_CODATA, C_VACUUM, Polarization, PulseSpec, Scenario, critical_angle,
    pulse_spatial_extent, vacuum_wavelength, wavevectors,
)
from conftest import random_scenario


def mp_kappa(n, f_ghz, theta_deg):
    """High-precision decay constant, evaluated independently with mpmath."""
    with mpmath.workdps(50):
        f = mpmath.mpf(f_ghz) * mpmath.mpf(10) ** 9
        th = mpmath.radians(mpmath.mpf(theta_deg))
        val = (2 * mpmath.pi * f / mpmath.mpf(3e8)
               * mpmath.sqrt((mpmath.mpf(n) * mpmath.sin(th)) ** 2 - 1))
        return float(val)


class TestWavevectors:
    def test_headline_kappa(self, headline):
        assert abs(wavevectors(headline).kappa - 101.41) <= 0.01

    def test_kappa_zero_at_critical_angle(self):
        # float roundtrip can leave n*sin(theta) one ulp above 1
        s = Scenario(n=1.6, f=9.15e9, theta=math.asin(1 / 1.6), d=0.04)
        assert wavevectors(s).kappa == pytest.approx(0.0, abs=1e-4)
        s_below = Scenario(n=1.6, f=9.15e9, theta=math.asin(1 / 1.6) - 1e-12, d=0.04)
        assert wavevectors(s_below).kappa == 0.0

    def test_kappa_9p72_ghz(self):
        s = Scenario(n=1.6, f=9.72e9, theta=math.radians(45), d=0.04)
        oracle = mp_kappa(1.6, 9.72, 45)
        assert abs(wavevectors(s).kappa - oracle) <= 1e-10 * oracle
        assert abs(oracle - 107.72) < 0.01

    def test_components(self, headline):
        wv = wavevectors(headline)
        k = headline.n * headline.omega / headline.c
        assert wv.k_x == pytest.approx(k * math.sin(headline.theta), rel=1e-15)
        assert wv.k_z_prism == pytest.approx(k * math.cos(headline.theta), rel=1e-15)

    def test_two_kappa_routes_agree(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            s = random_scenario(rng, tunneling=True)
            wv = wavevectors(s)
            other = math.sqrt(wv.k_x ** 2 - (s.omega / s.c) ** 2)
            assert abs(wv.kappa - other) <= 1e-12 * other

    def test_kappa_monotone_in_frequency(self):
        kappas = [
            wavevectors(Scenario(n=1.6, f=f, theta=math.radians(45), d=0.04)).kappa
            for f in np.linspace(2e9, 40e9, 40)
        ]
        assert all(b > a for a, b in zip(kappas, kappas[1:]))

    def test_critical_angle_is_kappa_root(self):
        # bisection on the tunneling indicator must land on arcsin(1/n)
        for n in (1.3, 1.6, 2.2):
            lo, hi = 0.01, math.pi / 2 - 0.01

            def evanescent(theta):
                s = Scenario(n=n, f=9.15e9, theta=theta, d=0.01)
                return wavevectors(s).kappa > 0

            assert not evanescent(lo) and evanescent(hi)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if evanescent(mid):
                    hi = mid
                else:
                    lo = mid
            assert abs(hi - critical_angle(n)) < 1e-10


class TestCriticalAngle:
    def test_n16(self):
        with mpmath.workdps(50):
            oracle = float(mpmath.degrees(mpmath.asin(mpmath.mpf(1) / mpmath.mpf("1.6"))))
        assert math.degrees(critical_angle(1.6)) == pytest.approx(oracle, abs=1e-12)
        assert math.degrees(critical_angle(1.6)) == pytest.approx(38.682, abs=5e-4)

    def test_limit_n_to_one(self):
        assert math.degrees(critical_angle(1.0000001)) > 89.9

    def test_n2_exact(self):
        assert critical_angle(2.0) == pytest.approx(math.pi / 6, rel=1e-15)

    def test_rejects_n_below_one(self):
        for bad in (1.0, 0.5, math.nan):
            with pytest.raises(ValueError):
                critical_angle(bad)


class TestWavelengthAndExtent:
    def test_headline_wavelength(self):
        assert abs(vacuum_wavelength(9.15e9) - 0.0328) <= 1e-4

    def test_definition(self):
        assert vacuum_wavelength(C_VACUUM) == 1.0

    def test_8345_mhz(self):
        assert vacuum_wavelength(8.345e9) == pytest.approx(0.03595, abs=1e-5)

    def test_extent_16ns(self):
        assert pulse_spatial_extent(PulseSpec(fwhm=16e-9, carrier=9.15e9)) \
            == pytest.approx(4.8, rel=1e-12)

    def test_extent_100ps(self):
        assert pulse_spatial_extent(PulseSpec(fwhm=100e-12, carrier=9.15e9)) \
            == pytest.approx(0.03, rel=1e-12)

    def test_extent_vanishes_with_width(self):
        assert pulse_spatial_extent(PulseSpec(fwhm=1e-18, carrier=9.15e9)) < 1e-9

    def test_rejects_bad_frequency(self):
        with pytest.raises(ValueError):
            vacuum_wavelength(0.0)


class TestScenario:
    def test_validation(self):
        good = dict(n=1.6, f=9.15e9, theta=0.7, d=0.04)
        Scenario(**good)
        for field, bad in [("n", 1.0), ("n", math.inf), ("f", 0.0),
                           ("theta", 0.0), ("theta", math.pi / 2),
                           ("d", -1e-3), ("c", 0.0)]:
            with pytest.raises(ValueError):
                Scenario(**{**good, field: bad})

    def test_subnormal_gap_rejected(self):
        # a subnormal width carries too few significant bits: the bound is
        # the smallest normal double, in metres
        good = dict(n=1.6, f=9.15e9, theta=0.7)
        for d in (0.0, sys.float_info.min, 1e-303):
            assert Scenario(**good, d=d).d == d
        for d in (1e-310, 5e-324, math.nextafter(sys.float_info.min, 0.0)):
            with pytest.raises(ValueError, match="gap width must be 0 or >="):
                Scenario(**good, d=d)

    def test_tunneling_flag(self):
        assert Scenario(n=1.6, f=9.15e9, theta=math.radians(45), d=0.04).is_tunneling
        assert not Scenario(n=1.6, f=9.15e9, theta=math.radians(30), d=0.04).is_tunneling

    def test_tunneling_decided_past_the_underflow_of_kappa(self):
        # a carrier whose (omega/c)^2 is not a normal double is rejected; at
        # the lowest one accepted, k_z_gap_sq = -(omega/c)^2 times a
        # radicand of 2.2e-16 underflows, and the regime is still a
        # property of n and theta alone
        for f in (1e-320, 1e-154, 1e169):
            with pytest.raises(ValueError, match="must be a normal double"):
                Scenario(n=1.6, f=f, theta=math.radians(45), d=0.04)
        f = 7.2e-147  # (omega/c)^2 = 2.3e-308
        for theta, tunneling in ((38.68218745348944, True),
                                 (38.682187453489, False), (45.0, True)):
            s = Scenario(n=1.6, f=f, theta=math.radians(theta), d=0.04)
            assert s.is_tunneling is tunneling
            assert s.is_tunneling is replace(s, f=9.15e9).is_tunneling
        wv = wavevectors(Scenario(n=1.6, f=f, theta=math.radians(
            38.68218745348944), d=0.04))
        assert wv.kappa > 0 and wv.k_z_gap_sq > -1e-322

    def test_polarization_coercion(self):
        s = Scenario(n=1.6, f=9.15e9, theta=0.8, d=0.04, polarization="TM")
        assert s.polarization is Polarization.TM

    def test_codata_c(self):
        s = Scenario(n=1.6, f=9.15e9, theta=math.radians(45), d=0.04, c=C_CODATA)
        # slightly different kappa under the exact constant
        assert wavevectors(s).kappa == pytest.approx(
            101.4048 * C_VACUUM / C_CODATA, rel=1e-6)

    def test_pulse_spec_validation(self):
        PulseSpec(fwhm=16e-9, carrier=9.15e9, front_time=-1e-9)
        for kwargs in (dict(fwhm=0.0, carrier=1e9),
                       dict(fwhm=1e-9, carrier=0.0),
                       dict(fwhm=1e-9, carrier=1e9, front_time=math.inf),
                       dict(fwhm=1e-9, carrier=1e9, front_rise=0.0)):
            with pytest.raises(ValueError):
                PulseSpec(**kwargs)


def test_import_leaves_scipy_out():
    # scipy is only a test dependency; the library must not import it.
    # Neither `import evanesce` nor `python -m evanesce attenuation` may
    # load a top-level package outside numpy, evanesce and the standard
    # library beyond what the interpreter loaded at startup: every fresh
    # CLI run pays for what the import path loads
    start = "import sys; loaded = {m.split('.')[0] for m in sys.modules}\n"
    report = ("print(sorted({m.split('.')[0] for m in sys.modules} - loaded"
              " - set(sys.stdlib_module_names) - {'numpy', 'evanesce'}))")
    run_cli = ("import runpy; sys.argv = ['evanesce', 'attenuation']\n"
               "try:\n    runpy.run_module('evanesce', run_name='__main__')\n"
               "except SystemExit:\n    pass\n")
    for code in ("import evanesce\n", run_cli):
        proc = subprocess.run([sys.executable, "-c", start + code + report],
                              capture_output=True, text=True, check=True)
        assert proc.stdout.splitlines()[-1] == "[]", code
