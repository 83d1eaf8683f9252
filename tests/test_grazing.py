"""The one-alpha rule against mpmath, from 45 degrees to grazing.

Every alpha and beta is the carrier's (alpha_0 = (n omega_0/c) cos(theta),
beta_0^2 from the radicand of kappa) moved by an exact increment, so no
subtraction of nearly equal squares rounds them near grazing.  The
reference (``grazing_reference``) forms k_x and alpha from theta in
mpmath.  At 89.999999 deg the subtraction (n omega/c)^2 - k_x^2 put |t|^2
off by 1.6e-2, and at 89.9999999 deg, where sin(theta) rounds to 1.0, it
left no propagating k_x at all.
"""

import math

import numpy as np
import pytest

from evanesce import (
    Channel, Polarization, PulseSpec, Scenario, scatter, stored_energy,
    vacuum_wavelength, wavevectors,
)
from evanesce import wavesynth
from evanesce.energy import incident_flux, integrated_density
from evanesce.scattering import _normal_wavenumbers
from evanesce.wavesynth import _GAUSS_REACH, _coefficient
import grazing_reference as ref

ANGLES_DEG = (45.0, 89.0, 89.9999, 89.999999, 89.9999999)
PULSE = PulseSpec(fwhm=16e-9, carrier=9.15e9)
FRONT = PulseSpec(fwhm=16e-9, carrier=9.15e9, front_time=-3 * PULSE.sigma)
TOL = 1e-14


@pytest.fixture(params=[(a, p) for a in ANGLES_DEG for p in Polarization],
                ids=lambda ap: f"{ap[0]}-{ap[1].value}")
def scenario(request):
    theta_deg, polarization = request.param
    return Scenario(n=1.6, f=9.15e9, theta=math.radians(theta_deg), d=0.04,
                    polarization=polarization)


def live_band(scenario, pulse, dt_factor, span_factor):
    """Every 16th bin of the grid within the Gaussian's reach of the carrier."""
    n = len(wavesynth.time_grid(pulse, dt_factor, span_factor))
    omegas = 2 * math.pi * np.fft.rfftfreq(n, wavesynth._step(pulse, dt_factor))
    return omegas[np.abs(omegas - scenario.omega)
                  <= _GAUSS_REACH / pulse.sigma][::16]


def assert_close(got, want, what):
    errors = [ref.rel_error(g, w) for g, w in zip(got, want)]
    assert max(errors) <= TOL, (what, max(errors))


class TestCarrier:
    def test_scatter(self, scenario):
        r, t = ref.carrier_coefficients(scenario)
        res = scatter(scenario)
        assert_close([res.r, res.t], [r, t], "carrier r, t")

    def test_dwell_time(self, scenario):
        dwell = integrated_density(scenario) / incident_flux(scenario)
        assert_close([dwell], [ref.dwell_time(scenario)], "dwell time")
        assert stored_energy(scenario).dwell_time == dwell


class TestDrives:
    """``_coefficient`` on each drive of the synthesis, over its band."""

    @pytest.mark.parametrize("channel", list(Channel))
    def test_fixed_angle_on_the_pulse_band(self, scenario, channel):
        # transmission relative to the carrier's e^{i beta_0 d}
        omegas = live_band(scenario, PULSE, 16, 16)
        want = [ref.fixed_angle(scenario, w)[channel is Channel.TRANSMISSION]
                for w in omegas]
        assert_close(wavesynth._fixed_angle(scenario, channel, omegas), want,
                     "fixed angle")

    def test_fixed_kx_on_the_front_band(self, scenario):
        # the front pulse's spectrum spans every bin; its weight lies in
        # the Gaussian's band, which holds the prism cutoff near grazing
        omegas = live_band(scenario, FRONT, 16, 64)
        want = [ref.fixed_kx(scenario, w)[1] for w in omegas]
        assert_close(wavesynth._fixed_kx(scenario, omegas), want, "fixed k_x")

    @pytest.mark.parametrize("channel", list(Channel))
    def test_fixed_omega_on_the_beam_grid(self, scenario, channel):
        # the tunnelling k_x of a 20-wavelength beam's grid, as
        # beam_centroid_shift forms them, where its spectrum is nonzero
        # (near grazing the beam itself spills past the prism cone)
        waist = 20 * vacuum_wavelength(scenario.f)
        kx0 = wavevectors(scenario).k_x
        k_rel = 2 * math.pi * np.fft.fftfreq(4096, 32 * waist / 4096)
        kx = kx0 + k_rel
        k0 = scenario.omega / scenario.c
        kx = kx[(kx > k0) & (kx < scenario.n * k0 * (1 - 1e-12))
                & (np.abs(k_rel) * waist < 54)][::4]
        assert len(kx) > 10
        got = _coefficient(scenario, *_normal_wavenumbers(
            scenario, scenario.omega, kx), channel)
        want = [ref.fixed_omega(scenario, k, kx0)[channel is Channel.TRANSMISSION]
                for k in kx]
        assert_close(got, want, "fixed omega")
