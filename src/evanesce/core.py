"""Physical configuration and derived wave numbers for the double-prism gap.

Geometry: a plane wave inside a dielectric prism (index ``n``) meets the
prism/air interface at angle ``theta`` from the normal.  A second, identical
prism sits a distance ``d`` away; the air gap between the two flat faces is
the tunneling barrier.  Beyond the critical angle ``arcsin(1/n)`` the gap
field is evanescent with decay constant

    kappa = (2 pi f / c) * sqrt(n^2 sin^2(theta) - 1)   [1/m]

All quantities are SI.  Angles are radians internally; degree conversion
belongs to the CLI layer.  A nonzero gap width is a normal double [m], and
so is the carrier's (omega/c)^2 [1/m^2].
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

C_VACUUM = 3.0e8          # m/s, rounded value used for all headline numbers
C_CODATA = 299_792_458.0  # m/s, exact SI value, selectable via Scenario.c
_MIN_GAP = sys.float_info.min  # m, the smallest positive gap width


class Polarization(str, Enum):
    TE = "TE"  # electric field perpendicular to the plane of incidence
    TM = "TM"  # magnetic field perpendicular to the plane of incidence


class RegimeError(ValueError):
    """Raised when an operation requires the evanescent-gap regime."""


def _require_array_size(count, what: str) -> None:
    """Raise MemoryError for more ``what`` (or inf) than numpy can size one
    complex array for (its intp is Py_ssize_t), where it raises ValueError."""
    if not count <= sys.maxsize // 16:
        raise MemoryError(f"too many {what} for one array")


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Scenario:
    """Physical configuration of one double-prism experiment.

    Parameters
    ----------
    n : float
        Prism refractive index (> 1).
    f : float
        Carrier frequency [Hz], with (omega/c)^2 a normal double.
    theta : float
        Incidence angle from the interface normal [rad], in (0, pi/2).
    d : float
        Gap width [m]: 0, or at least ``sys.float_info.min``.
    polarization : Polarization
        Field polarization; TE is the default.
    c : float
        Speed of light [m/s].  Defaults to the rounded 3e8 so quoted
        headline numbers reproduce exactly; pass C_CODATA for SI-exact work.
    """

    n: float
    f: float
    theta: float
    d: float
    polarization: Polarization = Polarization.TE
    c: float = C_VACUUM

    def __post_init__(self) -> None:
        for name in ("n", "f", "theta", "d", "c"):
            _require_finite(name, float(getattr(self, name)))
        if self.n <= 1:
            raise ValueError(f"refractive index must exceed 1, got n={self.n}")
        if self.f <= 0:
            raise ValueError(f"carrier frequency must be positive, got f={self.f}")
        if not 0 < self.theta < math.pi / 2:
            raise ValueError(
                f"incidence angle must lie in (0, pi/2) rad, got theta={self.theta}"
            )
        if self.d != 0 and not self.d >= _MIN_GAP:
            raise ValueError(f"gap width must be 0 or >= {_MIN_GAP} m, got d={self.d}")
        if self.c <= 0:
            raise ValueError(f"speed of light must be positive, got c={self.c}")
        k0 = self.omega / self.c
        if not sys.float_info.min <= k0 * k0 <= sys.float_info.max:
            raise ValueError(
                "carrier frequency out of range: (omega/c)^2 must be a normal "
                f"double, got {k0 * k0!r} at f={self.f}")
        object.__setattr__(self, "polarization", Polarization(self.polarization))

    @property
    def omega(self) -> float:
        """Carrier angular frequency [rad/s]."""
        return 2 * math.pi * self.f

    @property
    def is_tunneling(self) -> bool:
        """True iff the gap wave is evanescent: kappa's radicand is > 0."""
        return _radicand(self) > 0

    def require_tunneling(self) -> None:
        if not self.is_tunneling:
            raise RegimeError(
                f"theta {math.degrees(self.theta):.2f} deg is below the "
                f"critical angle {math.degrees(critical_angle(self.n)):.2f} deg "
                f"for n={self.n}; this command needs the evanescent regime"
            )


@dataclass(frozen=True)
class Wavevectors:
    """Propagation constants of a scenario at its carrier.

    ``kappa`` is the gap decay constant in the evanescent regime and 0
    otherwise; below the critical angle the gap carries the real normal
    wavenumber sqrt(``k_z_gap_sq``) instead.
    """

    k_x: float         # 1/m, interface-parallel (conserved)
    k_z_prism: float   # 1/m, normal component inside the prism
    kappa: float       # 1/m, evanescent decay constant (0 when propagating)
    k_z_gap_sq: float  # 1/m^2, (omega/c)^2 (1 - n^2 sin^2 theta)


@dataclass(frozen=True)
class PulseSpec:
    """Temporal envelope riding on the carrier.

    ``fwhm`` is the full width at half maximum of the *intensity* envelope.
    A plain Gaussian has ``front_time=None``.  Setting ``front_time`` gives
    the envelope a strict front: it is identically zero before that instant
    and turns on smoothly over ``front_rise`` seconds (default fwhm/16), so
    the signal has compact support without a sampling-hostile jump.
    """

    fwhm: float
    carrier: float
    front_time: float | None = None
    front_rise: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.fwhm) and self.fwhm > 0):
            raise ValueError(f"fwhm must be positive and finite, got {self.fwhm}")
        if not (math.isfinite(self.carrier) and self.carrier > 0):
            raise ValueError(f"carrier must be positive and finite, got {self.carrier}")
        if self.front_time is not None and not math.isfinite(self.front_time):
            raise ValueError(f"front_time must be finite, got {self.front_time}")
        if self.front_rise is not None and not (
            math.isfinite(self.front_rise) and self.front_rise > 0
        ):
            raise ValueError(f"front_rise must be positive, got {self.front_rise}")

    @property
    def sigma(self) -> float:
        """Gaussian field-envelope standard deviation [s]."""
        return self.fwhm / (2 * math.sqrt(math.log(2)))

    @property
    def rise(self) -> float:
        """Front turn-on duration [s] (only meaningful with a front)."""
        return self.front_rise if self.front_rise is not None else self.fwhm / 16


@dataclass(frozen=True)
class BeamSpec:
    """Transverse Gaussian beam, ``waist`` = 1/e field half-width [m]."""

    waist: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.waist) and self.waist > 0):
            raise ValueError(f"waist must be positive and finite, got {self.waist}")


def critical_angle(n: float) -> float:
    """Total-internal-reflection critical angle arcsin(1/n) [rad]."""
    if not (math.isfinite(n) and n > 1):
        raise ValueError(f"total internal reflection requires n > 1, got n={n}")
    return math.asin(1.0 / n)


def vacuum_wavelength(f: float, c: float = C_VACUUM) -> float:
    """Vacuum wavelength c/f [m]."""
    if not (math.isfinite(f) and f > 0):
        raise ValueError(f"frequency must be positive, got {f}")
    return c / f


def pulse_spatial_extent(pulse: PulseSpec, c: float = C_VACUUM) -> float:
    """Spatial length c * fwhm [m] of the pulse envelope in vacuum."""
    return c * pulse.fwhm


def _radicand(scenario: Scenario) -> float:
    """n^2 sin^2(theta) - 1, kappa's radicand: the one test of the regime,
    evanescent iff > 0.  Decided on the radicand itself, since kappa and
    ``k_z_gap_sq`` scale it by omega/c and (omega/c)^2, and the latter
    underflows at the lowest carriers just past the critical angle."""
    return scenario.n * scenario.n * math.sin(scenario.theta) ** 2 - 1.0


def wavevectors(scenario: Scenario) -> Wavevectors:
    """Propagation constants for ``scenario`` at its carrier omega.

    ``kappa`` follows the attenuation-constant formula
    (omega/c) sqrt(n^2 sin^2(theta) - 1) in the evanescent regime and is 0
    below the critical angle; ``k_z_gap_sq`` is -(omega/c)^2 times the
    radicand.
    """
    n, th, c, omega = scenario.n, scenario.theta, scenario.c, scenario.omega
    k_prism, k0 = n * omega / c, omega / c
    radicand = _radicand(scenario)
    return Wavevectors(
        k_x=k_prism * math.sin(th), k_z_prism=k_prism * math.cos(th),
        kappa=k0 * math.sqrt(radicand) if radicand > 0 else 0.0,
        k_z_gap_sq=-(k0 * k0) * radicand)


def _tm_weighted(scenario: Scenario, value):
    """``value``/n^2 for TM, ``value`` for TE: the 1/eps weight of the
    prism's normal wavenumber in the H_y matching and of the TM flux."""
    if scenario.polarization is Polarization.TM:
        return value / scenario.n ** 2
    return value
