"""Evanescent-gap (frustrated total internal reflection) simulation library.

Reproduces the double-prism microwave tunneling observables from Maxwell
boundary matching: gap attenuation, group delay and its Goos-Hanchen
decomposition, stored-energy saturation, pulse shape preservation, and
front causality.
"""

__version__ = "0.1.0"

from .core import (
    C_CODATA, C_VACUUM, BeamSpec, Polarization, PulseSpec, RegimeError,
    Scenario, Wavevectors, critical_angle, pulse_spatial_extent,
    vacuum_wavelength, wavevectors,
)
from .scattering import (
    ScatterResult, approx_transmission, attenuation_db_per_mm,
    gap_attenuation_db, scatter,
)
from .delay import (
    Channel, DegenerateChannelError, DelayBreakdown, goos_hanchen_shift,
    hartman_sweep, total_group_delay,
)
from .energy import (
    EnergyBudget, evanescent_vs_free_energy, stored_energy, train_model,
)
from .wavesynth import (
    BeamProfile, GridGuardError, PulseReport, TimeSeries, beam_centroid_shift,
    differential_delay, front_causality_check, propagate_pulse,
    quasi_static_ratio,
)

__all__ = [
    "BeamProfile", "BeamSpec", "C_CODATA", "C_VACUUM", "Channel",
    "DegenerateChannelError", "DelayBreakdown", "EnergyBudget",
    "GridGuardError", "Polarization", "PulseReport", "PulseSpec",
    "RegimeError", "ScatterResult", "Scenario", "TimeSeries", "Wavevectors",
    "approx_transmission", "attenuation_db_per_mm", "beam_centroid_shift",
    "critical_angle", "differential_delay", "evanescent_vs_free_energy",
    "front_causality_check", "gap_attenuation_db", "goos_hanchen_shift",
    "hartman_sweep", "propagate_pulse", "pulse_spatial_extent",
    "quasi_static_ratio", "scatter", "stored_energy", "total_group_delay",
    "train_model", "vacuum_wavelength", "wavevectors",
]
