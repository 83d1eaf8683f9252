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
    Channel, DegenerateChannelError, DelayBreakdown, channel_phase,
    delay_implied_by_shift, goos_hanchen_shift, hartman_sweep, phase_delay,
    shift_implied_by_delay, total_group_delay,
)
from .energy import (
    EnergyBudget, GapFieldProfile, evanescent_vs_free_energy, gap_field,
    stored_energy, train_model, train_model_geometric,
)
from .wavesynth import (
    BeamProfile, GridGuardError, PulseReport, TimeSeries, beam_centroid_shift,
    differential_delay, front_causality_check, propagate_pulse,
    quasi_static_ratio,
)
from .sweep import SweepTable

__all__ = [
    "BeamProfile", "BeamSpec", "C_CODATA", "C_VACUUM", "Channel",
    "DegenerateChannelError", "DelayBreakdown", "EnergyBudget",
    "GapFieldProfile", "GridGuardError", "Polarization", "PulseReport",
    "PulseSpec", "RegimeError", "ScatterResult", "Scenario", "SweepTable",
    "TimeSeries", "Wavevectors", "approx_transmission",
    "attenuation_db_per_mm", "beam_centroid_shift", "channel_phase",
    "critical_angle", "delay_implied_by_shift", "differential_delay",
    "evanescent_vs_free_energy", "front_causality_check", "gap_field",
    "gap_attenuation_db", "goos_hanchen_shift", "hartman_sweep", "phase_delay",
    "propagate_pulse", "pulse_spatial_extent",
    "quasi_static_ratio", "scatter", "shift_implied_by_delay",
    "stored_energy", "total_group_delay", "train_model",
    "train_model_geometric", "vacuum_wavelength", "wavevectors",
]
