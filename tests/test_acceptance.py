"""Acceptance gate: every headline number and property at its tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them all).
Everything here is desk-scale; the whole module runs in well under a
minute.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from evanesce import (
    BeamSpec, Channel, PulseSpec, Scenario, approx_transmission,
    attenuation_db_per_mm, beam_centroid_shift, front_causality_check,
    gap_attenuation_db, goos_hanchen_shift, hartman_sweep, propagate_pulse,
    pulse_spatial_extent, scatter, stored_energy, total_group_delay,
    train_model, vacuum_wavelength, wavevectors,
)
from conftest import HEADLINE, random_scenario
from test_cli import parse_report, run_cli
from test_scattering import boundary_solve

SCENARIO = Scenario(**HEADLINE)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_decay_constant():
    kappa = wavevectors(SCENARIO).kappa
    report("criterion 01 (kappa, 3e8 constant)",
           abs(kappa - 101.41) <= 0.01,
           f"kappa = {kappa:.4f} 1/m vs 101.41 +/- 0.01")


def test_criterion_02_db_per_mm():
    db = attenuation_db_per_mm(SCENARIO)
    report("criterion 02 (attenuation per mm)",
           abs(db - (-0.88)) <= 0.005,
           f"{db:.5f} dB/mm vs -0.88 +/- 0.005")


def test_criterion_03_gap_attenuation():
    db40 = gap_attenuation_db(SCENARIO)
    db1m = gap_attenuation_db(replace(SCENARIO, d=1.0))
    log_t = math.log10(approx_transmission(replace(SCENARIO, d=1.0)))
    ok = (abs(db40 - 35.2) <= 0.1 and abs(db1m - 880) <= 1
          and abs(log_t - (-88.1)) <= 0.1)
    report("criterion 03 (gap attenuation)", ok,
           f"40mm: {db40:.2f} dB (35.2 +/- 0.1); 1m: {db1m:.1f} dB (880 +/- 1); "
           f"log10 T = {log_t:.2f} (-88.1 +/- 0.1)")


def test_criterion_04_transmission():
    t = approx_transmission(SCENARIO)
    report("criterion 04 (4 cm transmission)",
           abs(t / 3e-4 - 1) <= 0.03,
           f"T = {t:.4e} vs 3e-4 +/- 3%")


def test_criterion_05_wavelength_and_extent():
    lam = vacuum_wavelength(SCENARIO.f)
    extent = pulse_spatial_extent(PulseSpec(fwhm=16e-9, carrier=SCENARIO.f))
    ok = abs(lam - 0.0328) <= 1e-4 and abs(extent - 4.8) <= 1e-9
    report("criterion 05 (wavelength, pulse extent)", ok,
           f"lambda = {lam * 100:.4f} cm (3.28 +/- 0.01); extent = {extent} m (4.8)")


def test_criterion_06_delay_shift_inversion():
    # n sin(theta)/c, the inverse trace speed along the interface, converts
    # a saturated delay into the lateral shift that carries it and back
    slowness = SCENARIO.n * math.sin(SCENARIO.theta) / SCENARIO.c
    shift = 100e-12 / slowness
    tau = 2.65e-2 * slowness
    ok = abs(shift / 2.65e-2 - 1) <= 0.005 and abs(tau / 100e-12 - 1) <= 0.005
    report("criterion 06 (100 ps <-> 2.65 cm)", ok,
           f"100 ps -> s = {shift * 100:.4f} cm; 2.65 cm -> {tau * 1e12:.2f} ps "
           "(both +/- 0.5%)")


def test_criterion_07_unitarity_and_oracle():
    rng = np.random.default_rng(1007)
    worst_unitarity = 0.0
    for _ in range(1000):
        s = random_scenario(rng, tunneling=bool(rng.random() < 0.5))
        res = scatter(s)
        worst_unitarity = max(worst_unitarity,
                              abs(abs(res.r) ** 2 + abs(res.t) ** 2 - 1))
    worst_oracle = 0.0
    for _ in range(200):
        s = random_scenario(rng, tunneling=bool(rng.random() < 0.5))
        res = scatter(s)
        r, c_amp, d_amp, t = boundary_solve(s)
        for got, want in [(res.r, r), (res.t, t)]:
            worst_oracle = max(worst_oracle,
                               abs(got - want) / max(1.0, abs(want)))
    ok = worst_unitarity <= 1e-12 and worst_oracle <= 1e-10
    report("criterion 07 (unitarity + oracle)", ok,
           f"max | |r|^2+|t|^2 - 1 | = {worst_unitarity:.2e} (<=1e-12); "
           f"max oracle deviation = {worst_oracle:.2e} (<=1e-10)")


def test_criterion_08_channel_delay_equality():
    rng = np.random.default_rng(1008)
    worst = 0.0
    for _ in range(100):
        s = random_scenario(rng)
        tg_t = total_group_delay(s, Channel.TRANSMISSION).group_delay
        tg_r = total_group_delay(s, Channel.REFLECTION).group_delay
        worst = max(worst, abs(tg_t - tg_r) / abs(tg_t))
    report("criterion 08 (transmission = reflection delay)",
           worst < 1e-6, f"max relative difference = {worst:.2e} (<1e-6)")


def test_criterion_09_hartman_saturation():
    kappa = wavevectors(SCENARIO).kappa
    d_values = list(np.linspace(5e-3, 50e-3, 10))
    sweep = hartman_sweep(SCENARIO, d_values)
    tau0 = np.abs(sweep.phase_delay)
    tau_g = sweep.group_delay

    # tau0 negligible beyond twice the in-medium wavelength, and also at
    # twice the vacuum wavelength (outside the swept range)
    lam_medium = vacuum_wavelength(SCENARIO.f) / SCENARIO.n
    in_range = [i for i, d in enumerate(d_values) if d > 2 * lam_medium]
    assert in_range, "sweep must reach past twice the in-medium wavelength"
    small_tail = all(tau0[i] < 0.05 * tau_g[i] for i in in_range)
    d_2lam = 2 * vacuum_wavelength(SCENARIO.f)
    bd = total_group_delay(replace(SCENARIO, d=d_2lam), Channel.TRANSMISSION)
    small_2lam = abs(bd.phase_delay) < 0.05 * bd.group_delay

    flat = abs(tau_g[-1] / tau_g[7] - 1) < 0.01  # 40 mm vs 50 mm rows

    # stored-energy profile against the decaying-exponential law in the
    # dominant-term window (kd in [3.5, 6])
    kds_dom = np.linspace(3.5, 6.0, 8)
    stored = np.array([stored_energy(replace(SCENARIO, d=kd / kappa)).stored
                       for kd in kds_dom])
    model = 1 - np.exp(-2 * kds_dom)
    dev_energy = float(np.max(np.abs(stored / stored[-1] - model / model[-1])))

    # dwell-time saturation tracks the group delay over kd in [2, 6]
    kds = np.linspace(2.0, 6.0, 9)
    dwell = np.array([stored_energy(replace(SCENARIO, d=kd / kappa)).dwell_time
                      for kd in kds])
    taus = np.array([
        total_group_delay(replace(SCENARIO, d=kd / kappa),
                          Channel.TRANSMISSION).group_delay for kd in kds])
    dev_dwell = float(np.max(np.abs(dwell / dwell[-1] - taus / taus[-1])))

    ok = small_tail and small_2lam and flat and dev_energy < 0.02 and dev_dwell < 0.05
    report("criterion 09 (Hartman saturation)", ok,
           f"tau0 < 5% of tau_g beyond 2 wavelengths: {small_tail and small_2lam}; "
           f"tau_g 40->50 mm change {abs(tau_g[-1] / tau_g[7] - 1):.2e} (<1%); "
           f"energy profile vs 1-e^-2kd: {dev_energy:.4f} (<0.02); "
           f"dwell vs tau_g profile: {dev_dwell:.4f} (<0.05)")


def test_criterion_10_pulse_shape_preservation():
    pulse = PulseSpec(fwhm=16e-9, carrier=SCENARIO.f)
    _, rep = propagate_pulse(SCENARIO, pulse)
    exact = abs(scatter(SCENARIO).t) ** 2
    ok = (abs(rep.fwhm / pulse.fwhm - 1) < 0.01
          and rep.shape_correlation > 0.999
          and abs(rep.peak_amplitude ** 2 / exact - 1) < 0.10)
    report("criterion 10 (pulse shape preservation)", ok,
           f"fwhm out/in - 1 = {rep.fwhm / pulse.fwhm - 1:.2e} (<1%); "
           f"correlation = {rep.shape_correlation:.6f} (>0.999); "
           f"peak intensity / |t|^2 = {rep.peak_amplitude ** 2 / exact:.4f} "
           "(within 10%)")


def test_criterion_11_front_causality():
    sigma = PulseSpec(fwhm=16e-9, carrier=SCENARIO.f).sigma
    pulse = PulseSpec(fwhm=16e-9, carrier=SCENARIO.f, front_time=-3 * sigma)
    leak = front_causality_check(SCENARIO, pulse, dt_factor=16)
    leak_fine = front_causality_check(SCENARIO, pulse, dt_factor=32)
    ok = leak < 1e-6 and leak_fine < 1e-6 and leak_fine <= 5 * leak + 1e-9
    report("criterion 11 (front causality)", ok,
           f"leakage = {leak:.2e} (<1e-6), refined = {leak_fine:.2e} "
           "(self-convergent)")


def test_criterion_12_beam_centroid_vs_derivative():
    beam = BeamSpec(waist=20 * vacuum_wavelength(SCENARIO.f))
    worst = 0.0
    for channel in (Channel.TRANSMISSION, Channel.REFLECTION):
        got = beam_centroid_shift(SCENARIO, beam, channel).centroid_shift
        want = goos_hanchen_shift(SCENARIO, channel)
        worst = max(worst, abs(got / want - 1))
    report("criterion 12 (beam centroid vs phase derivative)",
           worst <= 0.02, f"max deviation = {worst:.4f} (<=2%) at waist 20 lambda")


def test_criterion_13_train_model():
    total16, _ = train_model(16, 5)
    bounded = all(train_model(n, cars)[0] < 2 * n
                  for n in (1, 2, 7, 16, 100) for cars in (1, 3, 10, 40))
    ok = total16 == 31 and bounded
    report("criterion 13 (train model)", ok,
           f"N=16, 5 cars -> {total16} (=31); total < 2N for all tested trains")


def test_criterion_14_cli_determinism_and_numbers():
    first = run_cli("attenuation").stdout
    second = run_cli("attenuation").stdout
    identical = first == second
    rep = parse_report(first)
    numbers_ok = (abs(rep["kappa_per_m"] - 101.41) <= 0.01
                  and abs(rep["attenuation_db_per_mm"] + 0.88) <= 0.005
                  and abs(rep["gap_attenuation_db"] - 35.2) <= 0.1
                  and abs(rep["transmission_approx"] / 3e-4 - 1) <= 0.03
                  and abs(rep["wavelength_cm"] - 3.28) <= 0.01)
    pulse_rep = json.loads(run_cli("pulse").stdout)
    hartman = run_cli("hartman").stdout
    causality = json.loads(run_cli("causality").stdout)
    energy0 = json.loads(run_cli("energy", "--d-mm", "0").stdout)
    train = json.loads(run_cli(
        "energy", "--train-first-car", "16", "--train-cars", "5").stdout)
    extra_ok = (abs(pulse_rep["fwhm_ns"] - 16) < 0.16
                and hartman == run_cli("hartman").stdout
                and causality["leakage_ratio"] < 1e-6
                and energy0["stored"] == 0.0
                and train["train"]["total_passengers"] == 31)
    ok = identical and numbers_ok and extra_ok
    report("criterion 14 (CLI determinism + reproduction)", ok,
           "byte-identical reruns; kappa/dB/T/wavelength/pulse/causality/train "
           "all reproduced through the CLI")
