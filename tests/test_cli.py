import json
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

from evanesce import SweepTable

C = 3.0e8


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "evanesce", *args],
        capture_output=True, text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"CLI failed ({proc.returncode}): {proc.stderr}\n{proc.stdout}")
    return proc


def parse_report(text):
    out = {}
    for line in text.splitlines():
        if line.startswith("#") or " = " not in line:
            continue
        key, value = line.split(" = ", 1)
        out[key] = float(value)
    return out


class TestAttenuationCommand:
    def test_default_values(self):
        report = parse_report(run_cli("attenuation").stdout)
        assert report["kappa_per_m"] == pytest.approx(101.41, abs=0.01)
        assert report["attenuation_db_per_mm"] == pytest.approx(-0.88, abs=0.005)
        assert report["gap_attenuation_db"] == pytest.approx(35.2, abs=0.1)
        assert report["transmission_approx"] == pytest.approx(3e-4, rel=0.03)
        assert report["transmission_exact"] == pytest.approx(7.064e-4, rel=1e-3)
        assert report["wavelength_cm"] == pytest.approx(3.28, abs=0.01)

    def test_one_meter_gap(self):
        report = parse_report(run_cli("attenuation", "--d-mm", "1000").stdout)
        assert report["gap_attenuation_db"] == pytest.approx(880, abs=1)

    def test_ten_meter_gap_underflows_cleanly(self):
        report = parse_report(run_cli("attenuation", "--d-mm", "10000").stdout)
        assert report["transmission_exact"] == 0.0

    def test_json_flag(self):
        payload = json.loads(run_cli("attenuation", "--json").stdout)
        assert payload["kappa_per_m"] == pytest.approx(101.41, abs=0.01)

    def test_below_critical_rejected_naming_angle(self):
        proc = run_cli("attenuation", "--theta-deg", "30", check=False)
        assert proc.returncode == 2
        assert "38.68" in proc.stderr

    def test_invalid_index_rejected(self):
        proc = run_cli("attenuation", "--n", "0.9", check=False)
        assert proc.returncode == 2


class TestDeterminism:
    def test_repeated_runs_byte_identical(self):
        outs = {run_cli("hartman", "--d-steps", "6").stdout for _ in range(3)}
        assert len(outs) == 1
        outs = {run_cli("pulse").stdout for _ in range(2)}
        assert len(outs) == 1

    def test_version_header_behind_flag(self):
        plain = run_cli("hartman", "--d-steps", "3").stdout
        stamped = run_cli("hartman", "--d-steps", "3", "--with-version").stdout
        assert not plain.startswith("#")
        assert stamped.startswith("# evanesce ")
        assert stamped.splitlines()[1:] == plain.splitlines()


class TestHartmanCommand:
    def test_csv_contract(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli("hartman", "--out", str(out))
        table = SweepTable.from_csv(out.read_text())
        assert table.columns == ("d_mm", "tau0_ps", "s_cm", "tau_g_ps",
                                 "dwell_ps", "U_norm")
        assert len(table.rows) == 10
        d = table.column("d_mm")
        assert d[0] == 5 and d[-1] == 50
        tau_g = table.column("tau_g_ps")
        assert abs(tau_g[-1] / tau_g[7] - 1) < 0.01  # saturation by 40 mm
        assert table.column("U_norm")[-1] == 1
        # 100 ps scale: tau_g at saturation once s reaches 2.65 cm
        s_cm = table.column("s_cm")
        n_sin = 1.6 * math.sin(math.radians(45))
        implied_ps = 2.65e-2 * n_sin / C * 1e12
        assert implied_ps == pytest.approx(100, rel=0.005)
        assert tau_g[-1] == pytest.approx(s_cm[-1] * 1e-2 * n_sin / C * 1e12,
                                          rel=0.01)

    def test_single_point_matches_library(self):
        from evanesce import Channel, Scenario, total_group_delay
        proc = run_cli("hartman", "--d-min-mm", "39",
                       "--d-max-mm", "40", "--d-steps", "2")
        table = SweepTable.from_csv(proc.stdout)
        s = Scenario(n=1.6, f=9.15e9, theta=math.radians(45), d=0.040)
        bd = total_group_delay(s, Channel.TRANSMISSION)
        assert table.column("tau_g_ps")[-1] == pytest.approx(
            bd.group_delay * 1e12, rel=1e-4)

    def test_range_validation(self):
        proc = run_cli("hartman", "--d-min-mm", "50", "--d-max-mm", "5",
                       check=False)
        assert proc.returncode == 2

    def test_dwell_saturated_at_meter_gaps(self):
        # 400 mm to 2 m in 200 mm steps; the dwell time stays saturated
        table = SweepTable.from_csv(run_cli(
            "hartman", "--d-min-mm", "400", "--d-max-mm", "2000",
            "--d-steps", "9").stdout)
        dwell = dict(zip(table.column("d_mm"), table.column("dwell_ps")))
        for d_mm in (400, 1000, 2000):
            assert dwell[d_mm] == 61.0296

    def test_tm_sweep_past_seven_meters(self):
        # t is subnormal here; the delays do not differentiate t
        table = SweepTable.from_csv(run_cli(
            "hartman", "--polarization", "TM", "--d-min-mm", "7000",
            "--d-max-mm", "7100", "--d-steps", "3").stdout)
        assert table.column("tau0_ps") == [0.0] * 3
        assert table.column("s_cm") == [2.52858] * 3


class TestPulseCommand:
    def test_report_and_series(self, tmp_path):
        out = tmp_path / "pulse.csv"
        payload = json.loads(run_cli("pulse", "--out", str(out)).stdout)
        assert payload["fwhm_ns"] == pytest.approx(16.0, rel=0.01)
        assert payload["shape_correlation"] > 0.999
        assert payload["peak_intensity_ratio"] == pytest.approx(7.064e-4, rel=0.1)
        assert payload["spatial_extent_m"] == pytest.approx(4.8, rel=1e-9)
        assert payload["quasi_static_ratio"] == pytest.approx(120.0, rel=1e-9)
        assert payload["quasi_static"] is True
        table = SweepTable.from_csv(out.read_text())
        assert table.columns == ("t_ns", "field")
        values = np.array(table.column("field"))
        assert np.max(np.abs(values)) == pytest.approx(
            payload["peak_amplitude"], rel=0.01)

    def test_round_trip_at_printed_precision(self, tmp_path):
        out = tmp_path / "pulse.csv"
        run_cli("pulse", "--out", str(out))
        text = out.read_text()
        assert SweepTable.from_csv(text).to_csv() == text


class TestBeamCommand:
    def test_headline_beam(self):
        payload = json.loads(run_cli("beam").stdout)
        assert payload["centroid_shift_cm"] == pytest.approx(
            payload["gh_shift_cm"], rel=0.02)

    def test_tuned_scenario_reproduces_wide_beam_shift(self):
        # pick the incidence angle whose saturated TE shift is 2.65 cm
        # (oracle: closed form 2 tan(theta)/kappa), then check the full
        # angular-spectrum centroid lands there
        f = 9.15e9
        omega = 2 * math.pi * f

        def s_inf(theta_deg):
            th = math.radians(theta_deg)
            kx = 1.6 * omega / C * math.sin(th)
            kappa = math.sqrt(kx ** 2 - (omega / C) ** 2)
            return 2 * math.tan(th) / kappa

        crit = math.degrees(math.asin(1 / 1.6))
        theta_deg = brentq(lambda td: s_inf(td) - 2.65e-2, crit + 0.05, 45.0,
                           xtol=1e-10)
        kappa = math.sqrt((1.6 * omega / C * math.sin(math.radians(theta_deg))) ** 2
                          - (omega / C) ** 2)
        d_mm = 6 / kappa * 1e3
        payload = json.loads(run_cli(
            "beam", "--channel", "reflection",
            "--theta-deg", f"{theta_deg:.10f}", "--d-mm", f"{d_mm:.6f}").stdout)
        assert payload["centroid_shift_cm"] == pytest.approx(2.65, rel=0.02)

    def test_profile_csv(self, tmp_path):
        out = tmp_path / "beam.csv"
        run_cli("beam", "--out", str(out))
        table = SweepTable.from_csv(out.read_text())
        assert table.columns == ("x_cm", "intensity")
        assert min(table.column("intensity")) >= 0


class TestEnergyCommand:
    def test_zero_gap(self):
        payload = json.loads(run_cli("energy", "--d-mm", "0").stdout)
        assert payload["stored"] == 0.0
        assert payload["dwell_time_ps"] == 0.0
        assert payload["evanescent_to_free_ratio"] is None

    def test_dwell_saturates(self):
        dw40 = json.loads(run_cli("energy", "--d-mm", "40").stdout)["dwell_time_ps"]
        dw50 = json.loads(run_cli("energy", "--d-mm", "50").stdout)["dwell_time_ps"]
        assert abs(dw50 / dw40 - 1) < 0.01

    def test_wide_gap_stores_less_than_free_wave(self):
        payload = json.loads(run_cli("energy", "--d-mm", "400").stdout)
        assert payload["evanescent_to_free_ratio"] < 1
        assert payload["dwell_time_ps"] == pytest.approx(61.0296, rel=1e-5)

    def test_incident_power_saturated_past_seven_meters(self):
        # the entry window is the saturated GH shift; from the subnormal t
        # it came out 7e-7 too large at 7.1 m
        power = [json.loads(run_cli("energy", "--d-mm", d_mm).stdout)["incident_power"]
                 for d_mm in ("6900", "7100")]
        assert power[1] == pytest.approx(power[0], rel=1e-12, abs=0)

    def test_train_section(self):
        payload = json.loads(run_cli(
            "energy", "--train-first-car", "16", "--train-cars", "5").stdout)
        assert payload["train"]["total_passengers"] == 31
        assert payload["train"]["bound"] == 32


class TestTenMeterGap:
    """t underflows to 0 past ~7.4 m; no command needs t itself."""

    def test_hartman(self):
        table = SweepTable.from_csv(run_cli(
            "hartman", "--d-min-mm", "9000", "--d-max-mm", "10000",
            "--d-steps", "3").stdout)
        assert table.column("s_cm") == [1.97229] * 3
        assert table.column("dwell_ps") == [61.0296] * 3

    def test_energy(self):
        payload = json.loads(run_cli("energy", "--d-mm", "10000").stdout)
        assert payload["dwell_time_ps"] == pytest.approx(61.0296, rel=1e-5)

    def test_beam(self):
        payload = json.loads(run_cli("beam", "--d-mm", "10000").stdout)
        assert payload["gh_shift_cm"] == pytest.approx(1.97229226861, rel=1e-11)


class TestCausalityCommand:
    def test_leakage_report(self):
        payload = json.loads(run_cli("causality").stdout)
        assert payload["leakage_ratio"] < 1e-6
        assert payload["self_convergent"] is True
        assert payload["front_arrival_ns"] > payload["front_time_ns"]


class TestConfigFile:
    def test_config_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"theta_deg": 50.0, "d_mm": 10.0}))
        report = parse_report(run_cli("attenuation", "--config", str(cfg)).stdout)
        # theta from file changes kappa away from the 45-degree value
        assert report["kappa_per_m"] != pytest.approx(101.41, abs=0.01)
        override = parse_report(run_cli(
            "attenuation", "--config", str(cfg), "--theta-deg", "45").stdout)
        assert override["kappa_per_m"] == pytest.approx(101.41, abs=0.01)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"frequency": 9.15}))
        proc = run_cli("attenuation", "--config", str(cfg), check=False)
        assert proc.returncode == 2
        assert "frequency" in proc.stderr

    @pytest.mark.parametrize("command, values, expected", [
        ("hartman", {"d_steps": 2.5}, "'d_steps' must be int"),
        ("attenuation", {"n": "1.6"}, "'n' must be float"),
    ])
    def test_mistyped_value_rejected(self, tmp_path, command, values, expected):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(values))
        proc = run_cli(command, "--config", str(cfg), check=False)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert expected in proc.stderr
        assert proc.stderr.count("\n") == 1

    def test_integer_accepted_for_float_key(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"d_mm": 10}))
        from_file = run_cli("attenuation", "--config", str(cfg)).stdout
        assert from_file == run_cli("attenuation", "--d-mm", "10").stdout

    def test_codata_constant_switch(self):
        exact = parse_report(run_cli("attenuation", "--codata-c").stdout)
        rounded = parse_report(run_cli("attenuation").stdout)
        assert exact["kappa_per_m"] == pytest.approx(
            rounded["kappa_per_m"] * 3.0e8 / 299_792_458.0, rel=1e-9)
