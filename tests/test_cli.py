import csv
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from evanesce import Scenario, cli, total_group_delay
from evanesce.sweep import to_csv

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


def read_csv(text):
    """The columns of a CLI CSV as {name: [float, ...]}, in header order."""
    header, *rows = csv.reader(
        line for line in text.splitlines() if not line.startswith("#"))
    return {name: [float(row[i]) for row in rows] for i, name in enumerate(header)}


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
        table = read_csv(out.read_text())
        assert tuple(table) == ("d_mm", "tau0_ps", "s_cm", "tau_g_ps",
                                "dwell_ps", "U_norm")
        d = table["d_mm"]
        assert len(d) == 10
        assert d[0] == 5 and d[-1] == 50
        tau_g = table["tau_g_ps"]
        assert abs(tau_g[-1] / tau_g[7] - 1) < 0.01  # saturation by 40 mm
        assert table["U_norm"][-1] == 1
        # 100 ps scale: tau_g at saturation once s reaches 2.65 cm
        s_cm = table["s_cm"]
        n_sin = 1.6 * math.sin(math.radians(45))
        implied_ps = 2.65e-2 * n_sin / C * 1e12
        assert implied_ps == pytest.approx(100, rel=0.005)
        assert tau_g[-1] == pytest.approx(s_cm[-1] * 1e-2 * n_sin / C * 1e12,
                                          rel=0.01)

    def test_single_point_matches_library(self):
        from evanesce import Channel, Scenario, total_group_delay
        proc = run_cli("hartman", "--d-min-mm", "39",
                       "--d-max-mm", "40", "--d-steps", "2")
        table = read_csv(proc.stdout)
        s = Scenario(n=1.6, f=9.15e9, theta=math.radians(45), d=0.040)
        bd = total_group_delay(s, Channel.TRANSMISSION)
        assert table["tau_g_ps"][-1] == pytest.approx(
            bd.group_delay * 1e12, rel=1e-4)

    def test_range_validation(self):
        proc = run_cli("hartman", "--d-min-mm", "50", "--d-max-mm", "5",
                       check=False)
        assert proc.returncode == 2

    def test_dwell_saturated_at_meter_gaps(self):
        # 400 mm to 2 m in 200 mm steps; the dwell time stays saturated
        table = read_csv(run_cli(
            "hartman", "--d-min-mm", "400", "--d-max-mm", "2000",
            "--d-steps", "9").stdout)
        dwell = dict(zip(table["d_mm"], table["dwell_ps"]))
        for d_mm in (400, 1000, 2000):
            assert dwell[d_mm] == 61.0296

    def test_u_norm_without_underflow(self, capsys):
        # per_area[-1] * s[-1] underflows to 0 at these widths; U_norm as a
        # product of ratios of order one prints as it does at 1e-150 mm
        assert cli.main(["hartman", "--d-min-mm", "1e-300", "--d-max-mm", "1e-299",
                         "--d-steps", "3"]) == 0
        out, err = capsys.readouterr()
        assert read_csv(out)["U_norm"] == [0.01, 0.3025, 1.0]
        assert err == ""

    def test_tm_sweep_past_seven_meters(self):
        # t is subnormal here; the delays do not differentiate t
        table = read_csv(run_cli(
            "hartman", "--polarization", "TM", "--d-min-mm", "7000",
            "--d-max-mm", "7100", "--d-steps", "3").stdout)
        assert table["tau0_ps"] == [0.0] * 3
        assert table["s_cm"] == [2.52858] * 3


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
        table = read_csv(out.read_text())
        assert tuple(table) == ("t_ns", "field")
        values = np.array(table["field"])
        assert np.max(np.abs(values)) == pytest.approx(
            payload["peak_amplitude"], rel=0.01)

    def test_round_trip_at_printed_precision(self, tmp_path):
        out = tmp_path / "pulse.csv"
        run_cli("pulse", "--out", str(out))
        header, *rows = out.read_text().splitlines()
        assert header == "t_ns,field"
        # every field is the shortest repr of its float
        assert rows and all(repr(float(v)) == v for row in rows for v in row.split(","))

    def test_zero_gap_ratio_is_null(self, capsys):
        # c*fwhm/d is infinite at d = 0, which RFC 8259 JSON cannot hold
        def reject(constant):
            raise AssertionError(f"{constant} is not JSON")

        assert cli.main(["pulse", "--d-mm", "0"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["quasi_static_ratio"] is None
        assert payload["quasi_static"] is True

    def test_overflowing_ratio_is_null(self, capsys):
        # c*fwhm/d = 3e8 * 1e-3 / 1e-303 passes the double range: a 1 ms
        # pulse on a 1e-4 GHz carrier across a 1e-300 mm gap
        def reject(constant):
            raise AssertionError(f"{constant} is not JSON")

        assert cli.main(["pulse", "--f-ghz", "1e-4", "--fwhm-ns", "1e6",
                         "--d-mm", "1e-300"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["quasi_static_ratio"] is None
        assert payload["quasi_static"] is True

    def test_series_synthesized_only_for_out(self, monkeypatch, tmp_path,
                                             capsys):
        # the report is measured on the band; only --out reads the
        # carrier-rate series, whose synthesis is one length-n inverse FFT
        from evanesce import wavesynth

        reads = []
        real = wavesynth.TimeSeries.values.func

        def counted(series):
            reads.append(series.channel)
            return real(series)

        monkeypatch.setattr(wavesynth.TimeSeries, "values",
                            property(counted))
        assert cli.main(["pulse"]) == 0
        assert reads == []
        assert cli.main(["pulse", "--out", str(tmp_path / "out.csv")]) == 0
        assert len(reads) == 1
        assert capsys.readouterr().err == ""

    def test_reflection_at_a_subnormal_scale(self, tmp_path, capsys):
        # r is ~1e-301 at 1e-300 mm: the band is measured scaled by a power
        # of two, so the reflected pulse has its shape, and its series is
        # the true, tiny output
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["pulse", "--channel", "reflection", "--d-mm",
                             "1e-300", "--out", str(out)]) == 0
        stdout, stderr = capsys.readouterr()
        assert stderr == ""
        payload = json.loads(stdout)
        assert payload["fwhm_ns"] == pytest.approx(16.0, rel=1e-5)
        assert 1 - 1e-12 <= payload["shape_correlation"] <= 1.0
        assert payload["peak_amplitude"] == pytest.approx(1.32e-301, rel=1e-2)
        field = np.array(read_csv(out.read_text())["field"])
        assert np.max(np.abs(field)) == pytest.approx(
            payload["peak_amplitude"], rel=0.01)

    def test_non_finite_value_exits_2(self, monkeypatch, capsys):
        # a stand-in for any other non-finite value: one line, nothing printed
        monkeypatch.setattr(cli, "quasi_static_ratio", lambda *args: math.nan)
        assert cli.main(["pulse"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: Out of range float values")
        assert err.count("\n") == 1


class TestPulseWideGap:
    """The envelope of ``pulse`` is measured at wide gaps: its input
    spectrum is exact, and transmission is formed relative to the carrier.
    From ~0.2 m the FFT of samples left a floor that the gap amplified
    above the pulse (0.4 m printed peak_delay_ps -7372)."""

    @pytest.mark.parametrize("polarization", ["TE", "TM"])
    @pytest.mark.parametrize("d_mm", [200, 400, 1000, 5000, 10000])
    def test_envelope(self, d_mm, polarization, capsys):
        assert cli.main(["pulse", "--d-mm", str(d_mm),
                         "--polarization", polarization]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        payload = json.loads(out)
        tau0 = total_group_delay(Scenario(
            n=1.6, f=9.15e9, theta=math.radians(45.0), d=d_mm * 1e-3,
            polarization=polarization)).phase_delay
        assert payload["fwhm_ns"] == pytest.approx(16.0, rel=1e-6)
        assert payload["shape_correlation"] >= 1 - 1e-12
        assert abs(payload["peak_delay_ps"] - tau0 * 1e12) <= 1e-6
        assert payload["peak_intensity_ratio"] == payload["peak_amplitude"] ** 2
        # the true output amplitude, e^{-kappa d} small, underflows past ~7 m
        assert (payload["peak_amplitude"] == 0.0) == (d_mm == 10000)

    @pytest.mark.parametrize("d_mm", ["100000", "200000", "1e300"])
    def test_gap_past_double_range(self, d_mm, capsys):
        # across the band, transmission relative to the carrier spans more
        # than a double holds: one line and exit 2, no numpy warning
        assert cli.main(["pulse", "--d-mm", d_mm]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: gap too wide for the pulse synthesis")
        assert err.count("\n") == 1
        assert cli.main(["pulse", "--d-mm", d_mm, "--channel", "reflection"]) == 0


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
        table = read_csv(out.read_text())
        assert tuple(table) == ("x_cm", "intensity")
        assert min(table["intensity"]) >= 0


class TestFailedRunWritesNoOut:
    """``pulse`` and ``beam`` write ``--out`` only once their JSON is formed
    and checked, so a run that exits 2 leaves no file behind."""

    @pytest.mark.parametrize("command, name", [
        ("pulse", "quasi_static_ratio"), ("beam", "goos_hanchen_shift")])
    def test_non_finite_json(self, command, name, monkeypatch, tmp_path,
                             capsys):
        monkeypatch.setattr(cli, name, lambda *args: math.nan)
        out = tmp_path / "out.csv"
        assert cli.main([command, "--out", str(out)]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr.startswith("error: Out of range float values")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        # kappa d underflows at a 1e-131 Hz carrier, so r is 0.0
        ["pulse", "--channel", "reflection", "--f-ghz", "1e-140",
         "--fwhm-ns", "1.5e142", "--d-mm", "1e-300"],
        ["beam", "--channel", "reflection", "--d-mm", "1e-300"],
        ["beam", "--polarization", "TM", "--n", "1.39", "--theta-deg", "66.3",
         "--f-ghz", "6.13", "--d-mm", "149688", "--waist-wavelengths", "45.6"],
    ])
    def test_underflowed_output(self, argv, tmp_path, capsys):
        # an output that is 0.0 at every sample has nothing to measure:
        # its own line and exit 2, with no numpy warning
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*argv, "--out", str(out)]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr.startswith("error: the ")
        assert "underflows to 0.0 at every sample" in stderr
        assert stderr.count("\n") == 1
        assert not out.exists()


class TestCarrierRange:
    """A carrier whose (omega/c)^2 is not a normal double is rejected with
    one line: from --f-ghz 1e-163 it underflowed, and these four exited 3
    with a division by zero."""

    @pytest.mark.parametrize("command", ["attenuation", "hartman", "beam",
                                         "energy"])
    @pytest.mark.parametrize("f_ghz", ["1e-163", "1e160"])
    def test_out_of_range_carrier(self, command, f_ghz, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([command, "--f-ghz", f_ghz]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr.startswith("error: carrier frequency out of range: "
                                 "(omega/c)^2 must be a normal double")
        assert stderr.count("\n") == 1

    def test_lowest_carriers_run(self, capsys):
        # (omega/c)^2 is 4.4e-306 at 1e-154 GHz: normal, and the numbers
        # scale with the carrier
        assert cli.main(["attenuation", "--f-ghz", "1e-154", "--json"]) == 0
        stdout, stderr = capsys.readouterr()
        assert stderr == ""
        assert json.loads(stdout)["kappa_per_m"] == pytest.approx(
            101.4048491612062 * 1e-154 / 9.15, rel=1e-12)


class TestFiniteTextAndCsv:
    """CSV and text output carry finite numbers only, as JSON does: a NaN or
    an infinity exits 2 with one line before anything is written."""

    def test_attenuation_text(self, capsys):
        argv = ["attenuation", "--n", "4", "--theta-deg", "89", "--f-ghz", "40",
                "--d-mm", "1e308"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: non-finite value in gap_attenuation_db; "
                       "nothing was written\n")

    def test_hartman_csv(self, tmp_path, capsys):
        argv = ["hartman", "--n", "4", "--theta-deg", "89", "--f-ghz", "40",
                "--d-min-mm", "1e307", "--d-max-mm", "1e308", "--d-steps", "2"]
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert cli.main(argv) == 2
            assert cli.main([*argv, "--out", str(out)]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr == 2 * ("error: non-finite value in tau0_ps; "
                              "nothing was written\n")
        assert not out.exists()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_to_csv(self, bad):
        # pulse --out and beam --out: no input is known to reach them with one
        with pytest.raises(ValueError, match="^non-finite value in field;"):
            to_csv(("t_ns", "field"), (np.zeros(2), np.array([0.0, bad])), "%r")


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

    def test_train_of_a_trillion_cars(self):
        # every car past the fifth is empty; counting them one by one took
        # about a day, so a regression fails on the timeout, not by hanging
        proc = subprocess.run(
            [sys.executable, "-m", "evanesce", "energy", "--train-first-car", "16",
             "--train-cars", "1000000000000"],
            capture_output=True, text=True, timeout=30)
        assert (proc.returncode, proc.stderr) == (0, "")
        train = json.loads(proc.stdout)["train"]
        assert (train["total_passengers"], train["delay_proxy"]) == (31, 0.96875)


class TestTenMeterGap:
    """t underflows to 0 past ~7.4 m; no command needs t itself."""

    def test_hartman(self):
        table = read_csv(run_cli(
            "hartman", "--d-min-mm", "9000", "--d-max-mm", "10000",
            "--d-steps", "3").stdout)
        assert table["s_cm"] == [1.97229] * 3
        assert table["dwell_ps"] == [61.0296] * 3

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


class TestOutOfMemory:
    """A request too large for memory exits 3 with one line, no traceback."""

    @pytest.mark.parametrize("command", ["pulse", "causality"])
    def test_oversized_grid(self, command, capsys):
        # 1e12 ns asks for 2^52-2^54 samples: the first allocation fails at
        # once, whatever the machine, so no memory is touched
        assert cli.main([command, "--fwhm-ns", "1e12"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {command} request does not fit in memory")
        assert err.count("\n") == 1

    def test_hartman_step_count(self, capsys):
        # the gap widths are one array sized before it is built: 71 PiB
        # fails at once, whatever the machine, so no memory is touched
        assert cli.main(["hartman", "--d-steps", "10000000000000000"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: hartman request does not fit in memory")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, what", [
        (["hartman", "--d-steps", "1000000000000000000000000"], "gap widths"),
        (["hartman", "--d-steps", "2000000000000000000"], "gap widths"),
        (["pulse", "--fwhm-ns", "1e200"], "samples"),
        (["pulse", "--fwhm-ns", "1e308"], "samples"),
        (["causality", "--fwhm-ns", "1e300"], "samples"),
    ])
    def test_past_the_largest_array(self, argv, what, capsys):
        # counts numpy cannot size (it raises ValueError, not MemoryError),
        # and an infinite one, are checked before any array is built
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == (
            f"error: {argv[0]} request does not fit in memory: too many "
            f"{what} for one array\n")

    def test_hartman_sweep(self, monkeypatch, capsys):
        # a stand-in for a sweep too long for memory
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "hartman_sweep", exhausted)
        assert cli.main(["hartman"]) == 3
        assert capsys.readouterr().err == (
            "error: hartman request does not fit in memory\n")


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

    def test_empty_config_path_rejected(self, capsys):
        # an empty path is a path that cannot be read, not "no config"
        code = cli.main(["attenuation", "--config", ""])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read config '': ")
        assert err.count("\n") == 1

    def test_config_key_rejected(self, tmp_path, capsys):
        code, out, err = self.run_with_config(
            tmp_path, capsys, {"config": "other.json"}, "attenuation")
        assert (code, out, err) == (2, "", "error: unknown config key 'config'\n")

    def test_integer_accepted_for_float_key(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"d_mm": 10}))
        from_file = run_cli("attenuation", "--config", str(cfg)).stdout
        assert from_file == run_cli("attenuation", "--d-mm", "10").stdout

    @staticmethod
    def run_with_config(tmp_path, capsys, values, *argv):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(values))
        code = cli.main([argv[0], "--config", str(cfg), *argv[1:]])
        return code, *capsys.readouterr()

    # an explicit flag equal to 0 wins over the file, as any other flag does
    def test_explicit_zero_step_count(self, tmp_path, capsys):
        code, out, err = self.run_with_config(
            tmp_path, capsys, {"d_steps": 10}, "hartman", "--d-steps", "0")
        assert (code, out, err) == (2, "", "error: need at least 2 sweep points\n")

    def test_explicit_closed_prisms(self, tmp_path, capsys):
        assert cli.main(["energy", "--d-mm", "0"]) == 0
        closed = capsys.readouterr().out
        code, out, err = self.run_with_config(
            tmp_path, capsys, {"d_mm": 40.0}, "energy", "--d-mm", "0")
        assert (code, out, err) == (0, closed, "")

    def test_explicit_front_at_peak(self, tmp_path, capsys):
        code, out, err = self.run_with_config(
            tmp_path, capsys, {"front_sigmas": 3.0}, "causality", "--front-sigmas", "0")
        assert (code, err) == (0, "")
        front = json.loads(out)["front_time_ns"]
        assert front == 0.0 and math.copysign(1.0, front) == -1.0

    @pytest.mark.parametrize("command", ["attenuation", "hartman", "pulse", "beam",
                                         "energy", "causality"])
    def test_defaults_round_trip(self, command, tmp_path, capsys):
        # a file that sets every option with a default to that default
        parsed = vars(cli._build_parser().parse_args([command]))
        defaults = {key: value for key, value in parsed.items()
                    if key != "command" and value is not None}
        assert cli.main([command]) == 0
        plain = capsys.readouterr().out
        code, out, err = self.run_with_config(tmp_path, capsys, defaults, command)
        assert (code, out, err) == (0, plain, "")

    def test_codata_constant_switch(self):
        exact = parse_report(run_cli("attenuation", "--codata-c").stdout)
        rounded = parse_report(run_cli("attenuation").stdout)
        assert exact["kappa_per_m"] == pytest.approx(
            rounded["kappa_per_m"] * 3.0e8 / 299_792_458.0, rel=1e-9)
