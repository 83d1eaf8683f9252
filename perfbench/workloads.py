"""The three workloads: their operations, inputs and output checks.

An operation is one closed-loop request: ``run`` is timed, ``check`` is
not.  Every round of a workload holds the same operation kinds in the same
order, so a slow spell on the machine hits each kind alike and the share
of operations that fail is the same in every run.  Inputs come only from
the seed and the round number.

Checks compare against ``oracle`` (computed apart from the program) or
against properties the method must have; they never compare against a
stored copy of the program's output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import oracle

F_DEFAULT = 9.15e9
FWHM = 16e-9
WAIST_WAVELENGTHS = 20.0
SWEEP_COLUMNS = ["d_mm", "tau0_ps", "s_cm", "tau_g_ps", "dwell_ps", "U_norm"]
# relative tolerance for values printed with %.6g (5e-6 rounding) on top of
# the program's Richardson-checked derivatives (1e-6)
REL_CSV = 2e-5

FAULT_OVERFLOW = ("scatter overflows for kappa*d > ~710: r, t become NaN and "
                  "total_group_delay raises, so the CLI exits 3")
FAULT_DWELL = ("stored energy is wrong for kappa*d > ~35: the growing gap "
               "amplitude bottoms out at rounding noise and is multiplied by "
               "e^{2 kappa z}")


# one finished operation: its op set (workload), kind, wall seconds, points,
# failure message (None when its output was right) and named fault
Record = namedtuple("Record", "op_set kind wall points failure fault")


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]   # None when the output is right
    points: int = 0
    fault: str | None = None             # the named fault it shows, if any


@dataclass
class Context:
    """Per-run state shared by the round functions: paths, seed, oracle cache."""

    root: str
    work: str
    seed: int
    python: str = sys.executable
    cache: dict = field(default_factory=dict)
    last: dict = field(default_factory=dict)   # results earlier in the round
    in_process: bool = False   # evanesce is imported here, so checks may call it

    @property
    def env(self) -> dict:
        env = dict(os.environ)
        env.pop("EVANESCE_THREADS", None)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        return env

    def rng(self, *key) -> random.Random:
        return random.Random(":".join(str(k) for k in (self.seed, *key)))

    def delays(self, geo: oracle.Geometry, channel: str = "transmission"):
        key = ("delays", geo, channel)
        if key not in self.cache:
            self.cache[key] = oracle.delays(geo, channel)
        return self.cache[key]

    def energy(self, geo: oracle.Geometry):
        key = ("energy", geo)
        if key not in self.cache:
            self.cache[key] = oracle.energy(geo)
        return self.cache[key]


def _fmt(x: float) -> str:
    return repr(float(x))


def _geo(n=1.6, theta_deg=45.0, d_mm=40.0, pol="TE") -> oracle.Geometry:
    return oracle.Geometry(n=n, f=F_DEFAULT, theta=math.radians(theta_deg),
                           d=d_mm * 1e-3, polarization=pol)


def grid_samples(fwhm: float, carrier: float, dt_factor: int,
                 span_factor: int) -> int:
    """Power-of-two sample count covering span_factor*fwhm at 1/(dt_factor f)."""
    need = math.ceil(span_factor * fwhm * dt_factor * carrier)
    return 1 << (need - 1).bit_length()


# ---------------------------------------------------------------- checks

def _mismatch(name: str, got: float, want: float, rel: float,
              abs_tol: float = 0.0) -> str | None:
    if oracle.close(got, want, rel, abs_tol):
        return None
    return f"{name}: got {got!r}, want {want!r} (rel {rel:g}, abs {abs_tol:g})"


def _first(*results: str | None) -> str | None:
    return next((r for r in results if r), None)


def _derivative_tols(geo: oracle.Geometry) -> tuple[float, float]:
    """Absolute floors of the program's finite differences: 1e-12/h with
    h = 1e-6 x0 gives 1e-6/omega [s] and 1e-6/k_x [m]; doubled."""
    return 2e-6 / geo.omega, 2e-6 / geo.kx


def check_scatter(geo: oracle.Geometry, omegas: list[float],
                  kxs: list[float]) -> str | None:
    """The program's r and t (one array call) against the oracle solve,
    and |r|^2 + |t|^2 = 1 for the lossless stack."""
    import evanesce as ev

    sc = ev.Scenario(n=geo.n, f=geo.f, theta=geo.theta, d=geo.d,
                     polarization=geo.polarization, c=geo.c)
    res = ev.scatter(sc, np.asarray(omegas), np.asarray(kxs))
    for r, t, om, kx in zip(res.r, res.t, omegas, kxs):
        if abs(abs(r) ** 2 + abs(t) ** 2 - 1) > 1e-12:
            return f"|r|^2 + |t|^2 - 1 = {abs(r) ** 2 + abs(t) ** 2 - 1:.2e} at d={geo.d}"
        r0, t0 = oracle.coefficients(geo, om, kx)
        if abs(r - r0) > 1e-10 * abs(r0) or abs(t - t0) > 1e-10 * abs(t0):
            return f"scatter at d={geo.d}, omega={om}: r={r}, t={t}; oracle r={r0}, t={t0}"
    return None


def check_sweep_csv(text: str, geo: oracle.Geometry, d_mm: list[float],
                    ctx: Context, rng: random.Random, samples: int = 2) -> str | None:
    """A ``hartman`` CSV against the oracle at sampled rows and the
    wide-gap closed forms and the delay decomposition at every row."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0].split(",") != SWEEP_COLUMNS:
        return f"bad CSV header {lines[:1]!r}"
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    if len(rows) != len(d_mm):
        return f"{len(rows)} rows for {len(d_mm)} gap widths"
    if not all(math.isfinite(v) for row in rows for v in row):
        return "non-finite value in CSV"
    tau_abs, s_abs = _derivative_tols(geo)
    slope = geo.slope
    for row, d in zip(rows, d_mm):
        d_row, tau0, s_cm, tau_g, dwell, _ = row
        bad = _first(
            _mismatch(f"d_mm at {d} mm", d_row, d, 5e-6),
            _mismatch(f"tau_g = tau0 + s n sin/c at {d} mm", tau_g,
                      tau0 + s_cm * 1e-2 * slope * 1e12,
                      REL_CSV, REL_CSV * abs(tau0)),
        )
        if bad:
            return bad
        g = oracle.Geometry(geo.n, geo.f, geo.theta, d * 1e-3, geo.polarization)
        err = oracle.saturation_error(g)
        if err < 1e-3:
            s_sat, dwell_sat = oracle.saturated(g)
            bad = _first(
                _mismatch(f"s_cm vs single-interface GH at {d} mm", s_cm,
                          s_sat * 1e2, err + REL_CSV),
                _mismatch(f"dwell_ps vs saturated dwell at {d} mm", dwell,
                          dwell_sat * 1e12, err + REL_CSV),
            )
            if bad:
                return bad
    if rows[-1][5] != 1.0:
        return f"U_norm of the widest gap is {rows[-1][5]!r}, not 1"
    ref_geo = oracle.Geometry(geo.n, geo.f, geo.theta, d_mm[-1] * 1e-3,
                              geo.polarization)
    ref_stored = ctx.energy(ref_geo).per_area * ctx.delays(ref_geo).shift
    picks = sorted(rng.sample(range(len(rows)), min(samples, len(rows))))
    for i in picks:
        d_row, tau0, s_cm, tau_g, dwell, u_norm = rows[i]
        g = oracle.Geometry(geo.n, geo.f, geo.theta, d_mm[i] * 1e-3,
                            geo.polarization)
        dl, en = ctx.delays(g), ctx.energy(g)
        bad = _first(
            check_scatter(g, [g.omega], [g.kx]) if ctx.in_process else None,
            _mismatch(f"tau0_ps at {d_mm[i]} mm", tau0, dl.tau0 * 1e12,
                      REL_CSV, tau_abs * 1e12),
            _mismatch(f"s_cm at {d_mm[i]} mm", s_cm, dl.shift * 1e2,
                      REL_CSV, s_abs * 1e2),
            _mismatch(f"tau_g_ps at {d_mm[i]} mm", tau_g, dl.tau_g * 1e12,
                      REL_CSV, (tau_abs + slope * s_abs) * 1e12),
            _mismatch(f"dwell_ps at {d_mm[i]} mm", dwell, en.dwell * 1e12,
                      REL_CSV),
            _mismatch(f"U_norm at {d_mm[i]} mm", u_norm,
                      en.per_area * dl.shift / ref_stored, 2 * REL_CSV),
        )
        if bad:
            return bad
    return None


def check_attenuation(out, geo: oracle.Geometry) -> str | None:
    rc, stdout, stderr = out
    if rc != 0:
        return f"exit {rc}: {stderr.strip()[-200:]}"
    got = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" = ")
        got[key] = float(value)
    want = oracle.closed_forms(geo)
    want["transmission_exact"] = oracle.transmission_exact(geo)
    if set(got) != set(want):
        return f"attenuation keys {sorted(got)}"
    for key, value in want.items():
        # exp() of the closed forms underflows to 0.0 alike in both
        bad = _mismatch(key, got[key], value, 1e-9 if "exact" in key else 1e-12)
        if bad:
            return bad
    return None


def check_pulse_report(rep: dict, geo: oracle.Geometry, ctx: Context,
                       channel: str = "transmission") -> str | None:
    tau0 = ctx.delays(geo, channel).tau0
    if rep["channel"] != channel:
        return f"channel {rep['channel']!r}"
    if not rep["shape_correlation"] > 0.999:
        return f"shape correlation {rep['shape_correlation']!r} <= 0.999"
    return _first(
        _mismatch("fwhm_ns", rep["fwhm_ns"], FWHM * 1e9, 0.01),
        _mismatch("peak_delay_ps vs fixed-angle phase delay",
                  rep["peak_delay_ps"], tau0 * 1e12, 1e-3, 1e-3),
        _mismatch("peak_intensity_ratio", rep["peak_intensity_ratio"],
                  rep["peak_amplitude"] ** 2, 1e-12),
        _mismatch("spatial_extent_m", rep["spatial_extent_m"], geo.c * FWHM, 1e-12),
        _mismatch("quasi_static_ratio", rep["quasi_static_ratio"],
                  geo.c * FWHM / geo.d, 1e-12),
    )


def _envelope(values: np.ndarray) -> np.ndarray:
    """|analytic signal| from the doubled positive half of the spectrum."""
    spec = np.fft.fft(values)
    n = len(values)
    spec[n // 2 + 1:] = 0
    spec[1:n // 2] *= 2
    return np.abs(np.fft.ifft(spec))


def _peak_and_fwhm(t: np.ndarray, env: np.ndarray) -> tuple[float, float]:
    i = int(np.argmax(env))
    y0, y1, y2 = env[i - 1:i + 2]
    peak = t[i] + 0.5 * (t[1] - t[0]) * (y0 - y2) / (y0 - 2 * y1 + y2)
    inten = env ** 2
    above = np.flatnonzero(inten >= inten.max() / 2)
    half = inten.max() / 2

    def cross(a, b):
        return t[a] + (half - inten[a]) / (inten[b] - inten[a]) * (t[b] - t[a])

    return float(peak), float(cross(above[-1] + 1, above[-1]) - cross(above[0] - 1, above[0]))


def check_pulse_csv(path: str, geo: oracle.Geometry, ctx: Context) -> str | None:
    """The written series: grid size and step from the synthesis rule, and
    its own envelope's width and peak delay."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    n = grid_samples(FWHM, geo.f, 16, 16)
    if data.shape != (n, 2):
        return f"pulse CSV shape {data.shape}, want ({n}, 2)"
    t = data[:, 0] * 1e-9
    dt = 1 / (16 * geo.f)
    if np.max(np.abs(np.diff(t) - dt)) > 1e-9 * dt or t[n // 2] != 0.0:
        return "pulse CSV time grid is not the uniform 1/(16 f) grid centred on 0"
    peak, width = _peak_and_fwhm(t, _envelope(data[:, 1]))
    return _first(
        _mismatch("CSV envelope fwhm", width, FWHM, 0.01),
        _mismatch("CSV envelope peak delay", peak,
                  ctx.delays(geo).tau0, 1e-3, 1e-15),
    )


def check_beam(rep: dict, geo: oracle.Geometry, ctx: Context,
               channel: str) -> str | None:
    gh = ctx.delays(geo, channel).shift
    _, s_abs = _derivative_tols(geo)
    return _first(
        None if rep["channel"] == channel else f"channel {rep['channel']!r}",
        _mismatch("centroid_shift_cm vs GH shift", rep["centroid_shift_cm"],
                  gh * 1e2, 0.02),
        _mismatch("gh_shift_cm", rep["gh_shift_cm"], gh * 1e2, 1e-6, s_abs * 1e2),
    )


def check_energy(rep: dict, geo: oracle.Geometry, ctx: Context) -> str | None:
    en, shift = ctx.energy(geo), ctx.delays(geo).shift
    return _first(
        _mismatch("dwell_time_ps", rep["dwell_time_ps"], en.dwell * 1e12, 1e-6),
        _mismatch("stored", rep["stored"], en.per_area * shift, 1e-6),
        _mismatch("incident_power", rep["incident_power"], en.flux * shift, 1e-6),
        _mismatch("evanescent_to_free_ratio", rep["evanescent_to_free_ratio"],
                  en.free_ratio, 1e-6),
    )


def check_causality(rep: dict, geo: oracle.Geometry) -> str | None:
    leak, fine = rep["leakage_ratio"], rep["leakage_ratio_refined"]
    if not (leak < 1e-6 and fine < 1e-6):
        return f"front leakage {leak!r} / {fine!r} not below 1e-6"
    if not (rep["self_convergent"] and fine <= 5 * leak + 1e-9):
        return f"leakage not self-convergent: {leak!r} -> {fine!r}"
    sigma = FWHM / (2 * math.sqrt(math.log(2)))
    return _first(
        _mismatch("front_time_ns", rep["front_time_ns"], -3 * sigma * 1e9, 1e-12),
        _mismatch("front_arrival_ns", rep["front_arrival_ns"],
                  (-3 * sigma + geo.d / geo.c) * 1e9, 1e-12),
        _mismatch("rise_ns", rep["rise_ns"], FWHM / 16 * 1e9, 1e-12),
    )


# ------------------------------------------------------------- workload: cli

def _cli_argvs(ctx: Context, index: int) -> list[tuple[str, list[str], str | None]]:
    """(kind, argv, --out path) of one round, in fixed order, at defaults."""
    out = os.path.join(ctx.work, f"pulse-{index}.csv")
    return [
        ("attenuation", ["attenuation"], None),
        ("hartman", ["hartman"], None),
        ("pulse", ["pulse"], None),
        ("pulse-out", ["pulse", "--out", out], out),
        ("beam", ["beam"], None),
        ("energy", ["energy"], None),
        ("causality", ["causality"], None),
        ("attenuation-10m", ["attenuation", "--d-mm", "10000"], None),
    ]


def _cli_check(kind: str, out_path: str | None, ctx: Context, index: int):
    geo = _geo()

    def check(out) -> str | None:
        rc, stdout, stderr = out
        if kind.startswith("attenuation"):
            d_mm = 10000.0 if kind == "attenuation-10m" else 40.0
            return check_attenuation(out, _geo(d_mm=d_mm))
        if rc != 0:
            return f"{kind} exit {rc}: {stderr.strip()[-200:]}"
        if kind == "hartman":
            d_mm = [5 + i * 45 / 9 for i in range(10)]
            return check_sweep_csv(stdout, geo, d_mm, ctx,
                                   ctx.rng("cli-hartman", index))
        rep = json.loads(stdout)
        if kind in ("pulse", "pulse-out"):
            bad = check_pulse_report(rep, geo, ctx)
            if bad or out_path is None:
                return bad
            try:
                return check_pulse_csv(out_path, geo, ctx)
            finally:
                os.remove(out_path)
        if kind == "beam":
            return check_beam(rep, geo, ctx, "transmission")
        if kind == "energy":
            return check_energy(rep, geo, ctx)
        return check_causality(rep, geo)

    return check


def _cli_ops(ctx: Context, index: int, run_argv) -> list[Op]:
    return [Op(kind, lambda argv=argv: run_argv(argv),
               _cli_check(kind, out_path, ctx, index),
               points=10 if kind == "hartman" else 0,
               fault=FAULT_OVERFLOW if kind == "attenuation-10m" else None)
            for kind, argv, out_path in _cli_argvs(ctx, index)]


def cli_round(ctx: Context, index: int) -> list[Op]:
    """Each subcommand at its defaults as a fresh ``python -m evanesce``."""
    def run(argv):
        p = subprocess.run([ctx.python, "-m", "evanesce", *argv], cwd=ctx.work,
                           env=ctx.env, capture_output=True, text=True)
        return p.returncode, p.stdout, p.stderr

    return _cli_ops(ctx, index, run)


def cli_inprocess_round(ctx: Context, index: int) -> list[Op]:
    """The same round through ``evanesce.cli.main`` in this process."""
    from evanesce import cli

    def run(argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
        return rc, stdout.getvalue(), stderr.getvalue()

    return _cli_ops(ctx, index, run)


# ----------------------------------------------------------- workload: sweep

# Grid sizes of one round.  Sorted by time a round is 10, wide 10, 100 x3,
# 1000 x2: the median operation sits in the middle of the 100-point block and
# the tail (ten samples beyond it) inside the 1000-point block.
SWEEP_GRIDS = (("grid-10", 10), ("wide-10", 10), ("grid-100", 100),
               ("grid-1000", 1000), ("grid-100", 100), ("grid-100", 100),
               ("grid-1000", 1000))


def sweep_scenario(ctx: Context, index: int) -> tuple[float, float, str]:
    rng = ctx.rng("sweep", index)
    return (round(rng.uniform(1.5, 1.7), 4), round(rng.uniform(45.0, 55.0), 3),
            rng.choice(("TE", "TM")))


def sweep_round(ctx: Context, index: int) -> list[Op]:
    """``hartman --out FILE`` through ``evanesce.cli.main`` in this process."""
    from evanesce import cli

    n, theta, pol = sweep_scenario(ctx, index)
    path = os.path.join(ctx.work, "sweep.csv")
    ops = []
    for slot, (kind, steps) in enumerate(SWEEP_GRIDS):
        if kind == "wide-10":     # the known fault, on fixed inputs
            geo, lo, hi = _geo(), 100.0, 1000.0
            flags = []
        else:
            geo, lo, hi = _geo(n, theta, 40.0, pol), 5.0, 50.0
            flags = ["--n", _fmt(n), "--theta-deg", _fmt(theta),
                     "--polarization", pol]
        argv = ["hartman", *flags, "--d-min-mm", _fmt(lo), "--d-max-mm", _fmt(hi),
                "--d-steps", str(steps), "--out", path]
        d_mm = [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]

        def run(argv=argv):
            rc = cli.main(argv)
            with open(path, encoding="utf-8") as fh:
                return rc, fh.read()

        def check(out, geo=geo, d_mm=d_mm, slot=slot):
            rc, text = out
            if rc != 0:
                return f"hartman exit {rc}"
            return check_sweep_csv(text, geo, d_mm, ctx,
                                   ctx.rng("sweep-check", index, slot))

        ops.append(Op(kind, run, check, points=steps,
                      fault=FAULT_DWELL if kind == "wide-10" else None))
    return ops


# ----------------------------------------------------------- workload: synth

SYNTH_KINDS = ("propagate_pulse-T", "propagate_pulse-R", "differential_delay",
               "front_causality_check-16", "front_causality_check-32",
               "beam_centroid_shift-T", "beam_centroid_shift-R")


def synth_scenario(ctx: Context, index: int) -> tuple[float, float, float, str]:
    rng = ctx.rng("synth", index)
    # n sin(theta) >= 1.19: nearer the critical angle a 20-wavelength TM beam's
    # centroid shift departs from the GH derivative by more than 2 %
    return (round(rng.uniform(1.6, 1.7), 4), round(rng.uniform(48.0, 55.0), 3),
            round(rng.uniform(35.0, 50.0), 3), rng.choice(("TE", "TM")))


def synth_points() -> dict[str, int]:
    """Synthesis grid samples per operation (time or transverse grid)."""
    pulse = grid_samples(FWHM, F_DEFAULT, 16, 16)
    return {
        "propagate_pulse-T": pulse, "propagate_pulse-R": pulse,
        "differential_delay": 2 * pulse,
        "front_causality_check-16": grid_samples(FWHM, F_DEFAULT, 16, 64),
        "front_causality_check-32": grid_samples(FWHM, F_DEFAULT, 32, 64),
        "beam_centroid_shift-T": 4096, "beam_centroid_shift-R": 4096,
    }


def synth_round(ctx: Context, index: int) -> list[Op]:
    """The spectral-synthesis functions, called in this process."""
    import evanesce as ev

    n, theta, d_mm, pol = synth_scenario(ctx, index)
    geo = _geo(n, theta, d_mm, pol)
    sc = ev.Scenario(n=n, f=F_DEFAULT, theta=math.radians(theta), d=d_mm * 1e-3,
                     polarization=pol)
    pulse = ev.PulseSpec(fwhm=FWHM, carrier=F_DEFAULT)
    front = ev.PulseSpec(fwhm=FWHM, carrier=F_DEFAULT, front_time=-3 * pulse.sigma)
    beam = ev.BeamSpec(waist=WAIST_WAVELENGTHS * geo.c / geo.f)
    T, R = ev.Channel.TRANSMISSION, ev.Channel.REFLECTION
    points = synth_points()

    def pulse_check(channel):
        def check(out):
            series, rep = out
            if len(series.t_samples) != points["propagate_pulse-T"]:
                return f"pulse grid of {len(series.t_samples)} samples"
            # two seeded frequencies within three spectral widths of the carrier
            rng = ctx.rng("synth-scatter", index, channel)
            omegas = [geo.omega + rng.uniform(-3, 3) / pulse.sigma for _ in range(2)]
            return _first(check_scatter(geo, omegas, [geo.slope * om for om in omegas]),
                          check_pulse_report({
                "channel": series.channel.value, "fwhm_ns": rep.fwhm * 1e9,
                "peak_delay_ps": rep.peak_time * 1e12,
                "shape_correlation": rep.shape_correlation,
                "peak_amplitude": rep.peak_amplitude,
                "peak_intensity_ratio": rep.peak_amplitude ** 2,
                "spatial_extent_m": geo.c * FWHM,
                "quasi_static_ratio": geo.c * FWHM / geo.d,
            }, geo, ctx, channel))
        return check

    def diff_check(out):
        return _mismatch("differential_delay vs -tau0", out,
                         -ctx.delays(geo).tau0, 1e-3, 1e-15)

    def leak_check(factor):
        def check(out):
            ctx.last[factor] = out
            if not out < 1e-6:
                return f"leakage {out!r} at dt_factor {factor} not below 1e-6"
            if factor == 32 and not out <= 5 * ctx.last[16] + 1e-9:
                return f"leakage not self-convergent: {ctx.last[16]!r} -> {out!r}"
            return None
        return check

    def beam_check(channel):
        def check(out):
            gh = ctx.delays(geo, channel).shift
            return _mismatch(f"{channel} centroid shift vs GH shift",
                             out.centroid_shift, gh, 0.02)
        return check

    calls = [
        (lambda: ev.propagate_pulse(sc, pulse, T), pulse_check("transmission")),
        (lambda: ev.propagate_pulse(sc, pulse, R), pulse_check("reflection")),
        (lambda: ev.differential_delay(sc, pulse), diff_check),
        (lambda: ev.front_causality_check(sc, front, dt_factor=16), leak_check(16)),
        (lambda: ev.front_causality_check(sc, front, dt_factor=32), leak_check(32)),
        (lambda: ev.beam_centroid_shift(sc, beam, T), beam_check("transmission")),
        (lambda: ev.beam_centroid_shift(sc, beam, R), beam_check("reflection")),
    ]
    return [Op(kind, run, check, points=points[kind])
            for kind, (run, check) in zip(SYNTH_KINDS, calls)]


# ------------------------------------------------------------------ set-up

def setup_command(workload: str, ctx: Context) -> list[str]:
    """A fresh interpreter that imports evanesce and runs one warm-up
    operation: the first subcommand of the round for ``cli``, a 10-point
    sweep for ``sweep``, one pulse propagation for ``synth``."""
    if workload == "cli":
        return [ctx.python, "-m", "evanesce", "attenuation"]
    if workload == "sweep":
        code = ("from evanesce import cli; import sys; "
                f"sys.exit(cli.main(['hartman', '--out', {os.path.join(ctx.work, 'warm.csv')!r}]))")
    else:
        code = ("import math, evanesce as ev; "
                "ev.propagate_pulse(ev.Scenario(n=1.6, f=9.15e9, "
                "theta=math.radians(45), d=0.04), ev.PulseSpec(fwhm=16e-9, carrier=9.15e9))")
    return [ctx.python, "-c", code]


ROUNDS = {"cli": cli_round, "sweep": sweep_round, "synth": synth_round}
# the in-process form of each workload's round, used by the traced run
INPROCESS_ROUNDS = {"cli": cli_inprocess_round, "sweep": sweep_round,
                    "synth": synth_round}
