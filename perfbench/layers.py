"""The traced run: per-layer metrics from wrappers around public names.

Wrappers are installed, for the length of one traced round, where the
calling module looks each name up (``evanesce.delay.scatter``,
``evanesce.energy.goos_hanchen_shift``, ...), so calls between the
program's own modules are seen without changing a line of the program.
A name that no longer exists, or that no operation calls, is reported as
absent with the value 0.

Each wrapper records a span: its wall time, its thread CPU time (the
work a call did, without the time a pool thread waited for the
interpreter lock) and the operation it ran under.
"""

from __future__ import annotations

import importlib
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import workloads

# (layer, defining module, attribute, modules that call it by this name)
LAYERS = [
    ("scatter", "evanesce.scattering", "scatter",
     ("evanesce.delay", "evanesce.energy", "evanesce.wavesynth", "evanesce.cli")),
    ("total_group_delay", "evanesce.delay", "total_group_delay", ("evanesce.delay",)),
    ("goos_hanchen_shift", "evanesce.delay", "goos_hanchen_shift",
     ("evanesce.delay", "evanesce.energy", "evanesce.cli")),
    ("hartman_sweep", "evanesce.delay", "hartman_sweep", ("evanesce.cli",)),
    ("stored_energy", "evanesce.energy", "stored_energy", ("evanesce.cli",)),
    ("integrated_density", "evanesce.energy", "integrated_density", ("evanesce.energy",)),
    ("map_ordered", "evanesce.sweep", "map_ordered", ("evanesce.delay",)),
    ("worker_count", "evanesce.sweep", "worker_count", ("evanesce.sweep",)),
    ("time_grid", "evanesce.wavesynth", "time_grid", ("evanesce.wavesynth",)),
]
CSV_LAYER = ("to_csv", "evanesce.sweep", "SweepTable", "to_csv")


@dataclass
class Span:
    layer: str
    op: tuple[str, str, int] | None   # (op set, kind, sequence number)
    wall: float
    cpu: float
    info: Any = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    op: tuple[str, str, int] | None = None
    _undo: list = field(default_factory=list)

    def _wrap(self, layer: str, fn, info=None):
        tracer = self

        def wrapper(*args, **kwargs):
            w0, c0 = time.perf_counter(), time.thread_time()
            result = fn(*args, **kwargs)
            c1, w1 = time.thread_time(), time.perf_counter()
            tracer.spans.append(Span(layer, tracer.op, w1 - w0, c1 - c0,
                                     info(args, kwargs, result) if info else None))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        infos = {"scatter": _scatter_elements, "map_ordered": lambda a, k, r: len(a[1]),
                 "worker_count": lambda a, k, r: r,
                 "time_grid": lambda a, k, r: len(r)}
        for layer, home, attr, sites in LAYERS:
            original = getattr(importlib.import_module(home), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(layer, original, infos.get(layer))
            for site in sites:
                mod = importlib.import_module(site)
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))
        layer, home, cls_name, attr = CSV_LAYER
        cls = getattr(importlib.import_module(home), cls_name, None)
        method = getattr(cls, attr, None)
        if method is not None:
            setattr(cls, attr, self._wrap(layer, method, lambda a, k, r: len(a[0].rows)))
            self._undo.append((cls, attr, method))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)


def _scatter_elements(args, kwargs, result) -> int:
    return int(np.size(result.t))


# ------------------------------------------------------------- import split

def _wall(cmd: list[str], env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, env=env, check=True, capture_output=True)
    return time.perf_counter() - t0


def scipy_share_us(importtime_stderr: str) -> float:
    """Cumulative import time of every scipy module not imported by another
    scipy module, from ``python -X importtime`` output (post-order)."""
    entries = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, int(cumulative), name.strip()))
    total, stack = 0, []
    # reversed post-order visits each module before everything it imported
    for depth, cumulative, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(s for _, s in stack):
            total += cumulative
        stack.append((depth, is_scipy))
    return float(total)


def import_split(ctx: workloads.Context, repeats: int = 3) -> dict[str, float]:
    py, env = ctx.python, ctx.env
    bare = statistics.median(_wall([py, "-c", "pass"], env) for _ in range(repeats))
    full = statistics.median(_wall([py, "-c", "import evanesce"], env)
                             for _ in range(repeats))
    shares = []
    for _ in range(repeats):
        p = subprocess.run([py, "-X", "importtime", "-c", "import evanesce"],
                           env=env, check=True, capture_output=True, text=True)
        shares.append(scipy_share_us(p.stderr))
    return {"import.evanesce_ms": (full - bare) * 1e3,
            "import.scipy_ms": statistics.median(shares) / 1e3}


# ------------------------------------------------------------ layer metrics

CLI_KINDS = ("attenuation", "hartman", "pulse", "pulse-out", "beam", "energy",
             "causality")
SYNTH_MS = {
    "wavesynth.propagate_pulse_ms": ("propagate_pulse-T", "propagate_pulse-R"),
    "wavesynth.differential_delay_ms": ("differential_delay",),
    "wavesynth.front_causality_check_16_ms": ("front_causality_check-16",),
    "wavesynth.front_causality_check_32_ms": ("front_causality_check-32",),
    "wavesynth.beam_centroid_shift_ms": ("beam_centroid_shift-T", "beam_centroid_shift-R"),
}

UNITS = {  # the rest are in ms
    "sweep.csv_rows": "count", "scattering.scatter.calls_per_point": "count",
    "scattering.scatter.scalar_us": "us", "scattering.scatter.elements_per_op": "count",
    "scattering.scatter.ns_per_element": "ns", "delay.total_group_delay_us": "us",
    "delay.goos_hanchen_shift.calls_per_point": "count", "energy.stored_energy_us": "us",
    "energy.integrated_density_us": "us", "sweep.workers": "count",
    "wavesynth.grid_samples_per_op": "count",
}


def layer_metrics(spans: list[Span], ops: list[workloads.Record],
                  untraced: list[workloads.Record]) -> tuple[dict, list[str]]:
    """Per-layer metrics, name -> (value, unit), from the traced spans, the
    traced operations and the untraced operations' times; and the names
    of those whose layer is absent."""
    def sel(layer, op_set, pred=lambda s: True):
        return [s for s in spans if s.layer == layer and s.op and s.op[0] == op_set
                and pred(s)]

    sweep_ops = [o for o in ops if o.op_set == "sweep"]
    synth_ops = [o for o in ops if o.op_set == "synth"]
    sweep_points = sum(o.points for o in sweep_ops)
    scalar = sel("scatter", "sweep", lambda s: s.info == 1)
    array = sel("scatter", "synth", lambda s: s.info > 1)
    tgd = sel("total_group_delay", "sweep")
    csv_spans = sel("to_csv", "cli", lambda s: s.op[1] == "pulse-out")

    def per_call_us(layer):
        got = sel(layer, "sweep")
        return sum(s.cpu for s in got) / len(got) * 1e6 if got else None

    def ratio(num, den):
        return num / den if den else None

    # pool time not spent in per-point work: map wall less the point CPU
    map_spans = sel("map_ordered", "sweep")
    map_self = None
    if map_spans and tgd:
        mapped = {m.op for m in map_spans}
        inside = sum(s.cpu for s in tgd if s.op in mapped)
        map_self = (sum(m.wall for m in map_spans) - inside) * 1e3 / sum(
            m.info for m in map_spans)
    synth_scatter_wall = sum(s.wall for s in sel("scatter", "synth"))
    metrics = {
        "sweep.to_csv_ms": ratio(sum(s.wall for s in csv_spans) * 1e3, len(csv_spans)),
        "sweep.csv_rows": ratio(sum(s.info for s in csv_spans), len(csv_spans)),
        "scattering.scatter.calls_per_point": ratio(len(scalar), sweep_points) if scalar else None,
        "scattering.scatter.scalar_us": ratio(sum(s.cpu for s in scalar) * 1e6, len(scalar)),
        "scattering.scatter.elements_per_op": ratio(sum(s.info for s in array), len(synth_ops)) if array else None,
        "scattering.scatter.ns_per_element": ratio(sum(s.cpu for s in array) * 1e9,
                                                   sum(s.info for s in array)),
        "delay.total_group_delay_us": per_call_us("total_group_delay"),
        "delay.hartman_sweep_ms_per_point": ratio(
            sum(s.wall for s in sel("hartman_sweep", "sweep")) * 1e3,
            sweep_points) if sel("hartman_sweep", "sweep") else None,
        "delay.goos_hanchen_shift.calls_per_point": ratio(
            len(sel("goos_hanchen_shift", "sweep")), sweep_points) or None,
        "energy.stored_energy_us": per_call_us("stored_energy"),
        "energy.integrated_density_us": per_call_us("integrated_density"),
        "sweep.map_ordered.self_ms_per_point": map_self,
        "sweep.workers": max((s.info for s in sel("worker_count", "sweep")), default=None),
        "wavesynth.grid_samples_per_op": ratio(
            sum(s.info for s in sel("time_grid", "synth")), len(synth_ops))
        if sel("time_grid", "synth") else None,
        "wavesynth.self_ms_per_op": ratio(
            (sum(o.wall for o in synth_ops) - synth_scatter_wall) * 1e3, len(synth_ops))
        if sel("scatter", "synth") else None,
    }
    # operation times come from the untraced rounds
    for kind in CLI_KINDS:
        walls = [o.wall for o in untraced if o.op_set == "cli" and o.kind == kind]
        metrics[f"cli.main_ms.{kind}"] = statistics.median(walls) * 1e3 if walls else None
    for name, kinds in SYNTH_MS.items():
        walls = [o.wall for o in untraced if o.op_set == "synth" and o.kind in kinds]
        metrics[name] = statistics.median(walls) * 1e3 if walls else None
    absent = sorted(k for k, v in metrics.items() if v is None)
    return {k: (0.0 if v is None else float(v), UNITS.get(k, "ms"))
            for k, v in metrics.items()}, absent
