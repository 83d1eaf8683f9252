"""Benchmark of evanesce: one workload, one seed, one run.

    python3 perfbench/run.py --workload {cli,sweep,synth} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is taken from
``src/`` as it stands (nothing is built or installed).  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5


def reference_kernel_ms() -> float:
    """A fixed kernel that never calls evanesce (FFT plus a Python loop);
    its time shows how fast the machine is running right now."""
    import numpy as np

    x = np.random.default_rng(0).standard_normal(1 << 16)
    times = []
    for _ in range(9):
        t0 = time.perf_counter()
        np.fft.ifft(np.fft.fft(x))
        acc = 0
        for i in range(300_000):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def tail(times: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it; with 21
    or fewer samples there is no such tail and the median stands in."""
    ordered = sorted(times)
    if len(ordered) <= 21:
        return statistics.median(ordered)
    return ordered[len(ordered) - 11]


class Run:
    """One workload's operations in whole rounds, with their checks."""

    def __init__(self, ctx, workloads_mod):
        self.ctx = ctx
        self.w = workloads_mod
        self.records = []
        self.seq = 0

    def rounds(self, op_set: str, build, seconds: float, first: int = 0,
               tracer=None, count: bool = True) -> list:
        """Run the whole number of rounds, from round ``first`` on, whose
        operation time comes nearest to ``seconds`` (at least one round);
        returns this call's records."""
        out, busy, index = [], 0.0, first
        while index == first or busy + busy / (index - first) / 2 < seconds:
            self.ctx.last.clear()
            for op in build(self.ctx, index):
                self.seq += 1
                if tracer is not None:
                    tracer.op = (op_set, op.kind, self.seq)
                t0 = time.perf_counter()
                try:
                    result = op.run()
                except Exception as exc:   # a failed operation, not a failed run
                    result = exc
                wall = time.perf_counter() - t0
                if tracer is not None:
                    tracer.op = None
                busy += wall
                failure = (f"raised {result!r}" if isinstance(result, Exception)
                           else self._check(op, result))
                out.append(self.w.Record(op_set, op.kind, wall, op.points,
                                         failure, op.fault))
            index += 1
        if count:
            self.records.extend(out)
        return out

    @staticmethod
    def _check(op, result) -> str | None:
        try:
            return op.check(result)
        except Exception as exc:   # malformed output is a failed operation
            return f"check raised {exc!r}"

    def summary(self) -> tuple[bool, int, int]:
        failed = [r for r in self.records if r.failure]
        for r in failed[:5]:
            tag = "known fault" if r.fault else "FAILED"
            print(f"{tag}: {r.kind}: {r.failure}", file=sys.stderr)
        correct = all(r.fault for r in failed)
        return correct, len(self.records), len(failed)


def setup_seconds(workload: str, ctx, w) -> float:
    """Median wall time of fresh interpreters that import evanesce and run
    one warm-up operation."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        p = subprocess.run(w.setup_command(workload, ctx), cwd=ctx.work, env=ctx.env,
                           capture_output=True)
        times.append(time.perf_counter() - t0)
        if p.returncode != 0:
            raise RuntimeError(f"set-up run failed: {p.stderr.decode()[-500:]}")
    return statistics.median(times)


def end_to_end(workload: str, seconds: float, ctx, w) -> tuple[Run, dict]:
    setup = setup_seconds(workload, ctx, w)
    run = Run(ctx, w)
    if workload != "cli":
        ctx.in_process = True
        build = w.ROUNDS[workload]
        build(ctx, -1)[0].run()          # warm-up in this process, untimed
        usage = resource.RUSAGE_SELF
    else:
        build = w.ROUNDS["cli"]
        usage = resource.RUSAGE_CHILDREN
    recs = run.rounds(workload, build, seconds)
    rss_mb = resource.getrusage(usage).ru_maxrss / 1024
    walls = [r.wall for r in recs]
    # every round holds the same operations, so the median round time gives
    # the typical rate, robust to a slow spell of the machine
    per_round = len(build(ctx, 0))
    rounds = [recs[i:i + per_round] for i in range(0, len(recs), per_round)]
    round_s = statistics.median(sum(r.wall for r in rnd) for rnd in rounds)
    metrics = {
        "setup_s": (setup, "s"),
        "op_ms.p50": (statistics.median(walls) * 1e3, "ms"),
        "op_ms.tail": (tail(walls) * 1e3, "ms"),
        "ops_per_s": (per_round / round_s, "1/s"),
        "points_per_s": (sum(r.points for r in rounds[0]) / round_s, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return run, metrics


def traced(workload: str, seconds: float, ctx, w) -> tuple[Run, dict]:
    """Per-layer metrics.  The workload's own operations run in this
    process (``cli`` through ``evanesce.cli.main``): untraced rounds for
    half of ``seconds``, then the same rounds traced.  The other two
    workloads run one untraced and one traced round as layer probes,
    which are not counted."""
    import layers as tr

    ctx.in_process = True
    imports = tr.import_split(ctx)
    run = Run(ctx, w)
    tracer = tr.Tracer()
    untraced, traced_ops = [], []

    def pair(op_set: str, first: int, budget: float, count: bool) -> None:
        build = w.INPROCESS_ROUNDS[op_set]
        plain = run.rounds(op_set, build, budget, first, count=count)
        rounds = len(plain) // len(build(ctx, first))
        tracer.install()
        try:
            seen = run.rounds(op_set, build, 0.0, first, tracer, count=count)
            for extra in range(1, rounds):
                seen += run.rounds(op_set, build, 0.0, first + extra, tracer,
                                   count=count)
        finally:
            tracer.uninstall()
        untraced.extend(plain)
        traced_ops.extend(seen)

    w.INPROCESS_ROUNDS[workload](ctx, -1)[0].run()    # warm-up, untimed
    pair(workload, 0, seconds / 2, count=True)
    for other in ("cli", "sweep", "synth"):
        if other != workload:
            pair(other, 1000, 0.0, count=False)

    layers, absent = tr.layer_metrics(tracer.spans, traced_ops, untraced)
    mine_plain = sum(r.wall for r in untraced if r.op_set == workload)
    mine_traced = sum(r.wall for r in traced_ops if r.op_set == workload)
    metrics = {k: (v, "ms") for k, v in imports.items()}
    metrics.update(layers)
    metrics["trace.overhead_pct"] = ((mine_traced / mine_plain - 1) * 100, "%")
    if absent:
        print("absent per-layer metrics (reported as 0): " + ", ".join(absent))
    return run, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["cli", "sweep", "synth"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "evanesce" / "__init__.py").is_file():
        print(f"perfbench: no evanesce sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ.pop("EVANESCE_THREADS", None)   # the sweep pool at its default
    import workloads as w

    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        ctx = w.Context(root=str(ROOT), work=str(work), seed=args.seed)
        before = reference_kernel_ms()
        if args.trace:
            run, metrics = traced(args.workload, args.seconds, ctx, w)
        else:
            run, metrics = end_to_end(args.workload, args.seconds, ctx, w)
        after = reference_kernel_ms()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    correct, attempted, failed = run.summary()
    print(f"reference kernel: {before:.3f} ms before, {after:.3f} ms after")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
