"""Reference figures for perfbench/README.md that the timed runs do not give:
Hartman sweeps of 10, 100 and 1000 gap widths with the sweep pool at its
default and with EVANESCE_THREADS=1, the plain single-threaded baseline.

    python3 perfbench/reference.py [--repeats 5]

Prints the median wall time of ``hartman_sweep`` alone and of the whole
``hartman`` subcommand through ``evanesce.cli.main`` (which adds the
stored-energy pass and the CSV), at the default scenario.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    import math

    import evanesce as ev
    from evanesce import cli

    scenario = ev.Scenario(n=1.6, f=9.15e9, theta=math.radians(45), d=0.04)
    print(f"{'threads':>8} {'points':>6} {'hartman_sweep ms':>17} {'cli.main ms':>12}")
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = os.path.join(tmp, "sweep.csv")
        for threads in (None, "1"):
            os.environ.pop("EVANESCE_THREADS", None)
            if threads:
                os.environ["EVANESCE_THREADS"] = threads
            for points in (10, 100, 1000):
                d = [(5 + i * 45 / (points - 1)) * 1e-3 for i in range(points)]
                argv = ["hartman", "--d-steps", str(points), "--out", out]
                sweep, whole = [], []
                for _ in range(args.repeats):
                    t0 = time.perf_counter()
                    ev.hartman_sweep(scenario, d)
                    t1 = time.perf_counter()
                    cli.main(argv)
                    t2 = time.perf_counter()
                    sweep.append(t1 - t0)
                    whole.append(t2 - t1)
                print(f"{threads or 'default':>8} {points:>6} "
                      f"{statistics.median(sweep) * 1e3:17.1f} "
                      f"{statistics.median(whole) * 1e3:12.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
