"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload sweep --seeds 1-10 [--seconds S]

Runs ``run.py`` once per seed, one run at a time, and prints for each
end-to-end metric the median, the quartiles (``statistics.quantiles(n=4)``)
and the quartile distance as a share of the median, beside the bound in
BENCHMARK.json.  With ``--json FILE`` the raw results are written too;
``perfbench/results/`` is ignored by git and meant for such files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--json", default=None)
    args = parser.parse_args()

    results = []
    for seed in seeds(args.seeds):
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        lines = p.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        results.append(result)
        kernel = lines[-2] if len(lines) > 1 else ""
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']}; {kernel}", flush=True)
    print(f"{'metric':14} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"{metric['name']:14} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{(q3 - q1) / med:8.4f} {metric['bound']:6}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share: {sorted(shares)}")
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
