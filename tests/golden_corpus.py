"""Golden CLI corpus: the invocations, how one is replayed, and regeneration.

Each case runs ``evanesce.cli.main`` in this process and records its exit
code, stdout, stderr and, for ``--out`` runs, the SHA-256 of the written
file (null when the run wrote none); a ``--config`` case also records the
config it reads.  Warnings are recorded on stderr as ``<Category>:
<message>`` lines, once per distinct source location as the default filter
of a fresh interpreter shows them, but without the file path, so the
corpus does not depend on where the package is installed.

``tests/test_golden.py`` replays the corpus.  A change that moves output
bytes lists them first, each moved case with one line per moved value or
output line, and then regenerates the corpus and names the moved bytes in
its change log:

    PYTHONPATH=src python tests/golden_corpus.py --diff
    PYTHONPATH=src python tests/golden_corpus.py

FFT-derived values depend on numpy's FFT and SIMD paths, so the corpus
records the numpy version it was generated with.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from evanesce import cli

CORPUS = Path(__file__).with_name("golden") / "corpus.json"

# "{out}" stands for a fresh file path, whose contents are hashed.
_PLAIN = [
    ["attenuation"],
    ["attenuation", "--json"],
    ["attenuation", "--d-mm", "1000"],
    ["attenuation", "--polarization", "TM", "--theta-deg", "50"],
    ["attenuation", "--d-mm", "10000"],
    ["attenuation", "--d-mm", "1e300"],
    ["attenuation", "--theta-deg", "30"],
    ["attenuation", "--n", "0.9"],
    ["attenuation", "--theta-deg", "89.9999999"],
    ["attenuation", "--n", "1.5073733443449053", "--theta-deg", "41.560127499892"],
    ["attenuation", "--n", "1.6", "--theta-deg", "38.68218745348944"],
    ["attenuation", "--d-mm", "1e308"],
    ["attenuation", "--n", "4", "--theta-deg", "89", "--f-ghz", "40", "--d-mm", "1e308"],
    ["attenuation", "--f-ghz", "1e-163"],
    ["hartman"],
    ["hartman", "--with-version"],
    ["hartman", "--polarization", "TM"],
    ["hartman", "--out", "{out}"],
    ["hartman", "--d-steps", "1000"],
    ["hartman", "--d-steps", "1000000000000000000000000"],
    ["hartman", "--polarization", "TM", "--d-min-mm", "1", "--d-max-mm", "900",
     "--d-steps", "1000"],
    ["hartman", "--n", "2.1", "--theta-deg", "60", "--f-ghz", "20"],
    ["hartman", "--d-min-mm", "400", "--d-max-mm", "2000", "--d-steps", "9"],
    ["hartman", "--polarization", "TM", "--d-min-mm", "7000", "--d-max-mm", "7100",
     "--d-steps", "3"],
    ["hartman", "--d-min-mm", "9000", "--d-max-mm", "10000", "--d-steps", "3"],
    ["hartman", "--d-max-mm", "1e300"],
    ["hartman", "--d-min-mm", "1e-150", "--d-max-mm", "1e-149", "--d-steps", "3"],
    ["hartman", "--d-min-mm", "1e-300", "--d-max-mm", "1e-299", "--d-steps", "3"],
    ["hartman", "--d-min-mm", "50", "--d-max-mm", "5"],
    ["hartman", "--d-steps", "1"],
    ["hartman", "--theta-deg", "30"],
    ["hartman", "--n", "2.17", "--f-ghz", "34.4", "--theta-deg", "89.9999999",
     "--d-min-mm", "1e-4", "--d-max-mm", "2e-3", "--d-steps", "3"],
    ["hartman", "--d-min-mm", "1e-310", "--d-max-mm", "1e-305", "--d-steps", "3"],
    ["hartman", "--n", "1.5073733443449053", "--theta-deg", "41.560127499892"],
    ["hartman", "--n", "4", "--theta-deg", "89", "--f-ghz", "40", "--d-min-mm", "1e307",
     "--d-max-mm", "1e308", "--d-steps", "2"],
    ["hartman", "--theta-deg", "38.68218745348944"],
    ["pulse"],
    ["pulse", "--out", "{out}"],
    ["pulse", "--channel", "reflection", "--out", "{out}"],
    ["pulse", "--polarization", "TM"],
    ["pulse", "--d-mm", "10", "--with-version"],
    ["pulse", "--fwhm-ns", "1"],
    ["pulse", "--fwhm-ns", "1e12"],
    ["pulse", "--fwhm-ns", "1e200"],
    ["pulse", "--fwhm-ns", "1e308"],
    ["pulse", "--d-mm", "400"],
    ["pulse", "--d-mm", "1000", "--polarization", "TM"],
    ["pulse", "--d-mm", "5000"],
    ["pulse", "--theta-deg", "30"],
    ["pulse", "--d-mm", "0"],
    ["pulse", "--channel", "reflection", "--d-mm", "1e-300", "--out", "{out}"],
    ["pulse", "--theta-deg", "89.9999999"],
    ["pulse", "--d-mm", "200"],
    ["pulse", "--channel", "reflection", "--polarization", "TM"],
    ["pulse", "--channel", "reflection", "--fwhm-ns", "4", "--d-mm", "1e-160"],
    ["pulse", "--d-mm", "100000"],
    ["pulse", "--f-ghz", "1e-4", "--fwhm-ns", "1e6", "--d-mm", "1e-300"],
    ["pulse", "--d-mm", "5"],
    ["pulse", "--d-mm", "10"],
    ["pulse", "--d-mm", "20"],
    ["pulse", "--d-mm", "5", "--polarization", "TM"],
    ["pulse", "--d-mm", "10", "--polarization", "TM"],
    ["pulse", "--d-mm", "20", "--polarization", "TM"],
    ["pulse", "--channel", "reflection", "--d-mm", "10"],
    ["beam"],
    ["beam", "--out", "{out}"],
    ["beam", "--polarization", "TM", "--out", "{out}"],
    ["beam", "--channel", "reflection"],
    ["beam", "--channel", "reflection", "--d-mm", "0"],
    ["beam", "--d-mm", "0"],
    ["beam", "--d-mm", "500"],
    ["beam", "--d-mm", "10000"],
    ["beam", "--theta-deg", "30"],
    ["beam", "--channel", "reflection", "--d-mm", "1e-300", "--out", "{out}"],
    ["beam", "--polarization", "TM", "--n", "1.39", "--theta-deg", "66.3",
     "--f-ghz", "6.13", "--d-mm", "149688", "--waist-wavelengths", "45.6",
     "--out", "{out}"],
    ["beam", "--theta-deg", "38.68218745348944"],
    ["beam", "--waist-wavelengths", "1e16"],
    ["beam", "--d-mm", "1000"],
    ["energy"],
    ["energy", "--d-mm", "0"],
    ["energy", "--d-mm", "400"],
    ["energy", "--d-mm", "10000"],
    ["energy", "--d-mm", "1e300"],
    ["energy", "--train-first-car", "16", "--train-cars", "5"],
    ["energy", "--train-first-car", "1", "--train-cars", "5"],
    ["energy", "--theta-deg", "30"],
    ["energy", "--theta-deg", "89.999999"],
    ["energy", "--d-mm", "1e-300"],
    ["energy", "--polarization", "TM", "--d-mm", "1e-300"],
    ["energy", "--d-mm", "1e-4"],
    ["energy", "--polarization", "TM", "--d-mm", "1e-4"],
    ["energy", "--f-ghz", "1e-163"],
    ["causality"],
    ["causality", "--polarization", "TM"],
    ["causality", "--fwhm-ns", "1e12"],
    ["causality", "--fwhm-ns", "1e300"],
    ["causality", "--theta-deg", "30"],
    ["causality", "--d-mm", "290000"],
    ["causality", "--d-mm", "400"],
    ["causality", "--polarization", "TM", "--d-mm", "10"],
    ["causality", "--f-ghz", "20", "--n", "2.2", "--theta-deg", "70"],
    ["causality", "--rise-ns", "0.3", "--front-sigmas", "5"],
    ["causality", "--front-sigmas", "100"],
    ["causality", "--n", "1.6", "--f-ghz", "13.6", "--theta-deg", "89.9999999",
     "--d-mm", "0.2"],
    ["causality", "--n", "2.2", "--theta-deg", "30"],
    ["causality", "--d-mm", "0"],
    ["causality", "--d-mm", "1000"],
    ["causality", "--d-mm", "10000"],
    ["causality", "--d-mm", "250000"],
    ["causality", "--front-sigmas", "-40"],
    ["attenuation", "--config", ""],
]

# "{config}" stands for a fresh file holding the case's config as JSON.
_WITH_CONFIG = [
    (["attenuation", "--config", "{config}"], {"theta_deg": 50.0}),
    (["attenuation", "--config", "{config}", "--theta-deg", "45"],
     {"theta_deg": 50.0, "d_mm": 10.0}),
    (["attenuation", "--config", "{config}"], {"frequency": 9.15}),
    (["hartman", "--config", "{config}"], {"d_steps": 2.5}),
    (["attenuation", "--config", "{config}"], [1.6, 9.15]),
    (["energy", "--config", "{config}", "--d-mm", "0"], {"d_mm": 40.0}),
    (["attenuation", "--config", "{config}"], {"config": "other.json"}),
]

# (argv, config or None) of every case, in corpus order
CASES = [(argv, None) for argv in _PLAIN] + _WITH_CONFIG


def replay(argv: list[str], workdir: str, config=None) -> dict:
    """Run one invocation through ``cli.main``; return what it printed."""
    out_path = os.path.join(workdir, "out.csv")
    if os.path.exists(out_path):
        os.remove(out_path)
    config_path = os.path.join(workdir, "config.json")
    if config is not None:
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
    tokens = {"{out}": out_path, "{config}": config_path}
    argv = [tokens.get(a, a) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = cli.main(argv)
    seen = set()
    for w in caught:
        key = (w.category, str(w.message), w.filename, w.lineno)
        if key not in seen:
            seen.add(key)
            stderr.write(f"{w.category.__name__}: {w.message}\n")
    record = {"exit": code, "stderr": stderr.getvalue(),
              "stdout": stdout.getvalue().splitlines(keepends=True)}
    if out_path in argv:
        record["out_sha256"] = None  # the run wrote no file
        if os.path.exists(out_path):
            with open(out_path, "rb") as fh:
                record["out_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    return record


def generate() -> dict:
    cases = []
    with tempfile.TemporaryDirectory() as workdir:
        for argv, config in CASES:
            case = {"argv": argv}
            if config is not None:
                case["config"] = config
            cases.append({**case, **replay(argv, workdir, config)})
    return {"numpy": np.__version__, "cases": cases}


def case_id(argv: list[str], config=None) -> str:
    """The case as one line: its argv, then its config as JSON if any."""
    return " ".join(argv) + ("" if config is None else f" {json.dumps(config)}")


def _moved_lines(old: list, new: list) -> list[str]:
    """Each line where two recorded line lists differ, as old -> new."""
    return [f"line {i + 1}: {a!r} -> {b!r}" for i, (a, b) in enumerate(
        itertools.zip_longest(old, new)) if a != b]


def diff() -> list[str]:
    """Replay every case against the recorded corpus without rewriting it:
    for each case whose exit code, stdout, stderr or ``--out`` hash moved,
    the case and every moved line of each moved field."""
    data = json.loads(CORPUS.read_text(encoding="utf-8"))
    recorded = {case_id(c["argv"], c.get("config")): c for c in data["cases"]}
    report = []
    with tempfile.TemporaryDirectory() as workdir:
        for argv, config in CASES:
            name = case_id(argv, config)
            if name not in recorded:
                report.append(f"{name}\n  not in the corpus")
                continue
            old, new = recorded.pop(name), replay(argv, workdir, config)
            moved = [name] + [
                f"  {field}: {old.get(field)!r} -> {new.get(field)!r}"
                for field in ("exit", "out_sha256") if old.get(field) != new.get(field)
            ] + [
                f"  {field} {line}" for field, a, b in (
                    ("stdout", old["stdout"], new["stdout"]),
                    ("stderr", old["stderr"].splitlines(keepends=True),
                     new["stderr"].splitlines(keepends=True)))
                for line in _moved_lines(a, b)
            ]
            if len(moved) > 1:
                report.append("\n".join(moved))
    report.extend(f"{name}\n  recorded but no longer a case" for name in recorded)
    return report


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        moved = diff()
        sys.stdout.writelines(line + "\n" for line in moved)
        sys.stdout.write(f"{len(moved)} of {len(CASES)} cases moved\n")
        sys.exit(1 if moved else 0)
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(generate(), indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    sys.stdout.write(f"wrote {len(CASES)} cases to {CORPUS}\n")
