"""Seeded domain sampler: a fixed draw of CLI invocations over the
advertised domain, each run in-process with ``RuntimeWarning`` as an error.

The draw spans all six subcommands with edge values mixed in: incidence
angles from just above critical to within 1e-7 deg of grazing, gaps of 0,
1e-300 mm and 300 m, indices near 1.  ``--fwhm-ns`` is capped so that no
synthesis grid exceeds the one of the defaults (fwhm * f <= 16 ns * 9.15 GHz).
Every run must exit 0, 2 or 3; a failure prints one line on stderr and
nothing on stdout, a success no NaN or Infinity; and no angle that
``Scenario`` accepts may fail for want of a propagating k_x in the prism.
The seed and the ranges are fixed: a failure is mended, never drawn away.
"""

import contextlib
import io
import math
import random
import re
import warnings

import pytest

from evanesce import cli

SEED = 19
DRAWS = 300
COMMANDS = ("attenuation", "hartman", "pulse", "beam", "energy", "causality")
# fwhm * f of the default 16 ns pulse at 9.15 GHz, in ns * GHz
MAX_CYCLES = 16.0 * 9.15


def _angle(rng: random.Random, n: float) -> float:
    """Incidence angle [deg] above the critical one, edges weighted."""
    critical = math.degrees(math.asin(1 / n))
    kind = rng.randrange(4)
    if kind == 0:  # just above critical
        return critical + 10 ** rng.uniform(-9, -1)
    if kind == 1:  # near grazing, down to 1e-7 deg from 90
        return 90.0 - 10 ** rng.uniform(-7, -1)
    if kind == 2:
        return 90.0 - 1e-7
    return rng.uniform(critical, 90.0 - 1e-7)


def _gap_mm(rng: random.Random) -> float:
    kind = rng.randrange(5)
    if kind == 0:
        return 0.0
    if kind == 1:
        return 1e-300
    if kind == 2:
        return 3e5  # 300 m
    return 10 ** rng.uniform(-4, 4)


def draw(rng: random.Random) -> list[str]:
    command = rng.choice(COMMANDS)
    n = 1 + 10 ** rng.uniform(-6, -1) if rng.random() < 0.3 else rng.uniform(1.1, 4.0)
    f_ghz = rng.uniform(0.5, 40.0)
    argv = [command, "--n", repr(n), "--f-ghz", repr(f_ghz),
            "--theta-deg", repr(_angle(rng, n)),
            "--polarization", rng.choice(("TE", "TM"))]
    if command == "hartman":
        d_min = 1e-300 if rng.random() < 0.2 else 10 ** rng.uniform(-4, 4)
        argv += ["--d-min-mm", repr(d_min),
                 "--d-max-mm", repr(d_min * 10 ** rng.uniform(0.01, 3)),
                 "--d-steps", str(rng.randint(2, 40))]
    else:
        argv += ["--d-mm", repr(_gap_mm(rng))]
    if command in ("pulse", "causality"):
        argv += ["--fwhm-ns", repr(rng.uniform(0.1, MAX_CYCLES / f_ghz))]
    if command in ("pulse", "beam"):
        argv += ["--channel", rng.choice(("transmission", "reflection"))]
    if command == "beam":
        argv += ["--waist-wavelengths", repr(rng.uniform(5.0, 60.0))]
    if command == "attenuation" and rng.random() < 0.5:
        argv.append("--json")
    return argv


_RNG = random.Random(SEED)
CASES = [draw(_RNG) for _ in range(DRAWS)]
_NON_FINITE = re.compile(r"\b(nan|NaN|inf|Infinity)\b")


@pytest.mark.parametrize("argv", CASES,
                         ids=[f"{i}-{argv[0]}" for i, argv in enumerate(CASES)])
def test_domain_draw(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    out, err = stdout.getvalue(), stderr.getvalue()
    assert code in (0, 2, 3), err
    if code:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), err
        assert "propagating wave in the prism" not in err, err
        assert "grazing" not in err, err
    else:
        assert err == ""
        assert not _NON_FINITE.search(out), out
