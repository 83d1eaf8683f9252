"""One regime predicate: kappa's radicand n^2 sin^2(theta) - 1 > 0 decides
the evanescent regime, for ``Scenario.is_tunneling`` and for ``wavevectors``
alike, so no angle passes the regime check with kappa = 0.

Within an ulp of the critical angle the two forms n sin(theta) > 1 and
n^2 sin^2(theta) - 1 > 0 disagree; a seeded draw of angles there, given to
the CLI in degrees, must exit 2 with the below-critical line or exit 0 with
finite output, never 3.  The seed and the spread are fixed.
"""

import contextlib
import io
import math
import random
import re
import warnings

import numpy as np
import pytest

from evanesce import Scenario, cli, critical_angle, wavevectors

COMMANDS = ("attenuation", "hartman", "pulse", "beam", "energy", "causality")
BELOW_CRITICAL = re.compile(
    r"error: theta \d+\.\d\d deg is below the critical angle \d+\.\d\d deg "
    r"for n=\S+; this command needs the evanescent regime\n")
_NON_FINITE = re.compile(r"\b(nan|NaN|inf|Infinity)\b")

# n sin(theta) > 1 held here while the radicand was 0: kappa = 0 passed the
# regime check and the commands divided by zero
DEFECT = ("1.5073733443449053", "41.560127499892")
# the radicand is > 0 here while n sin(theta) > 1 did not hold
FLIPPED = [("1.6", "38.68218745348944"), ("1.3", "50.2848627681738")]

SEED = 21
ANGLES_PER_INDEX = 6
SPREAD = 3e-16  # rad about asin(1/n)
INDICES = (1.5073733443449053, 1.6, 1.3)


def run(argv):
    """Exit code, stdout and stderr of one in-process run, RuntimeWarning an
    error."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def near_critical_draw():
    rng = random.Random(SEED)
    return [(repr(n), repr(math.degrees(math.asin(1 / n)
                                        + rng.uniform(-SPREAD, SPREAD))))
            for n in INDICES for _ in range(ANGLES_PER_INDEX)]


@pytest.mark.parametrize("command", COMMANDS)
def test_defect_angle_is_below_critical(command):
    code, out, err = run([command, "--n", DEFECT[0], "--theta-deg", DEFECT[1]])
    assert (code, out) == (2, "")
    assert BELOW_CRITICAL.fullmatch(err), err


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("n, theta_deg", FLIPPED)
def test_flipped_angles_are_evanescent(command, n, theta_deg):
    code, out, err = run([command, "--n", n, "--theta-deg", theta_deg])
    assert (code, err) == (0, "")
    assert out and not _NON_FINITE.search(out), out


@pytest.mark.parametrize("n, theta_deg", near_critical_draw())
def test_near_critical_draw(n, theta_deg):
    for command in COMMANDS:
        code, out, err = run([command, "--n", n, "--theta-deg", theta_deg])
        if code == 2:
            assert out == "" and BELOW_CRITICAL.fullmatch(err), (command, err)
        else:
            assert (code, err) == (0, ""), (command, err)
            assert not _NON_FINITE.search(out), (command, out)


def test_tunneling_iff_kappa_positive():
    # at ordinary carriers kappa is > 0 exactly where the radicand is
    rng = np.random.default_rng(SEED)
    for _ in range(20000):
        n = rng.uniform(1.01, 4.0)
        theta = critical_angle(n) + rng.choice([-1, 1]) * 10 ** rng.uniform(-17, -1)
        s = Scenario(n=n, f=10 ** rng.uniform(8.5, 10.7), theta=theta, d=0.04)
        assert s.is_tunneling == (wavevectors(s).kappa > 0), s
