"""Replay the golden CLI corpus: every byte of stdout, stderr, the exit code
and the ``--out`` file hashes must match (see ``golden_corpus.py``)."""

import json

import numpy as np
import pytest

from golden_corpus import CASES, CORPUS, replay

CORPUS_DATA = json.loads(CORPUS.read_text(encoding="utf-8"))


def case_id(case: dict) -> str:
    argv = " ".join(case["argv"])
    return argv if "config" not in case else f"{argv} {json.dumps(case['config'])}"


def test_corpus_lists_every_case():
    assert [(case["argv"], case.get("config"))
            for case in CORPUS_DATA["cases"]] == CASES


@pytest.mark.parametrize("case", CORPUS_DATA["cases"],
                         ids=[case_id(c) for c in CORPUS_DATA["cases"]])
def test_replay_matches_corpus(case, tmp_path):
    expected = {k: v for k, v in case.items() if k not in ("argv", "config")}
    got = replay(case["argv"], str(tmp_path), case.get("config"))
    assert got == expected, (
        f"output moved; corpus from numpy {CORPUS_DATA['numpy']}, running "
        f"{np.__version__}. If intended, regenerate with "
        "`PYTHONPATH=src python tests/golden_corpus.py` and name the moved bytes")
