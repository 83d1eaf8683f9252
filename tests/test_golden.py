"""Replay the golden CLI corpus: every byte of stdout, stderr, the exit code
and the ``--out`` file hashes must match (see ``golden_corpus.py``)."""

import json

import numpy as np
import pytest

from golden_corpus import CASES, CORPUS, replay

CORPUS_DATA = json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_lists_every_case():
    assert [case["argv"] for case in CORPUS_DATA["cases"]] == CASES


@pytest.mark.parametrize("case", CORPUS_DATA["cases"],
                         ids=[" ".join(c["argv"]) for c in CORPUS_DATA["cases"]])
def test_replay_matches_corpus(case, tmp_path):
    expected = {k: v for k, v in case.items() if k != "argv"}
    got = replay(case["argv"], str(tmp_path))
    assert got == expected, (
        f"output moved; corpus from numpy {CORPUS_DATA['numpy']}, running "
        f"{np.__version__}. If intended, regenerate with "
        "`PYTHONPATH=src python tests/golden_corpus.py` and name the moved bytes")
