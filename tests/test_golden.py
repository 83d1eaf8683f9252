"""Replay the golden CLI corpus: every byte of stdout, stderr, the exit code
and the ``--out`` file hashes must match (see ``golden_corpus.py``)."""

import json

import numpy as np
import pytest

import golden_corpus
from golden_corpus import CASES, CORPUS, case_id, replay

CORPUS_DATA = json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_lists_every_case():
    assert [(case["argv"], case.get("config"))
            for case in CORPUS_DATA["cases"]] == CASES


@pytest.mark.parametrize("case", CORPUS_DATA["cases"],
                         ids=[case_id(c["argv"], c.get("config"))
                              for c in CORPUS_DATA["cases"]])
def test_replay_matches_corpus(case, tmp_path):
    expected = {k: v for k, v in case.items() if k not in ("argv", "config")}
    got = replay(case["argv"], str(tmp_path), case.get("config"))
    assert got == expected, (
        f"output moved; corpus from numpy {CORPUS_DATA['numpy']}, running "
        f"{np.__version__}. `PYTHONPATH=src python tests/golden_corpus.py "
        "--diff` lists the moved bytes; if intended, regenerate without "
        "--diff and name them")


def test_diff_names_each_moved_field(tmp_path, monkeypatch):
    case = dict(CORPUS_DATA["cases"][0])
    assert case["argv"] == ["attenuation"] and case["exit"] == 0
    real_first = case["stdout"][0]
    case.update(exit=3, stdout=["moved\n", *case["stdout"][1:]])
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({"cases": [case]}), encoding="utf-8")
    monkeypatch.setattr(golden_corpus, "CORPUS", corpus)
    monkeypatch.setattr(golden_corpus, "CASES", [(["attenuation"], None),
                                                 (["energy"], None)])
    assert golden_corpus.diff() == [
        f"attenuation\n  exit: 3 -> 0\n  stdout line 1: 'moved\\n' -> {real_first!r}",
        "energy\n  not in the corpus",
    ]


def test_diff_lists_every_moved_line(tmp_path, monkeypatch):
    # a pulse report moves on up to four lines; each is listed
    case = next(dict(c) for c in CORPUS_DATA["cases"] if c["argv"] == ["pulse"])
    real = case["stdout"]
    case.update(stdout=[real[0], "moved\n", *real[2:4], "also moved\n", *real[5:]])
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({"cases": [case]}), encoding="utf-8")
    monkeypatch.setattr(golden_corpus, "CORPUS", corpus)
    monkeypatch.setattr(golden_corpus, "CASES", [(["pulse"], None)])
    assert golden_corpus.diff() == [
        f"pulse\n  stdout line 2: 'moved\\n' -> {real[1]!r}"
        f"\n  stdout line 5: 'also moved\\n' -> {real[4]!r}",
    ]
