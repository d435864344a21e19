"""The README desk recipe's `train`, `attribute`, `evaluate` and `score`, and a small BPE `evaluate`, re-run
in-process against the golden files in tests/golden/.

Where NumPy and its OpenBLAS build are the ones desk.json records, the checkpoint must match byte for
byte.  Elsewhere the bytes may differ in the last float32 bit, so each tensor must lie within float32
rounding of the recorded desk.ckpt, and both environments are printed.  The vocabulary and the report
are checked everywhere, and so are the runs on desk.ckpt itself and the BPE run: each JSON document has
the same keys and each number within 1e-12 of the recorded one, and each CSV and stdout the same bytes.
`PYTHONPATH=src python3 tests/golden/regen.py` rewrites the files.
"""

import json
import os

import numpy as np
import pytest

from golden.regen import HERE, environment, run_attribute, run_bpe, run_desk, run_evaluate, run_score, sha256
from matcha.checkpoint import load_checkpoint
from matcha.evaluation import LANE_TOKENS, _lex_tokens
from matcha.model import TENSOR_NAMES


@pytest.fixture(scope="module")
def golden():
    with open(os.path.join(HERE, "desk.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("desk"))
    return directory, run_desk(directory)


def test_report_rows(golden, desk):
    _, rows = desk
    provenance, *epochs = rows
    want_provenance, *want_epochs = golden["report"]
    assert provenance == want_provenance
    assert [sorted(row) for row in epochs] == [sorted(row) for row in want_epochs]
    for got, want in zip(epochs, want_epochs):
        assert (got["epoch"], got["batches"]) == (want["epoch"], want["batches"])
        for key in ("mean_loss", "lr"):
            assert abs(got[key] - want[key]) <= 1e-12 * max(1.0, abs(want[key])), (got, want)


def test_vocabulary_bytes(golden, desk):
    directory, _ = desk
    assert sha256(os.path.join(directory, "model.ckpt.vocab.json")) == golden["sha256"]["model.ckpt.vocab.json"]


def test_checkpoint(golden, desk):
    directory, _ = desk
    path, reference = os.path.join(directory, "model.ckpt"), os.path.join(HERE, "desk.ckpt")
    assert sha256(reference) == golden["sha256"]["model.ckpt"], "desk.ckpt is not the checkpoint desk.json records"
    here, recorded = environment(), golden["environment"]
    if here == recorded:
        assert sha256(path) == golden["sha256"]["model.ckpt"]
        return
    print(f"environment {here} is not the recorded {recorded}: comparing tensors within float32 rounding")
    got, want = load_checkpoint(path), load_checkpoint(reference)
    assert got.hyper == want.hyper
    for name in TENSOR_NAMES:
        a, b = (np.asarray(getattr(p, name), dtype=np.float32) for p in (got, want))
        assert a.shape == b.shape, name
        # One float32 step at the larger magnitude: the most that rounding a float64 value can move it.
        ulp = np.spacing(np.maximum(np.abs(a), np.abs(b)))
        off = np.abs(a.astype(np.float64) - b) > ulp
        assert not off.any(), (f"{name}: {int(off.sum())} of {off.size} entries beyond float32 rounding; "
                               f"environment {here}, recorded {recorded}")


def _same_document(got, want, where="document"):
    """Equal keys, lengths, strings and integers; each float within 1e-12 of max(1, |want|)."""
    assert type(got) is type(want), (where, got, want)
    if isinstance(want, dict):
        assert list(got) == list(want), (where, list(got), list(want))
        for key in want:
            _same_document(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), (where, len(got), len(want))
        for k, (a, b) in enumerate(zip(got, want)):
            _same_document(a, b, f"{where}[{k}]")
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (where, got, want)
    else:
        assert got == want, (where, got, want)


@pytest.mark.parametrize("baseline", ["zero", "input"])
def test_attribute_documents(golden, desk, baseline):
    directory, _ = desk
    _same_document(run_attribute(directory, baseline), golden["attribute"][baseline]["document"])


def test_evaluate_report_and_csv(golden, desk):
    directory, _ = desk
    document, text = run_evaluate(directory)
    _same_document(document, golden["evaluate"]["document"])
    assert text == golden["evaluate"]["csv"]


def test_score_stdout(golden, desk):
    directory, _ = desk
    assert run_score(directory) == golden["score"]["stdout"]


def test_bpe_evaluate_report_and_csv(tmp_path):
    with open(os.path.join(HERE, "bpe.json"), encoding="utf-8") as fh:
        want = json.load(fh)
    document, text = run_bpe(str(tmp_path))
    with open(tmp_path / "bpe.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    # Every reference is past the uint64 lanes, so the big-int LCS is pinned too.
    assert min(len(_lex_tokens(r["reference"])) for r in records) > LANE_TOKENS
    _same_document(document, want["document"])
    assert text == want["csv"], f"environment {environment()}, recorded {want['environment']}"
