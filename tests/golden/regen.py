"""Rewrite the golden files of the README desk recipe's `train`: PYTHONPATH=src python3 tests/golden/regen.py

The recipe runs in-process, in a temporary directory with fixed relative paths, so that the report's
config_hash is stable.  desk.json records the sha256 of the checkpoint and the vocabulary, the report
rows, and the NumPy version and OpenBLAS build the run had; desk.ckpt is the checkpoint itself, the
reference for an environment that differs.  A change that alters these outputs on purpose reruns this
script and says in CHANGES.md which file changed and why.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile

import numpy as np

from matcha.cli import main
from matcha.synthetic import make_synthetic_corpus

HERE = os.path.dirname(os.path.abspath(__file__))
DESK_ARGV = ["train", "--data", "corpus.jsonl", "--out", "model.ckpt", "--epochs", "5", "--batch-size", "32",
             "--grad-accum", "1", "--dim", "64", "--n-ctx", "16"]


def environment() -> dict:
    """The NumPy version and OpenBLAS build, which decide whether a checkpoint can match bit for bit."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "openblas configuration": blas.get("openblas configuration")}


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_desk(directory: str) -> list[dict]:
    """Run the README desk recipe in `directory`; returns the rows of its report."""
    with open(os.path.join(directory, "corpus.jsonl"), "w", encoding="utf-8") as fh:
        for r in make_synthetic_corpus(2000, seed=3):
            fh.write(json.dumps({"reference": r.reference, "correct": r.correct, "incorrect": r.incorrect,
                                 "dataset": r.dataset, "id": r.id}) + "\n")
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(DESK_ARGV)
    finally:
        os.chdir(cwd)
    if code != 0:
        raise RuntimeError(f"matcha {' '.join(DESK_ARGV)} exited {code}")
    with open(os.path.join(directory, "model.ckpt.train.jsonl"), encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def regen() -> None:
    with tempfile.TemporaryDirectory() as directory:
        rows = run_desk(directory)
        golden = {
            "argv": DESK_ARGV,
            "corpus": "make_synthetic_corpus(2000, seed=3)",
            "environment": environment(),
            "sha256": {name: sha256(os.path.join(directory, name)) for name in ("model.ckpt", "model.ckpt.vocab.json")},
            "report": rows,
        }
        shutil.copyfile(os.path.join(directory, "model.ckpt"), os.path.join(HERE, "desk.ckpt"))
    with open(os.path.join(HERE, "desk.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(golden, indent=2) + "\n")
    print(f"wrote desk.json and desk.ckpt to {HERE}", file=sys.stderr)


if __name__ == "__main__":
    regen()
