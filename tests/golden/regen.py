"""Rewrite the golden files of the README desk recipe: PYTHONPATH=src python3 tests/golden/regen.py

The recipe runs in-process, in a temporary directory with fixed relative paths, so that each report's
config_hash is stable.  desk.json records the sha256 of the checkpoint and the vocabulary, the report
rows, and the NumPy version and OpenBLAS build the run had; desk.ckpt is the checkpoint itself, the
reference for an environment that differs.  It also records the documents of `attribute --direction
both` on desk.ckpt with each baseline.  A change that alters these outputs on purpose reruns this
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

# `attribute` runs on a copy of desk.ckpt, so its values do not depend on the bits training gives here.
ATTRIBUTE_CKPT = "golden.ckpt"
ATTRIBUTE_PAIR = ["--ref", "the door is open", "--cand", "the door is closed"]


def attribute_argv(baseline: str) -> list[str]:
    return ["attribute", "--ckpt", ATTRIBUTE_CKPT, "--vocab", "model.ckpt.vocab.json", *ATTRIBUTE_PAIR,
            "--direction", "both", "--steps", "64", "--baseline", baseline, "--out", f"attribute.{baseline}.json"]


def _main_in(directory: str, argv: list[str]) -> None:
    """`matcha argv` in `directory`, its stdout swallowed; raises unless it exits 0."""
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    if code != 0:
        raise RuntimeError(f"matcha {' '.join(argv)} exited {code}")


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
    _main_in(directory, DESK_ARGV)
    with open(os.path.join(directory, "model.ckpt.train.jsonl"), encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def run_attribute(directory: str, baseline: str) -> dict:
    """`attribute --direction both` on desk.ckpt and the vocabulary `run_desk` wrote in `directory`: its document."""
    shutil.copyfile(os.path.join(HERE, "desk.ckpt"), os.path.join(directory, ATTRIBUTE_CKPT))
    _main_in(directory, attribute_argv(baseline))
    with open(os.path.join(directory, f"attribute.{baseline}.json"), encoding="utf-8") as fh:
        return json.load(fh)


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
        golden["attribute"] = {baseline: {"argv": attribute_argv(baseline),
                                          "document": run_attribute(directory, baseline)}
                               for baseline in ("zero", "input")}
    with open(os.path.join(HERE, "desk.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(golden, indent=2) + "\n")
    print(f"wrote desk.json and desk.ckpt to {HERE}", file=sys.stderr)


if __name__ == "__main__":
    regen()
