"""Rewrite the golden files of the README desk recipe and a small BPE run: PYTHONPATH=src python3 tests/golden/regen.py

The recipe runs in-process, in a temporary directory with fixed relative paths, so that each report's
config_hash is stable.  desk.json records the sha256 of the checkpoint and the vocabulary, the report
rows, and the NumPy version and OpenBLAS build the run had; desk.ckpt is the checkpoint itself, the
reference for an environment that differs.  It also records, on desk.ckpt, the documents of `attribute
--direction both` with each baseline, the report and CSV of `evaluate --rouge --csv` over the recipe's
corpus, and the stdout of `score`.  bpe.json records `evaluate --rouge --csv` of a byte-level BPE
vocabulary learned here from seeded text, on an untrained checkpoint, over references longer than 64
lexical tokens.  A change that alters these outputs on purpose reruns this script and says in
CHANGES.md which file changed and why.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import re
import tempfile
from collections import Counter

import numpy as np

from matcha.checkpoint import save_checkpoint
from matcha.cli import main
from matcha.model import init_params
from matcha.synthetic import make_synthetic_corpus
from matcha.tokenizer import byte_to_unicode

HERE = os.path.dirname(os.path.abspath(__file__))
DESK_ARGV = ["train", "--data", "corpus.jsonl", "--out", "model.ckpt", "--epochs", "5", "--batch-size", "32",
             "--grad-accum", "1", "--dim", "64", "--n-ctx", "16"]

# `attribute`, `evaluate` and `score` run on a copy of desk.ckpt, so their values do not depend on the
# bits training gives here.
GOLDEN_CKPT = "golden.ckpt"
ATTRIBUTE_PAIR = ["--ref", "the door is open", "--cand", "the door is closed"]
DESK_VOCAB = ["--vocab", "model.ckpt.vocab.json"]
EVALUATE_ARGV = ["evaluate", "--data", "corpus.jsonl", "--ckpt", GOLDEN_CKPT, *DESK_VOCAB, "--rouge",
                 "--out", "evaluate.json", "--csv", "evaluate.csv"]
SCORE_ARGV = ["score", "--ckpt", GOLDEN_CKPT, *DESK_VOCAB, *ATTRIBUTE_PAIR]
BPE_ARGV = ["evaluate", "--data", "bpe.jsonl", "--ckpt", "bpe.ckpt", "--vocab", "bpe.vocab.json",
            "--merges", "bpe.merges.txt", "--rouge", "--out", "bpe.report.json", "--csv", "bpe.csv"]


def attribute_argv(baseline: str) -> list[str]:
    return ["attribute", "--ckpt", GOLDEN_CKPT, *DESK_VOCAB, *ATTRIBUTE_PAIR,
            "--direction", "both", "--steps", "64", "--baseline", baseline, "--out", f"attribute.{baseline}.json"]


def _main_in(directory: str, argv: list[str]) -> str:
    """`matcha argv` in `directory`: its stdout; raises unless it exits 0."""
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(argv)
    finally:
        os.chdir(cwd)
    if code != 0:
        raise RuntimeError(f"matcha {' '.join(argv)} exited {code}")
    return out.getvalue()


def _read(directory: str, name: str) -> str:
    with open(os.path.join(directory, name), encoding="utf-8", newline="") as fh:
        return fh.read()


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


def _on_desk_ckpt(directory: str, argv: list[str]) -> str:
    """`matcha argv` on a copy of desk.ckpt, with the corpus and vocabulary `run_desk` wrote in `directory`."""
    shutil.copyfile(os.path.join(HERE, "desk.ckpt"), os.path.join(directory, GOLDEN_CKPT))
    return _main_in(directory, argv)


def run_attribute(directory: str, baseline: str) -> dict:
    """`attribute --direction both` on desk.ckpt: its document."""
    _on_desk_ckpt(directory, attribute_argv(baseline))
    return json.loads(_read(directory, f"attribute.{baseline}.json"))


def run_evaluate(directory: str) -> tuple[dict, str]:
    """`evaluate --rouge --csv` of the desk corpus on desk.ckpt: its report and its CSV text."""
    _on_desk_ckpt(directory, EVALUATE_ARGV)
    return json.loads(_read(directory, "evaluate.json")), _read(directory, "evaluate.csv")


def run_score(directory: str) -> str:
    """`score` of the README pair on desk.ckpt: its stdout."""
    return _on_desk_ckpt(directory, SCORE_ARGV)


# GPT-2 style split (letters, digits, punctuation runs, whitespace), so learned merges never cross the
# boundaries the encoder applies them within.
_PRETOKEN = re.compile(r"'s|'t|'re|'ve|'m|'ll|'d| ?[^\W\d_]+| ?\d+| ?(?:[^\s\w]|_)+|\s+(?!\S)|\s+")


def learn_merges(texts, n_merges: int) -> list[tuple[str, str]]:
    """Greedy byte-level BPE: repeatedly merge the most frequent adjacent pair, ties broken on the pair."""
    byte_encoder = byte_to_unicode()
    counts = Counter(p for text in texts for p in _PRETOKEN.findall(text))
    words = {tuple(byte_encoder[b] for b in w.encode("utf-8")): c for w, c in counts.items()}
    merges: list[tuple[str, str]] = []
    while len(merges) < n_merges:
        pairs: Counter = Counter()
        for symbols, c in words.items():
            for pair in zip(symbols, symbols[1:]):
                pairs[pair] += c
        if not pairs:
            break
        best = max(pairs.items(), key=lambda kv: (kv[1], kv[0]))[0]
        merges.append(best)
        merged: dict[tuple[str, ...], int] = {}
        for symbols, c in words.items():
            out, i = [], 0
            while i < len(symbols):
                if symbols[i : i + 2] == best:
                    out.append(best[0] + best[1])
                    i += 2
                else:
                    out.append(symbols[i])
                    i += 1
            merged[tuple(out)] = merged.get(tuple(out), 0) + c
        words = merged
    return merges


_SITES = ["the north gauge", "Lake Bienne", "the café in Zürich", "the upper weir", "station 7", "Kraków's mill"]
_READINGS = [("rose", "climbed", "fell"), ("stayed above", "remained over", "stayed below"),
             ("doubled", "grew twofold", "halved"), ("exceeded", "surpassed", "missed")]


def _bpe_records(rng: np.random.Generator, count: int) -> list[dict]:
    """Records of 8-12 sentences of about 9 lexical tokens each; the last one's incorrect candidate is
    two sentences long, so its pair has one short side."""
    records = []
    for k in range(count):
        sentences = []
        for _ in range(int(rng.integers(8, 13))):
            site = _SITES[int(rng.integers(len(_SITES)))]
            verb = _READINGS[int(rng.integers(len(_READINGS)))]
            tail = f" {int(rng.integers(1, 1000))} mm at {site} on day {int(rng.integers(1, 32))}."
            sentences.append([f"The level {word}{tail}" for word in verb])
        flipped = int(rng.integers(len(sentences)))
        incorrect = [s[2] if i == flipped else s[0] for i, s in enumerate(sentences)]
        records.append({"reference": " ".join(s[0] for s in sentences),
                        "correct": " ".join(s[1] for s in sentences),
                        "incorrect": " ".join(incorrect[:2] if k == count - 1 else incorrect), "id": f"b{k}"})
    return records


def run_bpe(directory: str) -> tuple[dict, str]:
    """Write the BPE vocabulary, merges, corpus and untrained checkpoint, and run `evaluate --rouge --csv`
    over them in `directory`: its report and its CSV text."""
    rng = np.random.default_rng(5)
    records = _bpe_records(rng, 6)
    merges = learn_merges([r["reference"] for r in records], 120)
    byte_encoder = byte_to_unicode()
    tokens = dict.fromkeys([byte_encoder[b] for b in range(256)] + [a + b for a, b in merges])
    with open(os.path.join(directory, "bpe.vocab.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(zip(tokens, range(len(tokens)))), fh, ensure_ascii=False)
    with open(os.path.join(directory, "bpe.merges.txt"), "w", encoding="utf-8") as fh:
        fh.write("#version: golden\n" + "".join(f"{a} {b}\n" for a, b in merges))
    with open(os.path.join(directory, "bpe.jsonl"), "w", encoding="utf-8") as fh:
        fh.write("".join(json.dumps(r) + "\n" for r in records))
    save_checkpoint(init_params(len(tokens), 16, 4, max_len=512, seed=5), os.path.join(directory, "bpe.ckpt"))
    _main_in(directory, BPE_ARGV)
    return json.loads(_read(directory, "bpe.report.json")), _read(directory, "bpe.csv")


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
        document, text = run_evaluate(directory)
        golden["evaluate"] = {"argv": EVALUATE_ARGV, "document": document, "csv": text}
        golden["score"] = {"argv": SCORE_ARGV, "stdout": run_score(directory)}
    with tempfile.TemporaryDirectory() as directory:
        document, text = run_bpe(directory)
        bpe = {"argv": BPE_ARGV, "environment": environment(), "document": document, "csv": text}
    for name, content in (("desk.json", golden), ("bpe.json", bpe)):
        with open(os.path.join(HERE, name), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(content, indent=2) + "\n")
    print(f"wrote desk.json, desk.ckpt and bpe.json to {HERE}", file=sys.stderr)


if __name__ == "__main__":
    regen()
