"""Seeded input generators for the three benchmark workloads.

Each workload writes its corpus, vocabulary and (for gpt2-table) imported
checkpoint into a work directory; the program under test only ever sees
those files.  The same seed always produces byte-identical inputs.
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from matcha.checkpoint import save_checkpoint
from matcha.model import init_params
from matcha.synthetic import make_synthetic_corpus
from matcha.tokenizer import WordVocabulary, byte_to_unicode


@dataclass(frozen=True)
class Spec:
    """Sizes and recipe of one workload; `tiny` variants drive the self-test."""

    name: str
    train_records: int
    eval_records: int
    train_flags: tuple[str, ...]
    rouge: bool
    attribute_triplets: int
    loss_must_fall: bool = False
    separation_gate: bool = False
    sizes: dict = field(default_factory=dict)


# Why each workload was chosen is recorded in BENCHMARK.json.  Sizes keep one
# run of each within about 40 s on 2 cores.
SPECS = {
    # The README and acceptance recipe: 2,000 synthetic triplets, 1,600 trained.
    "desk": Spec(
        name="desk",
        train_records=1600,
        eval_records=400,
        train_flags=("--epochs", "5", "--batch-size", "32", "--grad-accum", "1",
                     "--dim", "64", "--n-ctx", "16", "--max-len", "64"),
        rouge=True,
        attribute_triplets=24,
        loss_must_fall=True,
        separation_gate=True,
        sizes={"corpus": 2000},
    ),
    # The table of the paper's GPT-2 recipe, but batch 16 with grad-accum 2 in
    # place of 128 and 8: one batch-128 micro-batch alone takes about 1.5 s.
    # Each call still allocates the dense (V, D) gradients, takes an Adam step
    # over every entry, and loads and saves the 51 MB checkpoint.
    "gpt2-table": Spec(
        name="gpt2-table",
        train_records=32,
        eval_records=20,
        train_flags=("--epochs", "1", "--batch-size", "16", "--grad-accum", "2"),
        rouge=False,
        attribute_triplets=3,
        sizes={"vocab": 50257, "dim": 256, "n_ctx": 16, "max_len": 64, "min_words": 16, "max_words": 64},
    ),
    # About 390 BPE tokens per document; training is short, evaluation and
    # attribution are heavy.
    "bpe-long": Spec(
        name="bpe-long",
        train_records=32,
        eval_records=6,
        train_flags=("--epochs", "1", "--batch-size", "16", "--grad-accum", "1",
                     "--dim", "64", "--n-ctx", "16", "--max-len", "512"),
        rouge=True,
        attribute_triplets=4,
        sizes={"merges": 1000, "min_sentences": 20, "max_sentences": 60, "merge_corpus": 2000},
    ),
}


@dataclass
class Inputs:
    """Files of one generated workload plus the held-out records they hold."""

    train_jsonl: str
    eval_jsonl: str
    train_vocab_flags: list[str]
    eval_vocab_flags: list[str]
    vocab_path: str
    merges_path: str | None
    eval_records: list[tuple[str, str, str]]


def _write_jsonl(path: str, triplets, dataset: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, (ref, cor, inc) in enumerate(triplets):
            row = {"reference": ref, "correct": cor, "incorrect": inc, "dataset": dataset, "id": f"{dataset}-{i}"}
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def _spread(rng: np.random.Generator, low: int, high: int, count: int) -> list[int]:
    """`count` sizes evenly spaced over [low, high], in seeded order.

    Content changes with the seed but each split's total size does not, so
    runs on different seeds do the same amount of work.
    """
    return [int(n) for n in rng.permutation(np.linspace(low, high, count).round().astype(int))]


def _split_sizes(rng: np.random.Generator, spec: Spec, low: int, high: int) -> list[int]:
    """Sizes of the train split, then of the held-out split.

    The first `attribute_triplets` held-out triplets, the ones attributed,
    are a spread of their own, so the attribute phase's work is fixed too.
    """
    counts = (spec.train_records, spec.attribute_triplets, spec.eval_records - spec.attribute_triplets)
    return [n for count in counts for n in _spread(rng, low, high, count)]


def _finish(spec: Spec, workdir: str, train, held, **files) -> Inputs:
    train_jsonl = os.path.join(workdir, "train.jsonl")
    eval_jsonl = os.path.join(workdir, "held.jsonl")
    _write_jsonl(train_jsonl, train, "train")
    _write_jsonl(eval_jsonl, held, "held")
    return Inputs(train_jsonl=train_jsonl, eval_jsonl=eval_jsonl, eval_records=list(held), **files)


# --- desk -------------------------------------------------------------------


def build_desk(spec: Spec, seed: int, workdir: str) -> Inputs:
    records = make_synthetic_corpus(spec.sizes["corpus"], seed=seed)
    order = np.random.default_rng(seed).permutation(len(records))
    triplets = [(r.reference, r.correct, r.incorrect) for r in (records[int(i)] for i in order)]
    train = triplets[: spec.train_records]
    held = triplets[spec.train_records : spec.train_records + spec.eval_records]
    # `matcha train` builds the word vocabulary and writes it next to the checkpoint.
    vocab_path = os.path.join(workdir, "model.ckpt.vocab.json")
    return _finish(
        spec, workdir, train, held,
        train_vocab_flags=[], eval_vocab_flags=["--vocab", vocab_path],
        vocab_path=vocab_path, merges_path=None,
    )


# --- gpt2-table ---------------------------------------------------------------

_SYLLABLES = [c + v for c in "bcdfghjklmnprstvwz" for v in ("a", "e", "i", "o", "u", "ai", "ou")]


def _pseudo_words(rng: np.random.Generator, count: int) -> list[str]:
    words: set[str] = set()
    ordered: list[str] = []
    while len(ordered) < count:
        n_syl = int(rng.integers(1, 5))
        word = "".join(_SYLLABLES[int(i)] for i in rng.integers(len(_SYLLABLES), size=n_syl))
        if word not in words:
            words.add(word)
            ordered.append(word)
    return ordered


def build_gpt2_table(spec: Spec, seed: int, workdir: str) -> Inputs:
    s = spec.sizes
    rng = np.random.default_rng(seed)
    words = _pseudo_words(rng, s["vocab"] - 1)
    vocab = WordVocabulary(token_to_id={WordVocabulary.UNK: 0, **{w: i + 1 for i, w in enumerate(words)}})
    vocab_path = os.path.join(workdir, "words.json")
    vocab.save(vocab_path)

    table = rng.normal(0.0, 0.1, size=(s["vocab"], s["dim"])).astype(np.float32).astype(np.float64)
    params = init_params(s["vocab"], s["dim"], s["n_ctx"], max_len=s["max_len"], seed=seed, embedding=table)
    init_ckpt = os.path.join(workdir, "init.ckpt")
    save_checkpoint(params, init_ckpt)
    del table, params

    # Zipf ranks mapped through a permutation so frequent words sit all over the table.
    rank_to_word = rng.permutation(len(words))

    def doc(n: int) -> list[str]:
        ranks = (rng.zipf(1.1, size=n) - 1) % len(words)
        return [words[int(rank_to_word[r])] for r in ranks]

    triplets = []
    for length in _split_sizes(rng, spec, s["min_words"], s["max_words"]):
        ref = doc(length)
        cor = list(ref)
        cor.pop(int(rng.integers(len(cor))))
        cor.insert(int(rng.integers(len(cor))), cor[int(rng.integers(len(cor)))])
        inc = list(ref)
        for pos in rng.choice(len(inc), size=max(1, len(inc) // 4), replace=False):
            inc[int(pos)] = doc(1)[0]
        triplets.append((" ".join(ref), " ".join(cor), " ".join(inc)))
    flags = ["--vocab", vocab_path]
    return _finish(
        spec, workdir, triplets[: spec.train_records], triplets[spec.train_records :],
        train_vocab_flags=flags + ["--init-ckpt", init_ckpt], eval_vocab_flags=flags,
        vocab_path=vocab_path, merges_path=None,
    )


# --- bpe-long -------------------------------------------------------------------

_SUBJECTS = ["The temperature", "The river level", "The café's revenue", "Traffic speed",
             "The wind", "Rainfall", "The glacier's edge", "Pressure in the hall",
             "The market index", "Demand for crêpes", "The reactor output", "Soil moisture"]
_PLACES = ["Zürich", "São Paulo", "Kraków", "Malmö", "Reykjavík", "Besançon", "Łódź",
           "Córdoba", "Tromsø", "Kyōto", "Dvůr Králové", "Genève", "Oslo", "Lyon"]
_UNITS = ["°C", "km/h", "µm", "kg", "m²", "€", "hPa", "mm", "MW", "%", "kWh", "m³/s"]
# (word, paraphrase, contradiction)
_VERBS = [("rose", "climbed", "fell"), ("fell", "dropped", "rose"),
          ("increased", "grew", "decreased"), ("decreased", "shrank", "increased"),
          ("stayed above", "remained over", "stayed below"), ("stayed below", "remained under", "stayed above"),
          ("exceeded", "surpassed", "missed"), ("doubled", "grew twofold", "halved")]


def _sentence(rng: np.random.Generator) -> tuple[str, str, str]:
    subject = _SUBJECTS[int(rng.integers(len(_SUBJECTS)))]
    place = _PLACES[int(rng.integers(len(_PLACES)))]
    verb, para, flip = _VERBS[int(rng.integers(len(_VERBS)))]
    value = f"{rng.integers(1, 100)}.{rng.integers(0, 10)}" if rng.random() < 0.25 else str(rng.integers(1, 1000))
    unit = _UNITS[int(rng.integers(len(_UNITS)))]
    tail = f" {value} {unit} in {place}."
    return f"{subject} {verb}{tail}", f"{subject} {para}{tail}", f"{subject} {flip}{tail}"


def _bpe_document(rng: np.random.Generator, n_sentences: int) -> tuple[str, str, str]:
    sentences = [_sentence(rng) for _ in range(n_sentences)]
    flipped = int(rng.integers(n_sentences))
    reference = " ".join(s[0] for s in sentences)
    correct = " ".join(s[1] for s in sentences)
    incorrect = " ".join(s[2] if i == flipped else s[0] for i, s in enumerate(sentences))
    return reference, correct, incorrect


# GPT-2 style split (letters, digits, punctuation runs, whitespace), so learned
# merges never cross the boundaries the encoder applies them within.
_PRETOKEN = re.compile(r"'s|'t|'re|'ve|'m|'ll|'d| ?[^\W\d_]+| ?\d+| ?(?:[^\s\w]|_)+|\s+(?!\S)|\s+")


def learn_merges(texts, n_merges: int) -> list[tuple[str, str]]:
    """Greedy byte-level BPE: repeatedly merge the most frequent adjacent pair.

    Ties break on the pair itself, so the result depends only on the texts.
    """
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
        joined = best[0] + best[1]
        merged_words: dict[tuple[str, ...], int] = {}
        for symbols, c in words.items():
            if best[0] in symbols:
                out, i = [], 0
                while i < len(symbols):
                    if i + 1 < len(symbols) and symbols[i] == best[0] and symbols[i + 1] == best[1]:
                        out.append(joined)
                        i += 2
                    else:
                        out.append(symbols[i])
                        i += 1
                symbols = tuple(out)
            merged_words[symbols] = merged_words.get(symbols, 0) + c
        words = merged_words
    return merges


def build_bpe_long(spec: Spec, seed: int, workdir: str) -> Inputs:
    s = spec.sizes
    rng = np.random.default_rng(seed)
    merge_texts = [" ".join(_sentence(rng)) for _ in range(s["merge_corpus"])]
    merges = learn_merges(merge_texts, s["merges"])
    byte_encoder = byte_to_unicode()
    tokens = [byte_encoder[b] for b in range(256)] + [a + b for a, b in merges]
    token_to_id = {t: i for i, t in enumerate(dict.fromkeys(tokens))}
    vocab_path = os.path.join(workdir, "vocab.json")
    merges_path = os.path.join(workdir, "merges.txt")
    with open(vocab_path, "w", encoding="utf-8") as fh:
        json.dump(token_to_id, fh, ensure_ascii=False)
    with open(merges_path, "w", encoding="utf-8") as fh:
        fh.write("#version: bench\n" + "".join(f"{a} {b}\n" for a, b in merges))

    triplets = [_bpe_document(rng, n) for n in _split_sizes(rng, spec, s["min_sentences"], s["max_sentences"])]
    flags = ["--vocab", vocab_path, "--merges", merges_path]
    return _finish(
        spec, workdir, triplets[: spec.train_records], triplets[spec.train_records :],
        train_vocab_flags=flags, eval_vocab_flags=flags,
        vocab_path=vocab_path, merges_path=merges_path,
    )


GENERATORS = {"desk": build_desk, "gpt2-table": build_gpt2_table, "bpe-long": build_bpe_long}


def build(spec: Spec, seed: int, workdir: str) -> Inputs:
    return GENERATORS[spec.name](spec, seed, workdir)
