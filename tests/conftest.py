import json
import mmap
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from matcha.checkpoint import save_checkpoint
from matcha.data import tokenize_records
from matcha.model import init_params
from matcha.synthetic import make_synthetic_corpus
from matcha.tokenizer import build_word_vocabulary, byte_to_unicode, load_vocabulary
from matcha.training import TrainConfig, train

SP = byte_to_unicode()[32]  # byte-encoded space


def maps_the_file(array) -> bool:
    """Whether `array` is a view of an mmap, as a loaded checkpoint's embedding table is."""
    while isinstance(array, np.ndarray):
        array = array.base
    return isinstance(array, memoryview) and isinstance(array.obj, mmap.mmap)


def _test_merges() -> list[tuple[str, str]]:
    """A small self-consistent merge list over common English fragments."""
    return [
        ("t", "h"), ("h", "e"), ("i", "n"), ("e", "r"), ("a", "n"), ("r", "e"),
        ("o", "n"), ("a", "t"), ("o", "r"), ("l", "d"), ("l", "l"), ("i", "s"),
        ("th", "e"), ("an", "d"), ("he", "l"), ("hel", "l"), ("hell", "o"),
        (SP, "t"), (SP, "a"), (SP, "w"), (SP, "c"), (SP, "s"), (SP, "o"), (SP, "h"),
        (SP + "t", "he"), (SP + "a", "n"), (SP + "w", "or"), (SP + "wor", "ld"),
        (SP + "c", "at"), (SP + "s", "at"), (SP + "o", "n"), (SP + "h", "is"),
    ]


def write_bpe_files(directory) -> tuple[str, str, list[tuple[str, str]], dict[str, int]]:
    byte_encoder = byte_to_unicode()
    tokens = [byte_encoder[b] for b in range(256)]
    merges = _test_merges()
    for left, right in merges:
        tokens.append(left + right)
    token_to_id = {tok: i for i, tok in enumerate(tokens)}
    vocab_path = str(directory / "vocab.json")
    merges_path = str(directory / "merges.txt")
    with open(vocab_path, "w", encoding="utf-8") as fh:
        json.dump(token_to_id, fh, ensure_ascii=False)
    with open(merges_path, "w", encoding="utf-8") as fh:
        fh.write("#version: test\n")
        for left, right in merges:
            fh.write(f"{left} {right}\n")
    return vocab_path, merges_path, merges, token_to_id


@pytest.fixture(scope="session")
def bpe_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("bpe")
    vocab_path, merges_path, merges, token_to_id = write_bpe_files(directory)
    return SimpleNamespace(
        vocab_path=vocab_path,
        merges_path=merges_path,
        merges=merges,
        token_to_id=token_to_id,
    )


@pytest.fixture(scope="session")
def bpe_vocab(bpe_files):
    return load_vocabulary(bpe_files.vocab_path, bpe_files.merges_path)


def random_utf8_text(rng: np.random.Generator, max_bytes: int = 200) -> str:
    ranges = [
        (0x20, 0x7E),
        (0xA1, 0x2FF),
        (0x370, 0x3FF),
        (0x400, 0x4FF),
        (0x4E00, 0x4FFF),
        (0x1F300, 0x1F5FF),
    ]
    chars = []
    n_bytes = 0
    target = int(rng.integers(1, 64))
    while len(chars) < target:
        lo, hi = ranges[int(rng.integers(len(ranges)))]
        ch = chr(int(rng.integers(lo, hi + 1)))
        width = len(ch.encode("utf-8"))
        if n_bytes + width > max_bytes:
            break
        chars.append(ch)
        n_bytes += width
    return "".join(chars) or "a"


DESK_MAX_LEN = 64


@pytest.fixture(scope="session")
def desk_model():
    """2,000 synthetic triplets, 5 epochs at batch 32: the desk-scale trained model."""
    records = make_synthetic_corpus(2000, seed=7)
    order = np.random.default_rng(42).permutation(len(records))
    records = [records[int(i)] for i in order]
    train_records, held_records = records[:1600], records[1600:]
    texts = [t for r in records for t in (r.reference, r.correct, r.incorrect)]
    vocab = build_word_vocabulary(texts)
    params = init_params(vocab.vocab_size, dim=64, n_ctx=16, max_len=DESK_MAX_LEN, seed=42)
    dataset = tokenize_records("synthetic", train_records, vocab, DESK_MAX_LEN)
    config = TrainConfig(epochs=5, batch_size=32, grad_accum_steps=1, seed=42)
    trained, report = train(config, [dataset], params)
    return SimpleNamespace(
        params=trained,
        vocab=vocab,
        train_records=train_records,
        held_records=held_records,
        report=report,
        max_len=DESK_MAX_LEN,
    )



# Each file matcha reads from outside, by kind: the file, a template whose "@" takes a JSON text
# (the corpus template is a line added after good ones), and the command that reads it.
OUTSIDE_INPUTS = {
    "corpus": ("c.jsonl", '{"reference": "the door", "correct": "the gate", "human_score": @}',
               "evaluate --data c.jsonl --out out.json"),
    "registry": ("reg.json", '[{"name": "c", "path": "c.jsonl", "rating_scale": @}]',
                 "evaluate --data reg.json --out out.json"),
    "scores": ("s.jsonl", '{"id": "line1", "metric": "ext", "score": @}',
               "evaluate --data c.jsonl --scores s.jsonl --out out.json"),
    "config": ("cfg.json", '{"lr": @}',
               "train --config cfg.json --data c.jsonl --out out.ckpt --epochs 1 --batch-size 2 --grad-accum 1 "
               "--dim 4 --n-ctx 2 --max-len 8"),
    "vocab": ("v.json", '{"kind": "word", "token_to_id": {"<unk>": @}}', "tokenize --vocab v.json the"),
    "vocab-list": ("v.json", '{"kind": "word", "tokens": ["<unk>", @]}', "tokenize --vocab v.json the"),
    "manifest": ("m.ckpt", '{"D": 4, "N_c": 2, "vocab_size": 5, "max_len": 8, "margin": @}',
                 "score --ckpt m.ckpt --vocab v.json --ref the --cand door"),
    "encoder": ("e.json", '{"t": 0, "h": 1, "e": 2, "th": 3, "the": @}', "tokenize --vocab e.json --merges m.txt the"),
    "merges": ("m.txt", "#version: 0.2\nt h\n@\n", "tokenize --vocab e.json --merges m.txt the"),
}
OUTSIDE_RECORDS = [
    {"reference": "the door is open", "correct": "the door is opened", "incorrect": "the door is shut",
     "human_score": 4},
    {"reference": "a cat sat", "correct": "the cat sat", "incorrect": "a cat ran", "human_score": 2},
]


def write_outside_input(directory, kind: str, text: bytes) -> tuple[str, list[str]]:
    """Write the files the command of `kind` reads, with `text` as its file (or corpus line).

    The rest are good: a two-record corpus, a word vocabulary of five ids, a
    BPE encoder of five tokens with its two merges, and a checkpoint of five
    rows, D=4.  Returns the path of the file holding `text` and the command line.
    """
    name, _, command = OUTSIDE_INPUTS[kind]
    lines = b"".join(json.dumps(r).encode() + b"\n" for r in OUTSIDE_RECORDS)
    (directory / "c.jsonl").write_bytes(lines)
    build_word_vocabulary(["the door cat sat"]).save(str(directory / "v.json"))
    (directory / "e.json").write_text('{"t": 0, "h": 1, "e": 2, "th": 3, "the": 4}', encoding="utf-8")
    (directory / "m.txt").write_text("#version: 0.2\nt h\nth e\n", encoding="utf-8")
    save_checkpoint(init_params(5, 4, 2, max_len=8, seed=0), str(directory / "m.ckpt"))
    path = directory / name
    if kind == "corpus":
        text = lines + text + b"\n"
    elif kind == "manifest":
        data = path.read_bytes()
        end = 16 + struct.unpack_from("<Q", data, 8)[0]
        text = data[:8] + struct.pack("<Q", len(text)) + text + data[end:]
    path.write_bytes(text)
    return str(path), [str(directory / word) if "." in word else word for word in command.split()]
