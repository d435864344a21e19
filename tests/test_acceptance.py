"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import os
import struct
import time

import numpy as np
import pytest

import matcha.training
from conftest import random_utf8_text, write_bpe_files
from matcha.attribution import integrated_gradients
from matcha.checkpoint import load_checkpoint, save_checkpoint
from matcha.data import tokenize_records
from matcha.errors import CheckpointFormatError, CheckpointIntegrityError
from matcha.evaluation import (
    MetricRange,
    agreement_columns,
    ccc,
    dcg,
    macro_f1_midpoint,
    n_delta,
    rescale,
    rouge_l_f1,
    rouge_n_f1,
    wasserstein_1d,
)
from matcha.model import cosine, init_params, represent
from matcha.synthetic import make_synthetic_corpus
from matcha.tokenizer import build_word_vocabulary, load_vocabulary
from matcha.training import (
    TENSOR_NAMES,
    TrainConfig,
    TripletBatch,
    adam_step,
    init_optimizer,
    loss_and_grads,
    train,
)
from oracles import (
    batch_loss,
    bpe_encode_naive,
    ccc_direct,
    densify,
    finite_difference_gradients,
    path_integral_attributions,
    wasserstein_quantile_bruteforce,
)
from test_model import random_params

COSINE_RANGE = MetricRange("m", "cosine_like")
UNIT_RANGE = MetricRange("m", "unit")


def report(number, title, started):
    print(f"[acceptance] criterion {number:>2} ({title}): PASS ({time.time() - started:.1f}s)")


def test_c01_n_delta_arithmetic():
    started = time.time()
    spread = np.linspace(-0.2, 0.2, 50)
    correct = 0.7114 + spread
    incorrect = 0.0124 + spread / 2
    assert correct.mean() == pytest.approx(0.7114, abs=1e-12)
    assert incorrect.mean() == pytest.approx(0.0124, abs=1e-12)
    value = n_delta(rescale(correct, COSINE_RANGE), rescale(incorrect, COSINE_RANGE))
    assert value == pytest.approx(34.95, abs=0.01)
    report(1, "n-delta arithmetic 34.95", started)


def test_c02_degenerate_macro_f1_signature():
    started = time.time()
    correct = [0.9, 0.95, 0.7, 0.8, 0.6, 0.85]
    incorrect = [0.9, 0.95, 0.7, 0.8, 0.6, 0.85]
    value = macro_f1_midpoint(rescale(correct, UNIT_RANGE), rescale(incorrect, UNIT_RANGE))
    assert value == pytest.approx(33.33, abs=0.01)
    report(2, "degenerate macro-F1 33.33", started)


def test_c03_wasserstein_oracle_equivalence():
    started = time.time()
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        n = int(rng.integers(1, 501))
        m = n if trial % 2 == 0 else int(rng.integers(1, 501))
        loc, spread = rng.normal(0, 1), rng.uniform(0.1, 2)
        a = rng.normal(loc, spread, n)
        b = rng.normal(loc + rng.normal(0, 1), rng.uniform(0.1, 2), m)
        assert wasserstein_1d(a, b) == pytest.approx(
            wasserstein_quantile_bruteforce(a, b), abs=1e-9
        )
    # dominance identity: under empirical CDF dominance W1 equals the mean gap
    for trial in range(200):
        m = int(rng.integers(1, 100))
        n = int(rng.integers(1, 100))
        b = np.sort(rng.normal(0, 1, m))
        # right-edge quantile of b within each a block, plus a nondecreasing lift
        idx = np.minimum((np.ceil(m * np.arange(1, n + 1) / n) - 1).astype(int), m - 1)
        a = b[idx] + np.sort(rng.uniform(0, 1, n))
        assert wasserstein_1d(a, b) == pytest.approx(abs(a.mean() - b.mean()), abs=1e-9)
    report(3, "wasserstein oracle + dominance", started)


def test_c04_gradient_correctness():
    started = time.time()
    checked = 0
    seed = 0
    while checked < 20:
        seed += 1
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        n_ctx = int(rng.integers(1, 5))
        vocab_size = int(rng.integers(4, 11))
        params = random_params(rng, vocab_size, dim, n_ctx)
        items = []
        for _ in range(int(rng.integers(1, 5))):
            draw = lambda: [int(x) for x in rng.integers(0, vocab_size, int(rng.integers(1, 7)))]
            items.append((draw(), draw(), draw()))
        batch = TripletBatch(items=items, source_dataset="grad")
        # keep every item clear of the hinge kink and away from near-zero
        # representation norms, where central differences lose validity
        margins = []
        norms = []
        for ref, cor, inc in items:
            h_r, h_c, h_i = (represent(params, [s])[0] for s in (ref, cor, inc))
            norms += [np.linalg.norm(h) for h in (h_r, h_c, h_i)]
            gap = cosine(h_r, h_c) - cosine(h_r, h_i)
            margins.append(params.hyper.margin - gap)
        if min(np.abs(margins)) < 1e-2 or min(norms) < 0.2:
            continue
        grads = densify(params, loss_and_grads(params, batch)[1])
        fd = finite_difference_gradients(lambda p: batch_loss(p, batch), params, TENSOR_NAMES)
        for name in TENSOR_NAMES:
            analytic = grads[name]
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd[name])), 1e-6)
            worst = (np.abs(analytic - fd[name]) / denom).max()
            assert worst <= 1e-4, f"config {seed} {name}: rel err {worst}"
        checked += 1
    report(4, f"gradcheck on {checked} configs", started)


def test_c05_desk_scale_training_separation(desk_model):
    started = time.time()
    params, vocab, max_len = desk_model.params, desk_model.vocab, desk_model.max_len
    sims = []
    for rec in desk_model.held_records:
        h_ref = represent(params, [vocab.encode(rec.reference, max_len)])[0]
        sims.append(
            (
                cosine(h_ref, represent(params, [vocab.encode(rec.correct, max_len)])[0]),
                cosine(h_ref, represent(params, [vocab.encode(rec.incorrect, max_len)])[0]),
            )
        )
    sims = np.array(sims)
    model_nd = n_delta(rescale(sims[:, 0], COSINE_RANGE), rescale(sims[:, 1], COSINE_RANGE))
    rouge_nd = n_delta(
        rescale([rouge_n_f1(r.reference, r.correct, 1) for r in desk_model.held_records], UNIT_RANGE),
        rescale([rouge_n_f1(r.reference, r.incorrect, 1) for r in desk_model.held_records], UNIT_RANGE),
    )
    margin_rate = float(np.mean(sims[:, 0] - sims[:, 1] >= params.hyper.margin * 0.5))
    strict_rate = float(np.mean(sims[:, 0] > sims[:, 1]))
    assert model_nd >= 2 * rouge_nd, (model_nd, rouge_nd)
    assert margin_rate >= 0.80, margin_rate
    assert strict_rate >= 0.90, strict_rate
    report(
        5,
        f"desk training: n-delta {model_nd:.1f} vs rouge1 {rouge_nd:.1f}, margin rate {margin_rate:.0%}",
        started,
    )


def test_c06_single_batch_overfit(monkeypatch):
    # Momentum is disabled for this sanity check, so each update follows the
    # current gradient alone; with beta1=0.9 the update keeps moving after
    # the hinge deactivates.
    monkeypatch.setattr(matcha.training, "BETA1", 0.0)
    started = time.time()
    records = make_synthetic_corpus(1, seed=0)
    vocab = build_word_vocabulary(
        [t for r in records for t in (r.reference, r.correct, r.incorrect)]
    )
    params = init_params(vocab.vocab_size, 64, 16, max_len=16, seed=42)
    params.embedding = np.random.default_rng(42).normal(0, 0.05, params.embedding.shape)
    batch = TripletBatch(items=tokenize_records("s", records, vocab, 16).items)
    state = init_optimizer(params, lr=5e-5, weight_decay=0.0)
    losses = []
    for _ in range(50):
        loss, grads = loss_and_grads(params, batch)
        losses.append(loss)
        adam_step(state, params, grads)
    losses.append(batch_loss(params, batch))
    for i in range(50):
        assert losses[i + 1] <= losses[i] + 1e-12, f"loss rose at step {i}"
    assert losses[-1] < 0.1 * losses[0], (losses[0], losses[-1])
    report(6, f"overfit: {losses[0]:.3f} -> {losses[-1]:.2e}, non-increasing", started)


def test_c07_integrated_gradients_completeness(desk_model):
    started = time.time()
    params, vocab = desk_model.params, desk_model.vocab
    rng = np.random.default_rng(11)
    picks = rng.choice(len(desk_model.held_records), size=50, replace=False)
    for k in picks:
        rec = desk_model.held_records[int(k)]
        candidate = rec.correct if k % 2 == 0 else rec.incorrect
        result = integrated_gradients(params, rec.reference, candidate, vocab, steps=256)
        budget = 1e-12 * max(abs(result.score - result.baseline_score), 1.0)
        assert result.completeness_residual <= budget, (result.completeness_residual, budget)
    # linear functions are attributed exactly at 8 steps
    coef = rng.normal(0, 1, (5, 3))
    inputs = rng.normal(0, 1, (5, 3))
    baseline = rng.normal(0, 1, (5, 3))
    out = path_integral_attributions(lambda x: coef, inputs, baseline, 8)
    assert np.allclose(out, coef * (inputs - baseline), atol=1e-12)
    report(7, "integrated-gradients completeness on 50 pairs", started)


def test_c08_ccc_rouge_dcg_oracles():
    started = time.time()
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 60))
        x = rng.normal(0, rng.uniform(0.5, 2), n)
        y = rng.uniform(0.2, 1.5) * x + rng.normal(0, 1, n)
        assert ccc(x, y) == pytest.approx(ccc_direct(x, y), abs=1e-9)
    assert ccc([1, 2, 3], [2, 3, 4]) == pytest.approx(4 / 7, abs=1e-9)

    rouge_fixture = [
        ("the cat sat", "the cat sat", 1, 1.0),
        ("the cat sat", "the cat", 1, 0.8),
        ("the cat sat", "sat cat the", 1, 1.0),
        ("a b c d", "a b c d", 2, 1.0),
        ("a b c", "a b", 2, 2 / 3),
        ("a b c d", "b c", 2, 0.5),
        ("x y", "p q", 1, 0.0),
        ("a a a", "a", 1, 0.5),
        ("a a b", "a a", 1, 0.8),
        ("hello world", "hello there world", 1, 0.8),
        ("one two three four", "one two three four five", 1, 8 / 9),
        ("b a", "a b", 2, 0.0),
        ("a b a b", "a b", 2, 0.5),
        ("Cat! cat?", "cat", 1, 2 / 3),
    ]
    for ref, cand, n, expected in rouge_fixture:
        assert rouge_n_f1(ref, cand, n) == pytest.approx(expected, abs=1e-12), (ref, cand, n)
    lcs_fixture = [
        ("a b c d", "a c", 2 / 3),
        ("a b c d", "d a", 1 / 3),
        ("x y z", "x y z", 1.0),
        ("the quick brown fox", "the brown fox", 6 / 7),
        ("aa bb", "cc dd", 0.0),
        ("a x b y c", "a b c", 0.75),
    ]
    for ref, cand, expected in lcs_fixture:
        assert rouge_l_f1(ref, cand) == pytest.approx(expected, abs=1e-12), (ref, cand)

    from oracles import RowTable, ScoreRow, columnar

    metrics = [MetricRange("best", "unit")] + [MetricRange(f"x{i}", "unit") for i in range(8)]
    top = RowTable(
        rows=[
            ScoreRow(
                id="r",
                label="correct",
                scores={"best": 0.5, **{f"x{i}": 0.9 for i in range(8)}},
                human_score=0.5,
            )
        ]
    )
    assert dcg(*agreement_columns(columnar(top), metrics, None))["best"] == pytest.approx(100.0, abs=1e-6)
    bottom = RowTable(
        rows=[
            ScoreRow(
                id="r",
                label="correct",
                scores={"best": 0.9, **{f"x{i}": 0.5 for i in range(8)}},
                human_score=0.5,
            )
        ]
    )
    worst = dcg(*agreement_columns(columnar(bottom), metrics, None))["best"]
    assert worst == pytest.approx(100.0 / (9 * np.log2(10)), abs=1e-6)
    report(8, "ccc, rouge, dcg oracles", started)


GPT2_DIR = os.environ.get("MATCHA_GPT2_DIR", "")

ORACLE_SENTENCES = [
    "the cat sat on the mat",
    "hello world",
    "this and that",
    "a dog and his ball",
    "numbers 123 and 456 count",
    "punctuation, squarely; tested!",
    "  spaces   in odd    places ",
    "don't you think it's fine",
    "mixed CASE Words Here",
    "tab\tseparated\tfields",
] + [f"sentence number {i} talks about the world and other common words" for i in range(40)]


def test_c09_tokenizer_round_trip_and_oracle(tmp_path, bpe_vocab, bpe_files):
    started = time.time()
    rng = np.random.default_rng(999)
    for _ in range(1000):
        text = random_utf8_text(rng)
        assert bpe_vocab.decode(bpe_vocab.encode(text)) == text
    assert len(ORACLE_SENTENCES) >= 50
    for text in ORACLE_SENTENCES:
        expected = bpe_encode_naive(bpe_files.merges, bpe_files.token_to_id, text, 512)
        assert bpe_vocab.encode(text) == expected, text
    note = "bundled test vocabulary"
    if GPT2_DIR:
        official = load_vocabulary(
            os.path.join(GPT2_DIR, "encoder.json"), os.path.join(GPT2_DIR, "vocab.bpe")
        )
        assert official.vocab_size == 50257
        for text in ORACLE_SENTENCES:
            expected = bpe_encode_naive(official.merges, official.token_to_id, text, 512)
            assert official.encode(text) == expected, text
        note = "official GPT-2 files"
    report(9, f"tokenizer round-trip + merge oracle ({note})", started)


def _schedule_sources(schedule):
    sources = []
    while (batch := schedule.next_batch()) is not None:
        sources.append(batch.source_dataset)
    return sources


def _train_once(tmp_path, tag):
    records = make_synthetic_corpus(120, seed=6)
    vocab = build_word_vocabulary(
        [t for r in records for t in (r.reference, r.correct, r.incorrect)]
    )
    half = len(records) // 2
    datasets = [
        tokenize_records("alpha", records[:half], vocab, 16),
        tokenize_records("beta", records[half:], vocab, 16),
    ]
    params = init_params(vocab.vocab_size, 16, 4, max_len=16, seed=42)
    config = TrainConfig(epochs=2, batch_size=8, grad_accum_steps=2, seed=42)
    trained, _ = train(config, datasets, params)
    path = str(tmp_path / f"run-{tag}.ckpt")
    save_checkpoint(trained, path)
    return path


def test_c10_schedule_properties_and_reproducibility(tmp_path):
    started = time.time()
    from test_training import make_datasets, make_schedule

    for seed in range(10):
        datasets = make_datasets([3, 2, 2], batch_size=2)
        sched = make_schedule(datasets, 2, "interleaved", seed)
        sched.start_epoch()
        sources = _schedule_sources(sched)
        assert len(sources) == 7
        remaining = {"A": 3, "B": 2, "C": 2}
        for prev, cur in zip(sources, sources[1:]):
            remaining[prev] -= 1
            if cur == prev:
                # only legal when every other dataset was already exhausted
                assert all(v == 0 for k, v in remaining.items() if k != prev)
        sequential = make_schedule(datasets, 2, "sequential", seed)
        sequential.start_epoch()
        seq_sources = _schedule_sources(sequential)
        assert seq_sources == ["A"] * 3 + ["B"] * 2 + ["C"] * 2

    first = _train_once(tmp_path, "a")
    second = _train_once(tmp_path, "b")
    assert open(first, "rb").read() == open(second, "rb").read()
    report(10, "schedule properties + bit-identical seed-42 checkpoints", started)


def test_c11_checkpoint_round_trip(tmp_path):
    started = time.time()
    rng = np.random.default_rng(77)
    for trial in range(20):
        dim = int(rng.integers(2, 10))
        n_ctx = int(rng.integers(1, 5))
        vocab_size = int(rng.integers(3, 20))
        params = init_params(vocab_size, dim, n_ctx, max_len=int(rng.integers(4, 64)),
                             margin=float(rng.uniform(0.1, 2.0)), seed=trial)
        path = str(tmp_path / f"rt{trial}.ckpt")
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        for name in TENSOR_NAMES:
            assert np.array_equal(getattr(loaded, name), getattr(params, name))
        assert loaded.hyper == params.hyper

    # injected corruption must be rejected
    params = init_params(5, 3, 2, seed=0)
    path = str(tmp_path / "corrupt.ckpt")
    save_checkpoint(params, path)
    blob = open(path, "rb").read()

    bad_magic = bytearray(blob)
    bad_magic[:4] = b"XXXX"
    open(path, "wb").write(bytes(bad_magic))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)

    manifest_len = struct.unpack("<Q", blob[8:16])[0]
    manifest = json.loads(blob[16 : 16 + manifest_len])
    manifest["D"] = manifest["D"] + 1
    patched = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    open(path, "wb").write(blob[:8] + struct.pack("<Q", len(patched)) + patched + blob[16 + manifest_len :])
    with pytest.raises(CheckpointIntegrityError):
        load_checkpoint(path)

    open(path, "wb").write(blob[: len(blob) - 10])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)
    report(11, "checkpoint round-trip + corruption rejection", started)
