import copy
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest

import matcha.training
from matcha.checkpoint import load_checkpoint, save_checkpoint
from matcha.data import tokenize_records
from matcha.errors import (
    DegenerateRepresentationError,
    EmptyInputError,
    NumericError,
    ShapeError,
    TokenRangeError,
)
from matcha.model import cosine, init_params, represent
from matcha.synthetic import make_synthetic_corpus
from matcha.tokenizer import build_word_vocabulary
from matcha.training import (
    SCHEDULE_STRATEGIES,
    TENSOR_NAMES,
    BatchSchedule,
    Gradients,
    TokenizedDataset,
    TrainConfig,
    TripletBatch,
    adam_step,
    init_optimizer,
    loss_and_grads,
    margin_loss,
    train,
)
from oracles import (
    BatchScheduleQueues,
    adam_step_dense,
    adam_step_loop,
    batch_loss,
    dense_moments,
    densify,
    finite_difference_gradients,
    loss_and_grads_loop,
    train_accumulating,
    zero_gradients,
)
from test_model import manual_params, random_params


def random_batch(rng, vocab_size, n_items, max_len=6):
    items = []
    for _ in range(n_items):
        seq = lambda: [int(x) for x in rng.integers(0, vocab_size, int(rng.integers(1, max_len + 1)))]
        items.append((seq(), seq(), seq()))
    return TripletBatch(items=items, source_dataset="rand")


class TestMarginLoss:
    def test_margin_satisfied_clamps(self):
        assert margin_loss(0.9, -0.5, 1.0) == 0.0

    def test_equal_sims(self):
        assert margin_loss(0.3, 0.3, 1.0) == 1.0

    def test_arithmetic(self):
        assert margin_loss(0.2, 0.1, 1.0) == pytest.approx(0.9)


class TestBatchLoss:
    def test_mean_of_item_losses(self):
        rng = np.random.default_rng(0)
        params = random_params(rng, 8, 4, 2)
        batch = random_batch(rng, 8, 5)
        expected = np.mean(
            [
                margin_loss(
                    cosine(represent(params, [r])[0], represent(params, [c])[0]),
                    cosine(represent(params, [r])[0], represent(params, [i])[0]),
                    params.hyper.margin,
                )
                for r, c, i in batch.items
            ]
        )
        assert batch_loss(params, batch) == pytest.approx(expected, abs=1e-12)

    def test_identical_ref_correct_orthogonal_incorrect(self):
        # Single-token docs through an identity map: h equals the embedding row.
        dim = 2
        emb = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        params = manual_params(emb, np.eye(dim), np.zeros(dim), np.eye(dim))
        batch = TripletBatch(items=[([0], [1], [2])])
        # sim_C = 1, sim_I = 0 -> loss = max(0, 1 + 0 - 1) = 0
        assert batch_loss(params, batch) == 0.0

    def test_empty_batch(self):
        params = random_params(np.random.default_rng(1), 4, 3, 1)
        with pytest.raises(ValueError):
            batch_loss(params, TripletBatch(items=[]))


class TestBackward:
    def test_inactive_hinge_zero_gradients(self):
        dim = 2
        emb = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        params = manual_params(emb, np.eye(dim), np.zeros(dim), np.eye(dim))
        # sim_C = 1, sim_I = -1: gap 2 >= margin 1 -> inactive
        grads = loss_and_grads(params, TripletBatch(items=[([0], [1], [2])]))[1]
        for name in TENSOR_NAMES:
            assert not np.any(getattr(grads, name))

    def test_duplicated_batch_leaves_gradients_unchanged(self):
        rng = np.random.default_rng(2)
        params = random_params(rng, 8, 4, 2)
        batch = random_batch(rng, 8, 3)
        doubled = TripletBatch(items=batch.items * 2)
        g1 = loss_and_grads(params, batch)[1]
        g2 = loss_and_grads(params, doubled)[1]
        for name in TENSOR_NAMES:
            assert np.allclose(getattr(g1, name), getattr(g2, name), atol=1e-12)

    def test_frozen_embeddings(self):
        rng = np.random.default_rng(3)
        params = random_params(rng, 8, 4, 2)
        grads = loss_and_grads(params, random_batch(rng, 8, 2), train_embeddings=False)[1]
        assert grads.embedding is None
        assert np.any(grads.proj_weight)

    def test_active_items_scale_inversely_with_batch_size(self):
        # appending an inactive item doubles |batch| and exactly halves the
        # gradient, i.e. each active item contributes with weight 1/|batch|
        dim = 2
        emb = np.array([[1.0, 0.2], [0.9, 0.3], [-0.2, 1.0], [1.0, 0.0], [1.0, 0.05], [-1.0, 0.0]])
        params = manual_params(emb, np.eye(dim), np.zeros(dim), np.eye(dim))
        active = ([0], [1], [2])
        inactive = ([3], [4], [5])  # gap ~2 >= margin, hinge off
        g_single = densify(params, loss_and_grads(params, TripletBatch(items=[active]))[1])
        g_padded = densify(params, loss_and_grads(params, TripletBatch(items=[active, inactive]))[1])
        for name in TENSOR_NAMES:
            assert np.allclose(g_padded[name], g_single[name] / 2, atol=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        dim = int(rng.integers(2, 9))
        n_ctx = int(rng.integers(1, 5))
        vocab_size = int(rng.integers(4, 12))
        params = random_params(rng, vocab_size, dim, n_ctx)
        batch = random_batch(rng, vocab_size, int(rng.integers(1, 5)))
        grads = densify(params, loss_and_grads(params, batch)[1])
        fd = finite_difference_gradients(
            lambda p: batch_loss(p, batch), params, TENSOR_NAMES
        )
        for name in TENSOR_NAMES:
            analytic = grads[name]
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd[name])), 1e-6)
            rel = np.abs(analytic - fd[name]) / denom
            assert rel.max() <= 1e-4, f"{name}: worst rel err {rel.max()}"


def assert_rel_close(got, want, tol, label=""):
    """max |got - want| <= tol * max |want|; an all-zero reference must be matched exactly."""
    assert got.shape == want.shape, label
    err = float(np.max(np.abs(got - want), initial=0.0))
    assert err <= tol * float(np.max(np.abs(want), initial=0.0)), f"{label}: abs err {err}"


def assert_matches_loop(params, batch, train_embeddings=True, tol=1e-10):
    loss, grads = loss_and_grads(params, batch, train_embeddings)
    loss_ref, grads_ref = loss_and_grads_loop(params, batch, train_embeddings)
    assert abs(loss - loss_ref) <= tol * abs(loss_ref)
    grads, grads_ref = densify(params, grads), densify(params, grads_ref)
    for name in TENSOR_NAMES:
        got, want = grads[name], grads_ref[name]
        if want is None:
            assert got is None, name
        else:
            assert_rel_close(got, want, tol, name)
    return loss_ref


class TestBatchedMatchesLoop:
    """The batched pass against the per-item, per-document loop it replaced."""

    @pytest.mark.parametrize("seed", range(8))
    def test_mixed_active_and_inactive_hinges(self, seed):
        rng = np.random.default_rng(200 + seed)
        dim, n_ctx, vocab_size = int(rng.integers(2, 9)), int(rng.integers(1, 5)), 12
        params = random_params(rng, vocab_size, dim, n_ctx)
        batch = random_batch(rng, vocab_size, 16)
        gaps = np.array([
            cosine(represent(params, [r])[0], represent(params, [c])[0])
            - cosine(represent(params, [r])[0], represent(params, [i])[0])
            for r, c, i in batch.items
        ])
        # A margin halfway up the positive gaps: hinges below it are active, the rest not.
        params.hyper.margin = 0.5 * gaps.max()
        active = gaps < params.hyper.margin
        assert 0 < sum(active) < len(active)
        assert_matches_loop(params, batch)

    def test_frozen_embeddings(self):
        rng = np.random.default_rng(210)
        params = random_params(rng, 10, 6, 3)
        assert_matches_loop(params, random_batch(rng, 10, 9), train_embeddings=False)

    def test_ids_repeated_within_and_across_documents(self):
        rng = np.random.default_rng(211)
        params = random_params(rng, 4, 5, 2)
        batch = random_batch(rng, 4, 7, max_len=12)
        assert any(len(set(doc)) < len(doc) for item in batch.items for doc in item)
        assert_matches_loop(params, batch)

    def test_single_token_documents(self):
        rng = np.random.default_rng(212)
        params = random_params(rng, 9, 4, 3)
        assert_matches_loop(params, random_batch(rng, 9, 6, max_len=1))

    def test_batch_of_one(self):
        rng = np.random.default_rng(213)
        params = random_params(rng, 7, 3, 2)
        assert_matches_loop(params, random_batch(rng, 7, 1)) > 0.0

    def test_gpt2_shape(self):
        rng = np.random.default_rng(214)
        vocab_size, dim, n_ctx = 50257, 256, 16
        params = manual_params(
            rng.normal(0, 0.1, (vocab_size, dim)),
            rng.normal(0, 0.1, (n_ctx * dim, dim)),
            rng.normal(0, 0.1, n_ctx * dim),
            rng.normal(0, 0.1, (dim, dim)),
        )
        assert_matches_loop(params, random_batch(rng, vocab_size, 4, max_len=64))


class TestTrainerErrors:
    def setup_method(self):
        self.params = random_params(np.random.default_rng(220), 6, 3, 2)

    @pytest.mark.parametrize("bad_id", [6, 100, -1])
    def test_token_out_of_range(self, bad_id):
        batch = TripletBatch(items=[([0], [1], [2]), ([3], [bad_id, 4], [5])], source_dataset="d")
        with pytest.raises(TokenRangeError):
            loss_and_grads(self.params, batch)

    def test_empty_document(self):
        batch = TripletBatch(items=[([0], [1], [2]), ([3], [4], [])], source_dataset="d")
        with pytest.raises(EmptyInputError, match="item 1 of batch from 'd'"):
            loss_and_grads(self.params, batch)

    def test_zero_norm_document_names_item_and_dataset(self):
        # Token 2 embeds to zero and the bias is zero, so its documents have h = 0.
        emb = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        params = manual_params(emb, np.eye(2), np.zeros(2), np.eye(2))
        batch = TripletBatch(items=[([0], [1], [0, 1]), ([0], [1], [2, 2])], source_dataset="news")
        with pytest.raises(DegenerateRepresentationError, match="item 1 of batch from 'news'"):
            loss_and_grads(params, batch)

    def test_non_finite_gradient(self):
        # Huge embeddings through a subnormal conversion keep h finite, but the
        # conversion gradient ctx (x) dh overflows.
        emb = 1e200 * np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.1]])
        params = manual_params(emb, np.eye(2), np.zeros(2), 1e-310 * np.eye(2))
        batch = TripletBatch(items=[([0], [1], [2])])
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="conversion"):
            loss_and_grads(params, batch)

    def test_adam_rejects_misshaped_gradient(self):
        state = init_optimizer(self.params)
        grads = zero_gradients(self.params)
        grads.proj_bias = np.zeros(self.params.proj_bias.size + 1)
        with pytest.raises(ShapeError, match="proj_bias"):
            adam_step(state, self.params, grads)


class TestAdamStep:
    def test_zero_gradients_no_decay_unchanged(self):
        params = random_params(np.random.default_rng(4), 6, 4, 2)
        before = {n: getattr(params, n).copy() for n in TENSOR_NAMES}
        state = init_optimizer(params, lr=1e-3, weight_decay=0.0)
        adam_step(state, params, zero_gradients(params))
        for name in TENSOR_NAMES:
            assert np.array_equal(getattr(params, name), before[name])
        assert state.step_count == 1

    def test_first_step_moves_by_lr(self):
        params = random_params(np.random.default_rng(5), 4, 3, 1)
        before = params.embedding.copy()
        state = init_optimizer(params, lr=1e-4, weight_decay=0.0)
        grads = zero_gradients(params)
        grads.embedding[:] = 1.0
        adam_step(state, params, grads)
        # bias-corrected first step is lr * g / (|g| + eps) ~ lr
        assert np.allclose(before - params.embedding, 1e-4, atol=1e-10)

    def test_decoupled_weight_decay(self):
        params = random_params(np.random.default_rng(6), 4, 3, 1)
        before = {n: getattr(params, n).copy() for n in TENSOR_NAMES}
        state = init_optimizer(params, lr=1e-2, weight_decay=0.1)
        adam_step(state, params, zero_gradients(params))
        for name in TENSOR_NAMES:
            assert np.allclose(getattr(params, name), before[name] * (1 - 1e-2 * 0.1), atol=1e-15)

    def test_frozen_tensor_not_decayed(self):
        params = random_params(np.random.default_rng(7), 4, 3, 1)
        before = params.embedding.copy()
        state = init_optimizer(params, lr=1e-2, weight_decay=0.1)
        grads = loss_and_grads(params, TripletBatch(items=[([0], [1], [2])]), train_embeddings=False)[1]
        adam_step(state, params, grads)
        assert np.array_equal(params.embedding, before)

    @pytest.mark.parametrize("train_embeddings", [True, False])
    def test_matches_loop_over_ten_steps(self, train_embeddings):
        rng = np.random.default_rng(230)
        params = random_params(rng, 11, 5, 3)
        state = init_optimizer(params, lr=1e-2, weight_decay=0.05)
        params_ref, state_ref = params.copy(), copy.deepcopy(state)
        for epoch in range(10):
            state.lr = state_ref.lr = 1e-2 * 0.9 ** (epoch // 4)
            grads = zero_gradients(params, train_embeddings)
            for name in TENSOR_NAMES:
                g = getattr(grads, name)
                if g is not None:
                    g[...] = rng.normal(0, 10.0 ** rng.integers(-6, 2), g.shape)
            adam_step(state, params, grads)
            adam_step_loop(state_ref, params_ref, grads)
            assert state.step_count == state_ref.step_count
            for name in TENSOR_NAMES:
                assert_rel_close(getattr(params, name), getattr(params_ref, name), 1e-12, name)
                for moment, moment_ref in zip(dense_moments(state, params, name),
                                              dense_moments(state_ref, params_ref, name)):
                    assert_rel_close(moment, moment_ref, 1e-12, name)

    # Rows go live at different steps; row 3 then rests for 6 steps and row 8
    # for 7, step 3 touches no row, and row 11 is never touched.
    LAZY_ROWS = [[3], [3, 8], [0, 8], [], [5], [0, 5], [0, 5, 10], [5], [3], [1, 2, 3],
                 [8], [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10], [4], [9]]

    @pytest.mark.parametrize("train_embeddings", [True, False])
    def test_row_lazy_block_shared_matches_dense_oracle_exactly(self, train_embeddings):
        rng = np.random.default_rng(231)
        params = random_params(rng, 12, 5, 3)
        state = init_optimizer(params, lr=1e-2, weight_decay=0.05)
        params_ref, state_ref = params.copy(), copy.deepcopy(state)
        dim = params.hyper.dim
        touched = np.zeros(params.vocab_size, dtype=bool)
        for k, rows in enumerate(self.LAZY_ROWS):
            state.lr = state_ref.lr = 1e-2 * 0.9 ** (k // 4)
            draw = lambda *shape: rng.normal(0, 10.0 ** rng.integers(-6, 2), shape)
            rows = np.array(rows, dtype=np.intp)
            grads = Gradients(
                embedding=draw(rows.size, dim) if train_embeddings else None,
                embedding_rows=rows if train_embeddings else None,
                proj_weight=draw(dim, dim),
                proj_bias=draw(dim),
                conversion=draw(dim, dim),
            )
            adam_step(state, params, grads)
            adam_step_dense(state_ref, params_ref, grads)
            touched[rows] = train_embeddings
            assert np.array_equal(state.live_rows, np.flatnonzero(touched))
            for name in TENSOR_NAMES:
                assert np.array_equal(getattr(params, name), getattr(params_ref, name)), (k, name)
                for moment, moment_ref in zip(dense_moments(state, params, name),
                                              dense_moments(state_ref, params_ref, name)):
                    assert np.array_equal(moment, moment_ref), (k, name)

    def test_new_rows_between_live_rows_keep_each_row_moments(self):
        rng = np.random.default_rng(233)
        params = random_params(rng, 10, 3, 2)
        state = init_optimizer(params, lr=1e-2, weight_decay=0.05)
        params_ref, state_ref = params.copy(), copy.deepcopy(state)
        for rows in ([2, 7], [0, 2, 5, 9], [1, 3, 7, 8]):
            rows = np.array(rows, dtype=np.intp)
            grads = zero_gradients(params)
            grads.embedding, grads.embedding_rows = rng.normal(size=(rows.size, 3)), rows
            adam_step(state, params, grads)
            adam_step_dense(state_ref, params_ref, grads)
        assert np.array_equal(state.live_rows, [0, 1, 2, 3, 5, 7, 8, 9])
        assert state.first_moment["embedding"].shape == (8, 3)
        assert np.array_equal(params.embedding, params_ref.embedding)
        for moment, moment_ref in zip(dense_moments(state, params, "embedding"),
                                      dense_moments(state_ref, params_ref, "embedding")):
            assert np.array_equal(moment, moment_ref)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_read_only_table_gets_a_decayed_successor(self, dtype):
        params = random_params(np.random.default_rng(8), vocab_size=30, dim=6, n_ctx=3)
        params.embedding = params.embedding.astype(dtype)
        params.embedding.flags.writeable = False
        table, before = params.embedding, params.embedding.copy()
        batch = random_batch(np.random.default_rng(9), 30, 4)
        _, grads = loss_and_grads(params, batch)
        reference = params.copy()
        _, state = adam_step(init_optimizer(params, lr=1e-2), params, copy.deepcopy(grads))
        adam_step(init_optimizer(reference, lr=1e-2), reference, grads)
        assert params.embedding is not table
        assert params.embedding.dtype == np.float64 and params.embedding.flags.writeable
        assert table.tobytes() == before.tobytes() and not table.flags.writeable
        for name in TENSOR_NAMES:
            assert getattr(params, name).tobytes() == getattr(reference, name).tobytes(), name
        # Later steps update the successor in place.
        successor = params.embedding
        adam_step(state, params, loss_and_grads(params, batch)[1])
        assert params.embedding is successor


class TestAccumulation:
    def test_mean_of_micro_grads_equals_union_gradient(self):
        rng = np.random.default_rng(8)
        params = random_params(rng, 8, 4, 2)
        micro = [random_batch(rng, 8, 4) for _ in range(3)]
        union = TripletBatch(items=[it for b in micro for it in b.items])
        acc = zero_gradients(params)
        for batch in micro:
            acc.add_(loss_and_grads(params, batch)[1])
        acc.scale_(1.0 / len(micro))
        acc, union_grads = densify(params, acc), densify(params, loss_and_grads(params, union)[1])
        for name in TENSOR_NAMES:
            assert np.allclose(acc[name], union_grads[name], atol=1e-9)


    def test_row_union_equals_dense_sum(self):
        rng = np.random.default_rng(233)
        params = random_params(rng, 10, 4, 2)
        # Overlapping row sets that leave rows 7 and 9 untouched.
        pools = ([0, 1, 2, 3, 4], [3, 4, 5, 6], [1, 6, 8])
        micro = []
        for pool in pools:
            doc = lambda: [int(x) for x in rng.choice(pool, int(rng.integers(1, 5)))]
            micro.append(TripletBatch(items=[(doc(), doc(), doc()) for _ in range(4)]))
        grads = [loss_and_grads(params, batch)[1] for batch in micro]
        dense = [densify(params, g) for g in grads]
        acc = copy.deepcopy(grads[0])
        acc.add_(grads[1])
        acc.add_(grads[2])
        assert acc.embedding_rows.tolist() == [0, 1, 2, 3, 4, 5, 6, 8]
        got = densify(params, acc)
        for name in TENSOR_NAMES:
            assert np.any(dense[1][name]), name
            assert np.array_equal(got[name], dense[0][name] + dense[1][name] + dense[2][name]), name


    def test_accumulating_does_not_import_numpy_ma(self):
        # np.union1d's plain np.unique imports numpy.ma (about 1 MB of RSS) on first use.
        script = textwrap.dedent("""
            import sys
            from test_training import desk_setup
            from matcha.training import Gradients, TrainConfig, train
            merges = []
            add = Gradients.add_
            Gradients.add_ = lambda self, other: merges.append(1) or add(self, other)
            params, datasets = desk_setup()
            train(TrainConfig(epochs=1, batch_size=8, grad_accum_steps=2), datasets, params)
            assert merges, "no micro-batch gradients were merged"
            assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
        """)
        path = os.pathsep.join([os.path.dirname(os.path.dirname(matcha.training.__file__)), os.path.dirname(__file__)])
        result = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr


def make_datasets(sizes, batch_size, vocab_size=6, has_contrastive=True):
    rng = np.random.default_rng(9)
    out = []
    for idx, n_batches in enumerate(sizes):
        items = [
            ([int(rng.integers(vocab_size))], [int(rng.integers(vocab_size))], [int(rng.integers(vocab_size))])
            for _ in range(n_batches * batch_size)
        ]
        out.append(TokenizedDataset(name=chr(ord("A") + idx), items=items, has_contrastive=has_contrastive))
    return out


class TestSchedules:
    def test_interleaved_alternates_two_datasets(self):
        datasets = make_datasets([3, 3], batch_size=2)
        sched = BatchSchedule(datasets, 2, "interleaved", rng=np.random.default_rng(0))
        sched.start_epoch()
        sources = []
        while (batch := sched.next_batch()) is not None:
            sources.append(batch.source_dataset)
        assert len(sources) == 6
        for a, b in zip(sources, sources[1:]):
            assert a != b

    def test_interleaved_skips_exhausted(self):
        datasets = make_datasets([2, 1, 1], batch_size=2)
        # find a seed whose dataset-order shuffle is the identity
        seed = next(
            s
            for s in range(200)
            if list(np.random.default_rng(s).permutation(3)) == [0, 1, 2]
        )
        sched = BatchSchedule(datasets, 2, "interleaved", rng=np.random.default_rng(seed))
        sched.start_epoch()
        sources = []
        while (batch := sched.next_batch()) is not None:
            sources.append(batch.source_dataset)
        assert sources == ["A", "B", "C", "A"]

    def test_single_dataset_matches_sequential(self):
        datasets = make_datasets([4], batch_size=3)
        streams = []
        for strategy in ("interleaved", "sequential"):
            sched = BatchSchedule(datasets, 3, strategy, rng=np.random.default_rng(11))
            sched.start_epoch()
            stream = []
            while (batch := sched.next_batch()) is not None:
                stream.append(batch.items)
            streams.append(stream)
        assert streams[0] == streams[1]

    def test_sequential_consumes_in_order(self):
        datasets = make_datasets([2, 2, 2], batch_size=2)
        sched = BatchSchedule(datasets, 2, "sequential", rng=np.random.default_rng(12))
        sched.start_epoch()
        sources = []
        while (batch := sched.next_batch()) is not None:
            sources.append(batch.source_dataset)
        assert sources == ["A", "A", "B", "B", "C", "C"]

    def test_curriculum_order(self):
        datasets = make_datasets([1, 1, 1], batch_size=2)
        sched = BatchSchedule(
            datasets, 2, "curriculum", curriculum_order=["C", "A", "B"], rng=np.random.default_rng(13)
        )
        sched.start_epoch()
        sources = []
        while (batch := sched.next_batch()) is not None:
            sources.append(batch.source_dataset)
        assert sources == ["C", "A", "B"]

    def test_contrastive_only_filters(self):
        datasets = make_datasets([1, 1], batch_size=2)
        datasets[1].has_contrastive = False
        sched = BatchSchedule(datasets, 2, "contrastive_only", rng=np.random.default_rng(14))
        sched.start_epoch()
        sources = {b.source_dataset for b in iter(sched.next_batch, None)}
        assert sources == {"A"}

    def test_random_negative_filters(self):
        datasets = make_datasets([1, 1], batch_size=2)
        datasets[1].has_contrastive = False
        sched = BatchSchedule(datasets, 2, "random_negative", rng=np.random.default_rng(15))
        sched.start_epoch()
        sources = {b.source_dataset for b in iter(sched.next_batch, None)}
        assert sources == {"B"}

    def test_batches_never_mix_datasets(self):
        datasets = make_datasets([2, 2], batch_size=3)
        sched = BatchSchedule(datasets, 3, "interleaved", rng=np.random.default_rng(16))
        for _ in range(2):
            sched.start_epoch()
            while (batch := sched.next_batch()) is not None:
                assert len({batch.source_dataset}) == 1

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            BatchSchedule(make_datasets([1], 2), 2, "zigzag")

    def test_curriculum_requires_order(self):
        with pytest.raises(ValueError):
            BatchSchedule(make_datasets([1], 2), 2, "curriculum")


class TestEpochPlanMatchesQueues:
    """The epoch plan gives the batches, and leaves the generator state, of the queue-and-cursor schedule."""

    @staticmethod
    def datasets():
        # Uneven batch counts at batch sizes 1 to 3, both kinds of negatives, and an empty dataset.
        rng = np.random.default_rng(3)
        shapes = [("A", 7, True), ("B", 4, False), ("C", 11, True), ("D", 0, False)]
        return [TokenizedDataset(name, [tuple([int(rng.integers(9))] for _ in range(3)) for _ in range(n)], kind)
                for name, n, kind in shapes]

    @pytest.mark.parametrize("batch_size", [1, 2, 3])
    @pytest.mark.parametrize("strategy", sorted(SCHEDULE_STRATEGIES))
    def test_same_batches_and_generator_state(self, strategy, batch_size):
        datasets = self.datasets()
        order = ["C", "D", "A", "B"] if strategy == "curriculum" else None
        for seed in range(10):
            plan = BatchSchedule(datasets, batch_size, strategy, order, rng=np.random.default_rng(seed))
            queues = BatchScheduleQueues(datasets, batch_size, strategy, order, rng=np.random.default_rng(seed))
            assert plan.next_batch() is None
            for _ in range(3):
                plan.start_epoch()
                queues.start_epoch()
                got, want = ([(b.source_dataset, [id(item) for item in b.items]) for b in iter(s.next_batch, None)]
                             for s in (plan, queues))
                assert got == want
                assert plan.next_batch() is None
                assert plan.rng.bit_generator.state == queues.rng.bit_generator.state

    @pytest.mark.parametrize("grad_accum_steps", [1, 3, 8])
    def test_train_matches_accumulating_loop(self, grad_accum_steps):
        params, (whole,) = desk_setup(n_records=84)
        # 5 + 4 + 2 = 11 micro-batches an epoch: windows of 3 and 8 leave 2 and 3 over.
        datasets = [TokenizedDataset(name, whole.items[lo:hi]) for name, lo, hi in
                    (("A", 0, 40), ("B", 40, 68), ("C", 68, 84))]
        config = TrainConfig(epochs=3, batch_size=8, grad_accum_steps=grad_accum_steps, lr=1e-2, seed=6)
        trained, report = train(config, datasets, params)
        trained_ref, report_ref = train_accumulating(config, datasets, params)
        assert [row["batches"] for row in report] == [11] * 3
        assert report == report_ref
        for name in TENSOR_NAMES:
            assert np.array_equal(getattr(trained, name), getattr(trained_ref, name)), name


def desk_setup(n_records=64, seed=0, dim=16, n_ctx=4):
    records = make_synthetic_corpus(n_records, seed=seed)
    vocab = build_word_vocabulary(
        [t for r in records for t in (r.reference, r.correct, r.incorrect)]
    )
    params = init_params(vocab.vocab_size, dim, n_ctx, max_len=16, seed=42)
    dataset = tokenize_records("synthetic", records, vocab, 16)
    return params, [dataset]


class TestTrain:
    def test_zero_epochs_returns_params_unchanged(self):
        params, datasets = desk_setup()
        config = TrainConfig(epochs=0, batch_size=8, grad_accum_steps=1)
        trained, report = train(config, datasets, params)
        assert report == []
        for name in TENSOR_NAMES:
            assert np.array_equal(getattr(trained, name), getattr(params, name))

    def test_seeded_determinism(self):
        results = []
        for _ in range(2):
            params, datasets = desk_setup()
            config = TrainConfig(epochs=2, batch_size=8, grad_accum_steps=2, seed=42)
            trained, _ = train(config, datasets, params)
            results.append(trained)
        for name in TENSOR_NAMES:
            assert np.array_equal(getattr(results[0], name), getattr(results[1], name))

    def test_report_rows(self):
        params, datasets = desk_setup()
        config = TrainConfig(epochs=3, batch_size=8, grad_accum_steps=2, lr_decay=0.9, seed=1)
        _, report = train(config, datasets, params)
        assert [row["epoch"] for row in report] == [0, 1, 2]
        for k, row in enumerate(report):
            assert row["lr"] == pytest.approx(config.lr * config.lr_decay**k)
            assert row["batches"] == 8
            assert np.isfinite(row["mean_loss"])

    @pytest.mark.parametrize("lr_decay", [0.9, 1.0])
    def test_lr_decays_each_epoch(self, monkeypatch, lr_decay):
        # Every step of epoch e, and its report row, use lr * lr_decay**e exactly.
        params, datasets = desk_setup()
        config = TrainConfig(epochs=5, batch_size=8, grad_accum_steps=3, lr=1e-3, lr_decay=lr_decay, seed=2)
        stepped, step = [], matcha.training.adam_step

        def spy(state, *args):
            stepped.append(state.lr)
            return step(state, *args)

        monkeypatch.setattr(matcha.training, "adam_step", spy)
        _, report = train(config, datasets, params)
        want = [1e-3 * lr_decay**epoch for epoch in range(5)]
        assert [row["lr"] for row in report] == want
        assert stepped == [lr for lr in want for _ in range(3)]  # 8 micro-batches: windows of 3, 3 and 2

    def test_loss_decreases_over_epochs(self):
        params, datasets = desk_setup(n_records=128)
        config = TrainConfig(epochs=4, batch_size=16, grad_accum_steps=1, seed=3)
        _, report = train(config, datasets, params)
        assert report[-1]["mean_loss"] < report[0]["mean_loss"]

    def test_desk_trajectory_matches_loop(self, monkeypatch):
        params, datasets = desk_setup(n_records=96)
        config = TrainConfig(epochs=5, batch_size=16, grad_accum_steps=2, lr=1e-2, seed=4)
        trained, report = train(config, datasets, params)
        monkeypatch.setattr(matcha.training, "loss_and_grads", loss_and_grads_loop)
        monkeypatch.setattr(matcha.training, "adam_step", adam_step_loop)
        trained_ref, report_ref = train(config, datasets, params)
        for row, row_ref in zip(report, report_ref, strict=True):
            assert abs(row["mean_loss"] - row_ref["mean_loss"]) <= 1e-8 * abs(row_ref["mean_loss"])
        for name in TENSOR_NAMES:
            assert_rel_close(getattr(trained, name), getattr(trained_ref, name), 1e-8, name)

    @pytest.mark.parametrize("train_embeddings", [True, False])
    def test_row_lazy_adam_matches_dense_oracle_in_training(self, monkeypatch, train_embeddings):
        params, datasets = desk_setup(n_records=96)
        config = TrainConfig(epochs=3, batch_size=8, grad_accum_steps=5, lr=1e-2, seed=5,
                             train_embeddings=train_embeddings)
        trained, report = train(config, datasets, params)
        monkeypatch.setattr(matcha.training, "adam_step", adam_step_dense)
        trained_ref, report_ref = train(config, datasets, params)
        assert report == report_ref
        for name in TENSOR_NAMES:
            assert np.array_equal(getattr(trained, name), getattr(trained_ref, name)), name

    def test_frozen_embeddings_flag(self):
        params, datasets = desk_setup()
        before = params.embedding.copy()
        config = TrainConfig(epochs=1, batch_size=8, grad_accum_steps=1, train_embeddings=False)
        trained, _ = train(config, datasets, params)
        assert np.array_equal(trained.embedding, before)
        assert not np.array_equal(trained.proj_weight, params.proj_weight)

    def test_returns_read_only_params_and_copy_is_writeable(self):
        params, datasets = desk_setup()
        trained, _ = train(TrainConfig(epochs=1, batch_size=8, grad_accum_steps=1), datasets, params)
        for name in TENSOR_NAMES:
            assert not getattr(trained, name).flags.writeable, name
            with pytest.raises(ValueError):
                getattr(trained, name)[0] += 1.0
            assert getattr(trained.copy(), name).flags.writeable, name
            assert getattr(params, name).flags.writeable, name

    def test_trains_from_loaded_params_and_leaves_them_unchanged(self, tmp_path):
        params, datasets = desk_setup()
        path = str(tmp_path / "init.ckpt")
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        before = loaded.copy()
        config = TrainConfig(epochs=2, batch_size=8, grad_accum_steps=2, seed=6)
        trained, _ = train(config, datasets, loaded)
        from_copy, _ = train(config, datasets, before)
        for name in TENSOR_NAMES:
            assert np.array_equal(getattr(loaded, name), getattr(before, name)), name
            assert not getattr(loaded, name).flags.writeable, name
            assert np.array_equal(getattr(trained, name), getattr(from_copy, name)), name
        assert not np.array_equal(trained.proj_weight, loaded.proj_weight)

        def written(result, name):
            out = str(tmp_path / name)
            save_checkpoint(result, out)
            return open(out, "rb").read()

        # The float32 table trains as its float64 copy and writes the same bytes; no epochs writes the file again.
        assert written(trained, "a.ckpt") == written(from_copy, "b.ckpt")
        assert written(train(TrainConfig(epochs=0), datasets, loaded)[0], "c.ckpt") == open(path, "rb").read()

    def test_frozen_training_shares_a_loaded_table(self, tmp_path):
        _, datasets = desk_setup()
        # A table far larger than the corpus needs, so a copy of it would dominate the peak.
        path = str(tmp_path / "init.ckpt")
        save_checkpoint(init_params(20_000, 16, 4, max_len=16, seed=42), path)
        loaded = load_checkpoint(path)
        config = TrainConfig(epochs=2, batch_size=8, grad_accum_steps=2, seed=6, train_embeddings=False)
        tracemalloc.start()
        try:
            trained, _ = train(config, datasets, loaded)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trained.embedding is loaded.embedding
        assert peak < loaded.embedding.nbytes / 2, peak  # its float64 copy would take 2 * nbytes
        # A writeable table is copied as before and stays writeable; both write the same bytes.
        writeable = loaded.copy()
        from_copy, _ = train(config, datasets, writeable)
        assert from_copy.embedding is not writeable.embedding and writeable.embedding.flags.writeable
        out_a, out_b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(trained, out_a)
        save_checkpoint(from_copy, out_b)
        assert open(out_a, "rb").read() == open(out_b, "rb").read()

    @pytest.mark.parametrize("train_embeddings", [True, False])
    @pytest.mark.parametrize("grad_accum", [1, 2])
    @pytest.mark.parametrize("epochs", [0, 1, 3])
    def test_read_only_table_trains_as_its_copy(self, tmp_path, epochs, grad_accum, train_embeddings):
        params, datasets = desk_setup()
        path = str(tmp_path / "init.ckpt")
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        table = loaded.embedding.copy()
        config = TrainConfig(epochs=epochs, batch_size=8, grad_accum_steps=grad_accum, seed=7,
                             train_embeddings=train_embeddings)
        shared, report = train(config, datasets, loaded)
        copied, report_ref = train(config, datasets, loaded.copy())
        assert report == report_ref
        for name in TENSOR_NAMES:
            got, want = getattr(shared, name), getattr(copied, name)
            # An untouched shared table is float32; its values are the float64 copy's bit for bit.
            assert got.astype(np.float64).tobytes() == want.tobytes(), name
        stepped = epochs > 0 and train_embeddings
        assert (shared.embedding is loaded.embedding) != stepped
        assert shared.embedding.dtype == (np.float64 if stepped else np.float32)
        assert loaded.embedding.dtype == np.float32 and not loaded.embedding.flags.writeable
        assert loaded.embedding.tobytes() == table.tobytes()
        out_a, out_b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(shared, out_a)
        save_checkpoint(copied, out_b)
        assert open(out_a, "rb").read() == open(out_b, "rb").read()
        if epochs == 0:
            assert open(out_a, "rb").read() == open(path, "rb").read()

    def test_margin_config_propagates(self):
        params, datasets = desk_setup()
        config = TrainConfig(epochs=0, margin=0.25)
        trained, _ = train(config, datasets, params)
        assert trained.hyper.margin == 0.25

    def test_overflowing_lr_stops_at_its_micro_batch(self, tmp_path):
        # A finite rate can still overflow: one NumericError where it happens, and no RuntimeWarning.
        params, datasets = desk_setup()
        config = TrainConfig(epochs=2, batch_size=8, grad_accum_steps=1, lr=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"^epoch 0, micro-batch [1-9]\d*: \w+ .*encountered in "):
                train(config, datasets, params)

    @pytest.mark.parametrize("weight_decay, micro", [
        # The first window's step leaves huge parameters, and the next window's first forward overflows.
        (0.05, 3),
        # lr * weight_decay is inf: the step itself fails, on the micro-batch that closes its window.
        (10.0, 2),
    ])
    def test_overflow_in_a_window_names_its_micro_batch(self, weight_decay, micro):
        params, datasets = desk_setup()
        config = TrainConfig(epochs=2, batch_size=8, grad_accum_steps=3, lr=1e308, weight_decay=weight_decay)
        with pytest.raises(NumericError, match=rf"^epoch 0, micro-batch {micro}: "):
            train(config, datasets, params)

    def test_invalid_config(self):
        with pytest.raises(ValueError, match="^margin must be finite$"):
            TrainConfig(margin=float("inf")).validate()
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0).validate()
        with pytest.raises(ValueError):
            TrainConfig(schedule_strategy="bogus").validate()
