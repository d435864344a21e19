import numpy as np
import pytest

from matcha.errors import (
    DegenerateRepresentationError,
    EmptyInputError,
    ShapeError,
    TokenRangeError,
)
from matcha.model import (
    Hyper,
    ModelParams,
    block_means,
    check_ids,
    cosine,
    cosine_with_grads,
    forward,
    init_params,
    represent,
    score,
)
from matcha.attribution import BASELINE_KINDS, DIRECTIONS, integrated_gradients
from matcha.checkpoint import load_checkpoint, save_checkpoint
from matcha.synthetic import make_synthetic_corpus
from matcha.tokenizer import build_word_vocabulary
from matcha.training import TENSOR_NAMES
import matcha.model
from oracles import (
    convert,
    convert_loop,
    init_params_glorot,
    pool,
    pool_loop,
    project,
    project_loop,
    represent_layered,
    represent_loop,
    represent_one,
    score_pairwise,
)


def manual_params(embedding, proj_weight, proj_bias, conversion, max_len=16, margin=1.0):
    dim = embedding.shape[1]
    n_ctx = proj_weight.shape[0] // dim
    return ModelParams(
        embedding=np.asarray(embedding, dtype=np.float64),
        proj_weight=np.asarray(proj_weight, dtype=np.float64),
        proj_bias=np.asarray(proj_bias, dtype=np.float64),
        conversion=np.asarray(conversion, dtype=np.float64),
        hyper=Hyper(dim=dim, n_ctx=n_ctx, max_len=max_len, margin=margin),
    )


def random_params(rng, vocab_size, dim, n_ctx, scale=0.5):
    return manual_params(
        rng.normal(0, scale, (vocab_size, dim)),
        rng.normal(0, scale, (n_ctx * dim, dim)),
        rng.normal(0, scale, n_ctx * dim),
        rng.normal(0, scale, (dim, dim)),
    )


class TestEmbed:
    """Token ids through `check_ids` into embedding rows, the lookup integrated_gradients makes."""

    def test_lookup_rows(self):
        rng = np.random.default_rng(0)
        params = random_params(rng, 5, 3, 1)
        ids = check_ids(params, [0])
        assert ids.dtype == np.intp and ids.tolist() == [0]
        assert np.array_equal(params.embedding[ids][0], params.embedding[0])

    def test_shape(self):
        params = random_params(np.random.default_rng(1), 6, 4, 2)
        ids = check_ids(params, [1, 2, 3])
        assert ids.shape == (3,)
        assert params.embedding[ids].shape == (3, 4)

    def test_repeated_ids_identical_rows(self):
        params = random_params(np.random.default_rng(2), 8, 4, 2)
        out = params.embedding[check_ids(params, [5, 5])]
        assert np.array_equal(out[0], out[1])

    def test_out_of_range(self):
        params = random_params(np.random.default_rng(3), 4, 3, 1)
        with pytest.raises(TokenRangeError):
            check_ids(params, [4])

    def test_empty(self):
        params = random_params(np.random.default_rng(3), 4, 3, 1)
        with pytest.raises(EmptyInputError):
            check_ids(params, [])


class TestProject:
    def test_zero_weights(self):
        params = random_params(np.random.default_rng(4), 4, 3, 2)
        params.proj_weight[:] = 0
        params.proj_bias[:] = 0
        out = project(params, np.ones((5, 3)))
        assert out.shape == (2, 5, 3)
        assert np.all(out == 0)

    def test_identity_single_context(self):
        dim = 4
        params = manual_params(
            np.zeros((3, dim)), np.eye(dim), np.zeros(dim), np.eye(dim)
        )
        emb = np.random.default_rng(5).normal(0, 1, (6, dim))
        assert np.allclose(project(params, emb)[0], emb)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        params = random_params(rng, 4, 4, 2)
        emb = rng.normal(0, 1, (3, 4))
        expected = project_loop(emb, params.proj_weight, params.proj_bias, 2)
        assert np.allclose(project(params, emb), expected, atol=1e-12)

    def test_shape_mismatch(self):
        params = random_params(np.random.default_rng(7), 4, 4, 2)
        with pytest.raises(ShapeError):
            project(params, np.zeros((3, 5)))


class TestConvert:
    def test_identity(self):
        s = np.random.default_rng(8).normal(0, 1, (2, 3, 4))
        assert np.allclose(convert(s, np.eye(4)), s)

    def test_doubling(self):
        s = np.random.default_rng(9).normal(0, 1, (2, 3, 4))
        assert np.allclose(convert(s, 2 * np.eye(4)), 2 * s)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(10)
        s = rng.normal(0, 1, (2, 4, 3))
        w = rng.normal(0, 1, (3, 3))
        assert np.allclose(convert(s, w), convert_loop(s, w), atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            convert(np.zeros((2, 3, 4)), np.zeros((5, 5)))

    def test_linearity_in_conversion(self):
        rng = np.random.default_rng(11)
        s = rng.normal(0, 1, (3, 2, 5))
        w1 = rng.normal(0, 1, (5, 5))
        w2 = rng.normal(0, 1, (5, 5))
        a, b = 0.7, -1.3
        lhs = convert(s, a * w1 + b * w2)
        rhs = a * convert(s, w1) + b * convert(s, w2)
        assert np.allclose(lhs, rhs, atol=1e-9)


class TestPool:
    def test_constant(self):
        out = pool(np.full((3, 4, 5), 2.5))
        assert np.allclose(out, 2.5)

    def test_two_token_mean(self):
        s = np.array([[[1.0, 0.0], [0.0, 1.0]]])  # n_ctx=1, L=2, dim=2
        assert np.allclose(pool(s), [0.5, 0.5])

    def test_matches_loop_oracle(self):
        s = np.random.default_rng(12).normal(0, 1, (3, 5, 4))
        assert np.allclose(pool(s), pool_loop(s), atol=1e-12)

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            pool(np.zeros((2, 0, 4)))

    def test_pool_convert_commutation(self):
        rng = np.random.default_rng(13)
        s = rng.normal(0, 1, (3, 4, 6))
        w = rng.normal(0, 1, (6, 6))
        assert np.allclose(pool(convert(s, w)), pool(s) @ w, atol=1e-9)


class TestRepresent:
    def test_zero_params_zero_vector(self):
        params = manual_params(np.zeros((4, 3)), np.zeros((6, 3)), np.zeros(6), np.zeros((3, 3)))
        assert np.array_equal(represent(params, [[0, 1]])[0], np.zeros(3))

    def test_determinism_bit_stable(self):
        params = random_params(np.random.default_rng(14), 6, 4, 2)
        a = represent(params, [[1, 2, 3]])[0]
        b = represent(params, [[1, 2, 3]])[0]
        assert np.array_equal(a, b)

    def test_matches_composed_oracle(self):
        rng = np.random.default_rng(15)
        params = random_params(rng, 6, 4, 2)
        ids = [1, 5]
        assert np.allclose(represent(params, [ids])[0], represent_loop(params, ids), atol=1e-12)

    def test_folded_matches_layered_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            dim, n_ctx, length = (int(rng.integers(lo, hi)) for lo, hi in ((1, 33), (1, 17), (1, 65)))
            params = random_params(rng, 50, dim, n_ctx)
            ids = [int(i) for i in rng.integers(0, 50, length)]
            layered = represent_layered(params, ids)
            rel = np.abs(represent(params, [ids])[0] - layered).max() / np.abs(layered).max()
            assert rel <= 1e-12, (dim, n_ctx, length, rel)

    def test_row_wise_forward_matches_layered_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            dim, n_ctx, n_docs = (int(rng.integers(lo, hi)) for lo, hi in ((1, 33), (1, 17), (2, 9)))
            params = random_params(rng, 50, dim, n_ctx)
            docs = [[int(i) for i in rng.integers(0, 50, int(rng.integers(1, 20)))] for _ in range(n_docs)]
            emb_mean = np.stack([params.embedding[check_ids(params, ids)].mean(axis=0) for ids in docs])
            ctx, h = forward(params, emb_mean, block_means(params))
            assert ctx.shape == h.shape == (n_docs, dim)
            for row, ids in zip(h, docs):
                layered = represent_layered(params, ids)
                rel = np.abs(row - layered).max() / np.abs(layered).max()
                assert rel <= 1e-12, (dim, n_ctx, rel)

    def test_folded_matches_layered_oracle_gpt2_shape(self):
        rng = np.random.default_rng(21)
        params = random_params(rng, 50257, 256, 16, scale=0.1)
        ids = [int(i) for i in rng.integers(0, 50257, 40)]
        layered = represent_layered(params, ids)
        rel = np.abs(represent(params, [ids])[0] - layered).max() / np.abs(layered).max()
        assert rel <= 1e-12, rel

    @pytest.mark.parametrize("block_entries", [1, 6, 40, matcha.model.MEAN_BLOCK_ENTRIES])
    def test_batch_matches_one_at_a_time_across_blocks(self, monkeypatch, block_entries):
        monkeypatch.setattr(matcha.model, "MEAN_BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(23)
        params = random_params(rng, 30, 6, 3)
        docs = [[int(i) for i in rng.integers(0, 30, int(rng.integers(1, 9)))] for _ in range(25)]
        h = represent(params, docs)
        assert h.shape == (25, 6)
        for row, ids in zip(h, docs):
            want = represent_one(params, ids)
            assert np.abs(row - want).max() <= 1e-12 * np.abs(want).max()

    def test_no_documents(self):
        params = random_params(np.random.default_rng(24), 5, 3, 2)
        assert represent(params, []).shape == (0, 3)

    def test_empty_document_named(self):
        params = random_params(np.random.default_rng(25), 5, 3, 2)
        with pytest.raises(EmptyInputError, match="document 1"):
            represent(params, [[1], [], [2]])

    @pytest.mark.parametrize("bad_id", [5, -1, np.iinfo(np.intp).min])
    def test_out_of_range_id(self, bad_id):
        params = random_params(np.random.default_rng(26), 5, 3, 2)
        with pytest.raises(TokenRangeError, match=f": {bad_id}$"):
            represent(params, [[1], [2, bad_id]])

    def test_shape_chain(self):
        rng = np.random.default_rng(16)
        for dim, n_ctx, length in [(2, 1, 1), (4, 3, 5), (6, 2, 7)]:
            params = random_params(rng, 9, dim, n_ctx)
            emb = params.embedding[check_ids(params, list(rng.integers(0, 9, length)))]
            assert emb.shape == (length, dim)
            ctx = project(params, emb)
            assert ctx.shape == (n_ctx, length, dim)
            conv = convert(ctx, params.conversion)
            assert conv.shape == (n_ctx, length, dim)
            assert pool(conv).shape == (dim,)


class TestCosine:
    def test_identical(self):
        h = np.array([0.3, -0.2, 0.5])
        assert cosine(h, h) == 1.0

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_analytic_value(self):
        value = cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert abs(value - 0.70710678) < 1e-8

    def test_scale_invariance(self):
        rng = np.random.default_rng(17)
        h1 = rng.normal(0, 1, 8)
        h2 = rng.normal(0, 1, 8)
        for a in (1e-6, 0.5, 3.0, 1e6):
            assert abs(cosine(a * h1, h2) - cosine(h1, h2)) < 1e-9

    def test_zero_norm(self):
        with pytest.raises(DegenerateRepresentationError):
            cosine(np.zeros(3), np.ones(3))

    def test_row_wise_grads_match_single_rows(self):
        rng = np.random.default_rng(18)
        h1, h2 = rng.normal(0, 1, (5, 7)), rng.normal(0, 1, (5, 7))
        for a, b in ((h1, h2), (h1[0], h2)):  # row by row, and one vector against many rows
            sim, g1, g2 = cosine_with_grads(a, b)
            for k in range(5):
                a_k = a[k] if a.ndim == 2 else a
                sim_k, g1_k, g2_k = cosine_with_grads(a_k, b[k])
                assert abs(sim[k] - sim_k) <= 1e-15 and abs(sim_k - cosine(a_k, b[k])) <= 1e-15
                assert np.allclose(g1[k], g1_k, rtol=0, atol=1e-15)
                assert np.allclose(g2[k], g2_k, rtol=0, atol=1e-15)

    @staticmethod
    def assert_same_bits(got, expected):
        for a, b in zip(got, expected):
            a, b = np.asarray(a), np.asarray(b)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n", [1, 7, 32])
    @pytest.mark.parametrize("dim", [1, 5, 64, 256, 768])
    def test_stacked_call_equals_call_per_slice(self, dim, n):
        # The trainer's one call: references against both candidate sets as a (2, n, dim) view.
        h = np.random.default_rng(dim * 100 + n).normal(0, 1, (3 * n, dim))
        stacked = cosine_with_grads(h[:n], h[n:].reshape(2, n, dim))
        for k in range(2):
            self.assert_same_bits([part[k] for part in stacked], cosine_with_grads(h[:n], h[(k + 1) * n : (k + 2) * n]))

    @pytest.mark.parametrize("n", [1, 7, 32])
    @pytest.mark.parametrize("dim", [1, 5, 64, 256, 768])
    def test_rows_call_equals_call_per_row(self, dim, n):
        # Integrated gradients' one call: a fixed vector against every path point and both endpoints.
        rng = np.random.default_rng(dim * 100 + n + 1)
        vector, rows = rng.normal(0, 1, dim), rng.normal(0, 1, (n + 2, dim))
        together = cosine_with_grads(vector, rows)
        self.assert_same_bits([part[:n] for part in together], cosine_with_grads(vector, rows[:n]))
        for k in range(n + 2):
            self.assert_same_bits([part[k] for part in together], cosine_with_grads(vector, rows[k]))

    def test_row_wise_zero_norm(self):
        h = np.ones((3, 4))
        h[1] = 0.0
        with pytest.raises(DegenerateRepresentationError):
            cosine_with_grads(np.ones(4), h)

    def test_clamped(self):
        h = np.array([1e-8, 1.0])
        assert -1.0 <= cosine(h, -h) <= 1.0


class TestCosineKernels:
    """`cosine_with_grads`' norms and zero-norm check, which integrated gradients' endpoint cosines share."""

    @staticmethod
    def shapes(dim, n):
        rng = np.random.default_rng(dim * 1000 + n)
        vector, rows, other, stack = (rng.normal(0, 1, shape) for shape in ((dim,), (n, dim), (n, dim), (2, n, dim)))
        # A vector against rows (integrated gradients), rows against rows, rows against a stack (training).
        return {"vector-rows": (vector, rows), "rows-rows": (rows, other), "rows-stack": (rows, stack)}

    @pytest.mark.parametrize("n", [1, 7, 66])
    @pytest.mark.parametrize("dim", [1, 5, 64, 256, 768])
    def test_norms_are_linalg_norm_bits(self, dim, n):
        for pair in self.shapes(dim, n).values():
            for x in pair:
                assert matcha.model._norms(x).tobytes() == np.linalg.norm(x, axis=-1).tobytes()

    @pytest.mark.parametrize("side", ["fixed", "moving"])
    @pytest.mark.parametrize("shape", ["vector-rows", "rows-rows", "rows-stack"])
    def test_zero_norm_on_either_side(self, shape, side):
        h_fixed, h = self.shapes(5, 7)[shape]
        # The zero vector, or one zero row, on one side only.
        zeroed = h_fixed if side == "fixed" else h
        if zeroed.ndim == 1:
            zeroed[:] = 0.0
        else:
            zeroed[..., 2, :] = 0.0
        with pytest.raises(DegenerateRepresentationError) as info:
            cosine_with_grads(h_fixed, h)
        assert str(info.value) == "zero-norm document representation"


class TestScore:
    @pytest.fixture()
    def setup(self):
        vocab = build_word_vocabulary(["the cat sat", "a dog ran fast", "birds fly high"])
        params = random_params(np.random.default_rng(18), vocab.vocab_size, 8, 2)
        return params, vocab

    def test_identical_texts(self, setup):
        params, vocab = setup
        assert score(params, "the cat sat", "the cat sat", vocab) == 1.0

    def test_symmetry(self, setup):
        params, vocab = setup
        a, b = "the cat sat", "a dog ran fast"
        assert score(params, a, b, vocab) == pytest.approx(score(params, b, a, vocab), abs=1e-12)

    def test_empty_text(self, setup):
        params, vocab = setup
        with pytest.raises(EmptyInputError):
            score(params, "", "the cat sat", vocab)

    def test_two_strings_give_a_float(self, setup):
        params, vocab = setup
        value = score(params, "the cat sat", "birds fly high", vocab)
        assert type(value) is float
        assert value == pytest.approx(score_pairwise(params, "the cat sat", "birds fly high", vocab), abs=1e-12)


# Under a vocabulary of the first three, "the  cat sat" encodes like "the cat sat",
# and "zzz" and "qqq" both as the unknown word.
TEXTS = ["the cat sat", "a dog ran fast", "birds fly high", "the  cat sat", "zzz", "qqq",
         "the the", "the", "sat cat the", "a dog ran fast high birds fly the cat"]


class TestBatchedScore:
    @pytest.mark.parametrize("dim, n_ctx, block_entries", [
        (8, 2, matcha.model.MEAN_BLOCK_ENTRIES), (1, 1, matcha.model.MEAN_BLOCK_ENTRIES),
        (256, 16, matcha.model.MEAN_BLOCK_ENTRIES), (8, 2, 1), (5, 3, 7), (5, 3, 30),
    ])
    def test_matches_pairwise_oracle(self, monkeypatch, dim, n_ctx, block_entries):
        monkeypatch.setattr(matcha.model, "MEAN_BLOCK_ENTRIES", block_entries)
        vocab = build_word_vocabulary(TEXTS[:3])
        rng = np.random.default_rng(dim * 100 + block_entries)
        params = random_params(rng, vocab.vocab_size, dim, n_ctx, scale=0.1 if dim == 256 else 0.5)
        refs = [TEXTS[i] for i in rng.integers(0, len(TEXTS), 60)]
        cands = [TEXTS[i] for i in rng.integers(0, len(TEXTS), 60)]
        got = score(params, refs, cands, vocab)
        want = np.array([score_pairwise(params, r, c, vocab) for r, c in zip(refs, cands)])
        assert got.shape == (60,)
        assert np.abs(got - want).max() <= 1e-12
        same_ids = [vocab.encode(r) == vocab.encode(c) for r, c in zip(refs, cands)]
        assert any(same_ids) and all(got[same_ids] == 1.0)

    def test_each_distinct_text_encoded_once_and_equal_ids_share_a_row(self, monkeypatch):
        vocab = build_word_vocabulary(TEXTS[:3])
        params = random_params(np.random.default_rng(27), vocab.vocab_size, 8, 2)
        encoded, represented = [], []
        encode, represent_docs = vocab.encode, matcha.model.represent
        monkeypatch.setattr(vocab, "encode", lambda text, max_len: encoded.append(text) or encode(text, max_len))
        monkeypatch.setattr(matcha.model, "represent",
                            lambda p, docs: represented.append(len(docs)) or represent_docs(p, docs))
        refs = ["the cat sat", "the cat sat", "zzz", "a dog ran fast"]
        cands = ["the  cat sat", "qqq", "zzz", "the cat sat"]
        values = score(params, refs, cands, vocab)
        assert sorted(encoded) == sorted(set(refs + cands))
        assert represented == [3]  # the cat sat, the unknown word, a dog ran fast
        assert values[0] == values[2] == 1.0
        assert values[3] == pytest.approx(score_pairwise(params, refs[3], cands[3], vocab), abs=1e-12)

    def test_bit_equal_rows_score_one(self):
        # "the the" and "the" have equal mean embeddings, so equal rows.
        vocab = build_word_vocabulary(TEXTS[:3])
        params = random_params(np.random.default_rng(28), vocab.vocab_size, 8, 2)
        assert score(params, "the the", "the", vocab) == 1.0
        assert score_pairwise(params, "the the", "the", vocab) == 1.0

    @pytest.mark.parametrize("side", [0, 1])
    def test_empty_text_in_either_list(self, side):
        vocab = build_word_vocabulary(TEXTS[:3])
        params = random_params(np.random.default_rng(29), vocab.vocab_size, 8, 2)
        texts = [["the cat sat", "birds fly high"], ["a dog ran fast", "the"]]
        texts[side][1] = "  "
        with pytest.raises(EmptyInputError):
            score(params, *texts, vocab)

    def test_zero_norm_row(self):
        vocab = build_word_vocabulary(TEXTS[:3])
        params = random_params(np.random.default_rng(30), vocab.vocab_size, 8, 2)
        params.proj_bias[:] = 0.0
        params.embedding[vocab.encode("zzz")[0]] = 0.0
        with pytest.raises(DegenerateRepresentationError):
            score(params, ["the cat sat", "birds fly high"], ["a dog ran fast", "qqq"], vocab)

    def test_lengths_must_match(self):
        vocab = build_word_vocabulary(TEXTS[:3])
        params = random_params(np.random.default_rng(31), vocab.vocab_size, 8, 2)
        with pytest.raises(ValueError):
            score(params, ["the cat sat"], ["the", "the"], vocab)

    def test_no_pairs(self):
        vocab = build_word_vocabulary(TEXTS[:3])
        params = random_params(np.random.default_rng(32), vocab.vocab_size, 8, 2)
        assert score(params, [], [], vocab).shape == (0,)


class TestInitParams:
    def test_shapes_and_hyper(self):
        params = init_params(10, 6, 3, max_len=32, margin=0.5, seed=1)
        assert params.embedding.shape == (10, 6)
        assert params.proj_weight.shape == (18, 6)
        assert params.proj_bias.shape == (18,)
        assert params.conversion.shape == (6, 6)
        assert params.hyper.margin == 0.5

    def test_seeded_determinism(self):
        a = init_params(10, 6, 3, seed=7)
        b = init_params(10, 6, 3, seed=7)
        for name in ("embedding", "proj_weight", "proj_bias", "conversion"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_values_float32_representable(self):
        params = init_params(10, 6, 3, seed=7)
        for name in ("embedding", "proj_weight", "proj_bias", "conversion"):
            arr = getattr(params, name)
            assert np.array_equal(arr, arr.astype(np.float32).astype(np.float64))

    @pytest.mark.parametrize("vocab_size, dim, n_ctx, seed", [(72, 64, 16, 42), (10, 6, 3, 7), (5, 1, 1, 0),
                                                               (300, 8, 5, 123)])
    def test_matches_glorot_oracle_bit_for_bit(self, vocab_size, dim, n_ctx, seed):
        params = init_params(vocab_size, dim, n_ctx, max_len=20, margin=0.5, seed=seed)
        want = init_params_glorot(vocab_size, dim, n_ctx, max_len=20, margin=0.5, seed=seed)
        assert params.hyper == want.hyper
        for name in TENSOR_NAMES:
            got, ref = getattr(params, name), getattr(want, name)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name

    def test_transferred_embedding(self):
        table = np.random.default_rng(19).normal(0, 1, (12, 4))
        params = init_params(12, 4, 2, embedding=table)
        assert np.array_equal(params.embedding, table)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_transferred_embedding(self, value):
        table = np.ones((12, 4))
        table[3, 1] = value
        with pytest.raises(ShapeError, match="non-finite"):
            init_params(12, 4, 2, embedding=table)

    def test_bad_hyper(self):
        with pytest.raises(ShapeError):
            init_params(4, 0, 1)



class TestFrozenParams:
    def test_freeze_makes_tensors_read_only_and_copy_writeable(self):
        params = random_params(np.random.default_rng(40), 7, 4, 3).freeze()
        for name in TENSOR_NAMES:
            assert not getattr(params, name).flags.writeable, name
            with pytest.raises(ValueError):
                getattr(params, name)[0] += 1.0
        block_means(params)
        copied = params.copy()
        assert copied._block_means is None
        assert all(getattr(copied, name).flags.writeable for name in TENSOR_NAMES)

    def test_second_block_means_call_returns_the_same_tuple(self):
        params = random_params(np.random.default_rng(41), 7, 4, 3).freeze()
        means = block_means(params)
        assert block_means(params) is means
        assert not means[0].flags.writeable and not means[1].flags.writeable
        fresh = block_means(params.copy())
        assert np.array_equal(means[0], fresh[0]) and np.array_equal(means[1], fresh[1])

    def test_writeable_params_see_an_in_place_write(self):
        params = random_params(np.random.default_rng(42), 7, 4, 3)
        w_bar = block_means(params)[0]
        params.proj_weight[0, 0] += 1.0
        assert block_means(params)[0][0, 0] == pytest.approx(w_bar[0, 0] + 1.0 / 3)
        assert params._block_means is None

    def test_frozen_params_recompute_for_a_reassigned_tensor(self):
        params = random_params(np.random.default_rng(43), 7, 4, 3).freeze()
        means = block_means(params)
        weight = params.proj_weight + 1.0
        weight.flags.writeable = False
        params.proj_weight = weight
        again = block_means(params)
        assert again is not means
        assert np.array_equal(again[0], block_means(params.copy())[0])
        assert block_means(params) is again


def gpt2_shaped_model():
    """A word vocabulary over 100 synthetic records with D=256, N_c=16 parameters, and its pairs."""
    records = make_synthetic_corpus(100, seed=5)
    vocab = build_word_vocabulary(t for r in records for t in (r.reference, r.correct, r.incorrect))
    params = random_params(np.random.default_rng(44), vocab.vocab_size, 256, 16, scale=0.1)
    return params.freeze(), vocab, records


@pytest.mark.parametrize("model", ["desk", "gpt2-shaped"])
def test_frozen_scores_and_attributions_equal_a_writeable_copy(desk_model, model):
    """The block-mean memo changes no bit: every pair scored and attributed on
    frozen params equals the same call on a writeable copy, which forms W̄ anew."""
    if model == "desk":
        frozen, vocab, records = desk_model.params, desk_model.vocab, desk_model.held_records
    else:
        frozen, vocab, records = gpt2_shaped_model()
    writeable = frozen.copy()
    assert not frozen.proj_weight.flags.writeable and writeable.proj_weight.flags.writeable
    for r in records:
        for candidate in (r.correct, r.incorrect):
            assert score(frozen, r.reference, candidate, vocab) == score(writeable, r.reference, candidate, vocab)
            for direction in DIRECTIONS:
                got = integrated_gradients(frozen, r.reference, candidate, vocab, direction, 8)
                assert got == integrated_gradients(writeable, r.reference, candidate, vocab, direction, 8)
    assert frozen._block_means is not None and writeable._block_means is None


@pytest.mark.parametrize("model", ["desk", "gpt2-shaped"])
def test_loaded_scores_representations_and_attributions_equal_a_float64_copy(desk_model, model, tmp_path):
    """A loaded checkpoint keeps its float32 table and each gather upcasts its rows: every score,
    single and batched, representation and attribution equals the call on a float64 copy, bit for bit."""
    if model == "desk":
        params, vocab, records = desk_model.params, desk_model.vocab, desk_model.held_records
    else:
        params, vocab, records = gpt2_shaped_model()
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    widened = loaded.copy()
    assert loaded.embedding.dtype == np.float32 and widened.embedding.dtype == np.float64
    refs = [r.reference for r in records for _ in range(2)]
    cands = [c for r in records for c in (r.correct, r.incorrect)]
    assert np.array_equal(score(loaded, refs, cands, vocab), score(widened, refs, cands, vocab))
    docs = [vocab.encode(text, loaded.hyper.max_len) for text in dict.fromkeys(refs + cands)]
    assert np.array_equal(represent(loaded, docs), represent(widened, docs))
    for ref, cand in zip(refs, cands):
        assert score(loaded, ref, cand, vocab) == score(widened, ref, cand, vocab)
        for direction in DIRECTIONS:
            for baseline in BASELINE_KINDS:
                got = integrated_gradients(loaded, ref, cand, vocab, direction, 8, baseline)
                assert got == integrated_gradients(widened, ref, cand, vocab, direction, 8, baseline)
