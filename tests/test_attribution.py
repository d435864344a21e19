import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from matcha.attribution import (
    BASELINE_KINDS,
    DEFAULT_STEPS,
    DIRECTIONS,
    AttributionResult,
    attribution_gap,
    integrated_gradients,
)
from matcha.errors import DegenerateRepresentationError
from matcha.model import score
from matcha.tokenizer import build_word_vocabulary
from oracles import (
    attribution_gap_loop,
    attribution_result_dict,
    integrated_gradients_decimal,
    integrated_gradients_decimal_exact,
    integrated_gradients_grid,
    integrated_gradients_midpoint,
    integrated_gradients_three_pass,
    integrated_gradients_tiled,
    path_integral_attributions,
    pieces_per_id,
    represent_layered,
    score_grad_tiled,
)
from test_model import manual_params, random_params


STEPS = (8, 64, 257)
GROWING_STEPS = (64, 256, 1024)
PATH_MESSAGE = (
    "zero-norm representation along the interpolation path; "
    "try a different baseline (zero-norm document representation)"
)
ENDPOINT_MESSAGE = (
    "zero-norm representation at an interpolation endpoint; "
    "try a different baseline (zero-norm document representation)"
)


def _oracles_agree(params, vocab, reference, candidate, direction, steps, baseline_kind):
    """The grid and three-pass oracles agree bit for bit, and the scalar-path midpoint oracle matches the grid.

    The grid's and three-pass results serialise to the same JSON text, so
    every float has the same bits.  The midpoint oracle sums the path in
    another order: its `score` and `baseline_score` have the grid's bits, and
    each per-token value is within 1e-12 of the larger of the largest value
    and the score change.
    """
    args = (params, reference, candidate, vocab, direction, steps, baseline_kind)
    grid = integrated_gradients_grid(*args)
    assert json.dumps(grid.to_dict()) == json.dumps(integrated_gradients_three_pass(*args).to_dict())
    got = integrated_gradients_midpoint(*args)
    assert (got.direction, got.steps, got.score.hex(), got.baseline_score.hex()) == (
        grid.direction, grid.steps, grid.score.hex(), grid.baseline_score.hex())
    assert [tok for tok, _ in got.per_token] == [tok for tok, _ in grid.per_token]
    values, expected = (np.array([v for _, v in r.per_token]) for r in (got, grid))
    scale = max(np.abs(expected).max(), abs(grid.score - grid.baseline_score))
    assert np.abs(values - expected).max() <= 1e-12 * scale


def _converges(values, oracle, scale, steps=GROWING_STEPS):
    """The gap of `values` to `oracle(n)` shrinks at least 12× per 4× more steps n, or is rounding.

    The midpoint rule's error is O(1/n²), 16× smaller per 4× steps, so an
    exact integral shows that ratio; rounding is 1e-12 of max(`scale`, 1).
    """
    gaps = [np.abs(values - oracle(n)).max() for n in steps]
    assert all(fine <= max(coarse / 12, 1e-12 * max(scale, 1.0)) for coarse, fine in zip(gaps, gaps[1:])), gaps


def _is_the_exact_integral(params, vocab, reference, candidate, direction, baseline_kind, steps=GROWING_STEPS):
    """`integrated_gradients` is complete to rounding and is the limit of the midpoint oracle.

    Its residual is at most 1e-12 of max(|score change|, 1); `steps` changes
    no value; its tokens, `score` and `baseline_score` are the oracle's; and
    the oracle's gap to its per-token values closes as `_converges` asks.
    """
    got = integrated_gradients(params, reference, candidate, vocab, direction, 8, baseline_kind)
    change = got.score - got.baseline_score
    assert got.completeness_residual <= 1e-12 * max(abs(change), 1.0)
    values = np.array([v for _, v in got.per_token])
    assert np.isfinite(values).all()

    def oracle(n):
        assert integrated_gradients(params, reference, candidate, vocab, direction, n, baseline_kind) == replace(
            got, steps=n)
        result = integrated_gradients_midpoint(params, reference, candidate, vocab, direction, n, baseline_kind)
        assert (result.score.hex(), result.baseline_score.hex()) == (got.score.hex(), got.baseline_score.hex())
        assert [tok for tok, _ in result.per_token] == [tok for tok, _ in got.per_token]
        return np.array([v for _, v in result.per_token])

    _converges(values, oracle, max(np.abs(values).max(), abs(change)), steps)
    return got


def _raises_as_three_pass(message, *args):
    """The package and the three oracles raise DegenerateRepresentationError with exactly `message`."""
    for ig in (integrated_gradients, integrated_gradients_midpoint, integrated_gradients_grid,
               integrated_gradients_three_pass):
        with pytest.raises(DegenerateRepresentationError) as info:
            ig(*args)
        assert str(info.value) == message


class TestPathIntegral:
    def test_linear_function_exact_any_steps(self):
        rng = np.random.default_rng(0)
        coef = rng.normal(0, 1, (4, 3))
        inputs = rng.normal(0, 1, (4, 3))
        baseline = rng.normal(0, 1, (4, 3))
        for steps in (1, 2, 8, 17):
            out = path_integral_attributions(lambda x: coef, inputs, baseline, steps)
            assert np.allclose(out, coef * (inputs - baseline), atol=1e-12)

    def test_zero_delta_zero_attribution(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, (3, 2))
        out = path_integral_attributions(lambda p: p, x, x.copy(), 8)
        assert np.array_equal(out, np.zeros_like(x))

    def test_quadratic_converges_with_steps(self):
        # f(x) = sum(x^2), grad = 2x; exact IG from 0 is x*x
        x = np.array([1.0, -2.0, 3.0])
        baseline = np.zeros(3)
        errs = []
        for steps in (4, 64):
            out = path_integral_attributions(lambda p: 2 * p, x, baseline, steps)
            errs.append(np.abs(out - x * x).max())
        # midpoint rule is exact for quadratics' gradient (linear), both tiny
        assert errs[1] <= errs[0] + 1e-12

    def test_bad_steps(self):
        with pytest.raises(ValueError):
            path_integral_attributions(lambda p: p, np.ones(2), np.zeros(2), 0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            path_integral_attributions(lambda p: p, np.ones(2), np.zeros(3), 4)


@pytest.fixture()
def small_model():
    vocab = build_word_vocabulary(["the door is open", "the door is closed", "not quite"])
    rng = np.random.default_rng(2)
    params = random_params(rng, vocab.vocab_size, 8, 2, scale=0.4)
    params.hyper.max_len = 16
    return params, vocab


class TestIntegratedGradients:
    def test_input_baseline_gives_zero(self, small_model):
        params, vocab = small_model
        result = integrated_gradients(
            params, "the door is open", "the door is closed", vocab, baseline_kind="input"
        )
        assert all(v == 0.0 for _, v in result.per_token)
        assert result.total == 0.0
        assert result.completeness_residual == 0.0

    def test_total_is_sum_of_tokens(self, small_model):
        params, vocab = small_model
        result = integrated_gradients(params, "the door is open", "the door is closed", vocab)
        assert result.total == pytest.approx(sum(v for _, v in result.per_token), abs=1e-9)

    def test_per_token_length_and_strings(self, small_model):
        params, vocab = small_model
        result = integrated_gradients(params, "the door is open", "not quite", vocab)
        assert [tok for tok, _ in result.per_token] == ["not", "quite"]

    def test_per_token_decodes_each_id_alone(self, bpe_vocab):
        # Repeated BPE tokens, and the 2, 3 and 4 byte tokens of "é", "€" and "😀": each id decodes on its own.
        params = random_params(np.random.default_rng(5), bpe_vocab.vocab_size, 8, 2, scale=0.4)
        params.hyper.max_len = 64
        text = "the cat sat on the cat, the café hello hello € 😀"
        result = integrated_gradients(params, "the world", text, bpe_vocab)
        ids = bpe_vocab.encode(text, 64)
        assert len(set(ids)) < len(ids)
        assert [tok for tok, _ in result.per_token] == pieces_per_id(bpe_vocab, ids)
        assert "\ufffd" in dict(result.per_token)
        values = [value for _, value in result.per_token]
        assert all(type(value) is float for value in values)
        # Every row gets the same gradient, so equal ids get equal values; their array sum is the total.
        assert all(value == values[ids.index(i)] for i, value in zip(ids, values))
        assert float(np.sum(values)) == result.total

    def test_directions_attribute_opposite_documents(self, small_model):
        params, vocab = small_model
        toward_cand = integrated_gradients(
            params, "the door is open", "not quite", vocab, "toward_candidate"
        )
        toward_ref = integrated_gradients(
            params, "the door is open", "not quite", vocab, "toward_reference"
        )
        assert len(toward_cand.per_token) == 2
        assert len(toward_ref.per_token) == 4
        assert toward_cand.direction == "toward_candidate"
        assert toward_ref.direction == "toward_reference"

    def test_completeness_residual_is_rounding_at_any_steps(self, small_model):
        params, vocab = small_model
        ref, cand = "the door is open", "the door is closed"
        coarse = integrated_gradients(params, ref, cand, vocab, steps=8)
        for steps in (9, 32, 256, 1_000_000):
            assert integrated_gradients(params, ref, cand, vocab, steps=steps) == replace(coarse, steps=steps)
        assert coarse.completeness_residual <= 1e-12 * max(abs(coarse.score - coarse.baseline_score), 1.0)
        assert coarse.score != coarse.baseline_score

    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("baseline_kind", BASELINE_KINDS)
    def test_matches_tiled_path_integral_oracle(self, small_model, direction, baseline_kind):
        params, vocab = small_model
        ref, cand = "the door is open", "not quite closed"
        result = integrated_gradients(params, ref, cand, vocab, direction, 64, baseline_kind)
        attributed, fixed = (cand, ref) if direction == "toward_candidate" else (ref, cand)
        emb = params.embedding[vocab.encode(attributed, 16)]
        baseline = emb.copy() if baseline_kind == "input" else np.zeros_like(emb)
        h_fixed = represent_layered(params, vocab.encode(fixed, 16))
        got = np.array([v for _, v in result.per_token])
        _converges(got, lambda steps: path_integral_attributions(
            lambda point: score_grad_tiled(params, point, h_fixed), emb, baseline, steps).sum(axis=1),
            max(np.abs(got).max(), abs(result.score - result.baseline_score)))

    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("baseline_kind", BASELINE_KINDS)
    @pytest.mark.parametrize("dim, n_ctx", [(8, 2), (256, 16)])
    def test_matches_one_document_forward_oracle(self, direction, baseline_kind, dim, n_ctx):
        vocab = build_word_vocabulary(["the door is open", "the door is closed", "not quite"])
        params = random_params(np.random.default_rng(dim), vocab.vocab_size, dim, n_ctx, scale=0.4 if dim == 8 else 0.1)
        ref, cand = "the door is open", "not quite closed"
        result = integrated_gradients(params, ref, cand, vocab, direction, 64, baseline_kind)
        attributed, fixed = (cand, ref) if direction == "toward_candidate" else (ref, cand)
        got = np.array([v for _, v in result.per_token])
        _, score_actual, score_baseline = integrated_gradients_tiled(
            params, vocab.encode(attributed), vocab.encode(fixed), 8, baseline_kind)
        _converges(got, lambda steps: integrated_gradients_tiled(
            params, vocab.encode(attributed), vocab.encode(fixed), steps, baseline_kind)[0],
            max(np.abs(got).max(), abs(score_actual - score_baseline)))
        assert abs(result.score - score_actual) <= 1e-12 * abs(score_actual)
        assert abs(result.baseline_score - score_baseline) <= 1e-12 * abs(score_baseline)

    def test_score_matches_model(self, small_model):
        params, vocab = small_model
        ref, cand = "the door is open", "the door is closed"
        result = integrated_gradients(params, ref, cand, vocab)
        assert result.score == pytest.approx(score(params, ref, cand, vocab), abs=1e-12)

    def test_zero_bias_baseline_degenerate(self, small_model):
        params, vocab = small_model
        params.proj_bias[:] = 0.0
        _raises_as_three_pass(ENDPOINT_MESSAGE, params, "the door is open", "not quite", vocab,
                              "toward_candidate", DEFAULT_STEPS, "zero")

    def test_memory_is_linear_in_steps_and_dim(self):
        # D=256, N_c=16 and 20,000 steps: one (steps, D) array alone would be 41 MB.
        vocab = build_word_vocabulary(["the door is open", "the door is closed", "not quite"])
        params = random_params(np.random.default_rng(256), vocab.vocab_size, 256, 16, scale=0.1)
        tracemalloc.start()
        try:
            integrated_gradients(params, "the door is open", "not quite closed", vocab, steps=20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    def test_step_floor(self, small_model):
        params, vocab = small_model
        with pytest.raises(ValueError):
            integrated_gradients(params, "a", "b", vocab, steps=4)

    def test_bad_direction(self, small_model):
        params, vocab = small_model
        with pytest.raises(ValueError):
            integrated_gradients(params, "a", "b", vocab, direction="sideways")


class TestOnePassMatchesThreePass:
    """The one-pass grid oracle gives the three-pass oracle's bits, the midpoint oracle matches the grid,
    and `integrated_gradients` is the exact integral the midpoint oracle converges to."""

    @pytest.mark.parametrize("steps", STEPS)
    @pytest.mark.parametrize("baseline_kind", BASELINE_KINDS)
    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_desk_model(self, desk_model, direction, baseline_kind, steps):
        for record in desk_model.held_records[:4]:
            for candidate in (record.correct, record.incorrect):
                args = (desk_model.params, desk_model.vocab, record.reference, candidate, direction)
                _oracles_agree(*args, steps, baseline_kind)
                _is_the_exact_integral(*args, baseline_kind, (steps, 4 * steps, 16 * steps))

    @pytest.mark.parametrize("steps", STEPS)
    @pytest.mark.parametrize("baseline_kind", BASELINE_KINDS)
    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_random_wide_model(self, desk_model, direction, baseline_kind, steps):
        vocab = desk_model.vocab
        params = random_params(np.random.default_rng(256), vocab.vocab_size, 256, 16, scale=0.1)
        params.hyper.max_len = desk_model.max_len
        assert np.abs(params.proj_bias).min() > 0.0
        for record in desk_model.held_records[:4]:
            args = (params, vocab, record.reference, record.correct, direction)
            _oracles_agree(*args, steps, baseline_kind)
            _is_the_exact_integral(*args, baseline_kind, (steps, 4 * steps, 16 * steps))


class TestZeroNormMessages:
    """A zero fixed representation or a path through the origin raises the three-pass version's path message."""

    @staticmethod
    def line_model(fixed_row, attributed_row, bias=np.array([0.75, -0.5])):
        # N_c=1, W = C = I: h = e + b exactly for a one-token document "f" or "a".
        dim = len(bias)
        vocab = build_word_vocabulary(["f a"])
        embedding = np.zeros((vocab.vocab_size, dim))
        embedding[vocab.token_to_id["f"]] = fixed_row(bias)
        embedding[vocab.token_to_id["a"]] = attributed_row(bias)
        return manual_params(embedding, np.eye(dim), bias, np.eye(dim)), vocab

    @pytest.mark.parametrize("baseline_kind", BASELINE_KINDS)
    def test_zero_fixed_document(self, baseline_kind):
        params, vocab = self.line_model(lambda b: -b, lambda b: np.array([0.25, 1.0]))
        _raises_as_three_pass(PATH_MESSAGE, params, "f", "a", vocab, "toward_candidate", 8, baseline_kind)

    def test_path_through_the_origin(self):
        # h_0 = b and h_1 = -2b + b = -b: the path meets the origin at alpha = 1/2, the midpoint 4.5 / 9 of 9 steps.
        params, vocab = self.line_model(lambda b: np.array([0.25, 1.0]), lambda b: -2.0 * b)
        _raises_as_three_pass(PATH_MESSAGE, params, "f", "a", vocab, "toward_candidate", 9, "zero")
        # With an even step count no midpoint lands on alpha = 1/2 and the midpoint sums are finite:
        # 0 in exact arithmetic, and rounding (8.9e-16 along the scalar path, 4.4e-16 on the grid).
        # The exact integral of q^(-1/2) through the origin diverges, so the package raises at any steps.
        _oracles_agree(params, vocab, "f", "a", "toward_candidate", 8, "zero")
        with pytest.raises(DegenerateRepresentationError) as info:
            integrated_gradients(params, "f", "a", vocab, "toward_candidate", 8, "zero")
        assert str(info.value) == PATH_MESSAGE


class TestNearTheOrigin:
    """Lines from h_0 = b that pass `distance` from the origin, on the line model of TestZeroNormMessages."""

    DISTANCES = [1e-2, 1e-4, 1e-6, 1e-8]

    @staticmethod
    def model(dim, distance, alpha_c):
        # h_1 = b + (d·u − b)/alpha_c with u ⟂ b, |u| = 1: the line's closest point d·u is at alpha_c.
        rng = np.random.default_rng(dim)
        bias, u = rng.normal(0, 0.5, dim), rng.normal(0, 1, dim)
        u -= (u @ bias) / (bias @ bias) * bias
        u /= np.linalg.norm(u)
        fixed = rng.normal(0, 0.5, dim)
        return TestZeroNormMessages.line_model(lambda b: fixed, lambda b: (distance * u - b) / alpha_c, bias)

    @staticmethod
    def exact_within_rounding(params, vocab, distance):
        """The one per-token value and its residual, within 8·ε·κ (and 1e-12) of scale of the exact integral.

        The exact integral is evaluated in 50-digit decimal on the float64
        representations.  Rounding the line's closest point h⊥ moves it by
        about ε·|h| and turns its direction by ε·|h|/|h⊥|, so the bound has
        κ = (|h_0| + |h_1|) / distance, as the midpoint sum's has with its
        nearest midpoint.  Returns the result and the exact value.
        """
        # The zero baseline's h_0 is the bias b; a one-token document's h is its row plus b.
        bias = params.proj_bias
        fixed, attributed = (params.embedding[vocab.token_to_id[token]] for token in "fa")
        expected = integrated_gradients_decimal_exact(fixed + bias, bias, attributed + bias, attributed)
        kappa = (np.linalg.norm(bias) + np.linalg.norm(attributed + bias)) / distance
        bound = max(1e-12, 8 * np.finfo(float).eps * kappa)
        result = integrated_gradients(params, "f", "a", vocab, "toward_candidate", 8, "zero")
        (_, value), = result.per_token
        scale = max(abs(expected), abs(result.score - result.baseline_score))
        assert abs(value - expected) <= bound * scale
        assert result.completeness_residual <= bound * scale
        return result, expected

    @pytest.mark.parametrize("steps", STEPS)
    @pytest.mark.parametrize("distance", DISTANCES)
    @pytest.mark.parametrize("dim", [2, 256])
    def test_closest_point_between_midpoints(self, dim, distance, steps):
        params, vocab = self.model(dim, distance, (steps // 2) / steps)
        for baseline_kind in BASELINE_KINDS:
            _oracles_agree(params, vocab, "f", "a", "toward_candidate", steps, baseline_kind)
        self.exact_within_rounding(params, vocab, distance)

    @pytest.mark.parametrize("k", [128, 77])
    @pytest.mark.parametrize("distance", DISTANCES)
    @pytest.mark.parametrize("dim", [2, 256])
    def test_midpoint_near_the_origin(self, dim, distance, k):
        """A midpoint `distance` from the origin: the midpoint oracles within what any rounding of the path allows.

        The midpoint sum then amplifies a rounding of the path's points by
        up to κ = (|h_0| + |h_1|) / (the nearest midpoint's norm), so the
        grid and the scalar path are each held to 8·ε·κ (and 1e-12) of the
        sum evaluated in 50-digit decimal.  k = 128 is alpha = 1/2, where the
        grid's points happen to be exact; k = 77 is not.  The package's exact
        integral is held to its own bound.
        """
        steps = 257
        params, vocab = self.model(dim, distance, (k + 0.5) / steps)
        bias = params.proj_bias
        fixed, attributed = (params.embedding[vocab.token_to_id[token]] for token in "fa")
        expected = integrated_gradients_decimal(fixed + bias, bias, attributed + bias, attributed, steps)
        alphas = (np.arange(steps) + 0.5) / steps
        nearest = np.linalg.norm(bias + alphas[:, None] * attributed, axis=1).min()
        kappa = (np.linalg.norm(bias) + np.linalg.norm(attributed + bias)) / nearest
        bound = max(1e-12, 8 * np.finfo(float).eps * kappa)
        for ig in (integrated_gradients_midpoint, integrated_gradients_grid):
            result = ig(params, "f", "a", vocab, "toward_candidate", steps, "zero")
            (_, value), = result.per_token
            assert abs(value - expected) <= bound * max(abs(expected), abs(result.score - result.baseline_score))
        self.exact_within_rounding(params, vocab, distance)

    def test_the_midpoint_spike_is_gone(self):
        """D=256 with a midpoint 1e-6 from the origin: the 257-step rule gives a per-token value of
        about −47,896 for a score that moved by 1.51, and the exact integral gives about −1.51."""
        params, vocab = self.model(256, 1e-6, 128.5 / 257)
        result, expected = self.exact_within_rounding(params, vocab, 1e-6)
        (_, midpoint), = integrated_gradients_midpoint(params, "f", "a", vocab, "toward_candidate", 257,
                                                       "zero").per_token
        assert round(midpoint) == -47_896 and round(result.score - result.baseline_score, 2) == -1.51
        (_, value), = result.per_token
        assert abs(value - (result.score - result.baseline_score)) <= 1e-9 and abs(expected + 1.51) < 0.01


class TestCollinearEndpoints:
    """h_1 = c·h_0 with c > 0: the line passes through the origin, but the segment misses it."""

    @staticmethod
    def model(c):
        # N_c=1, W = C = I and b = h_0: "a" has the row (c − 1)b, so h_1 = c·b; "a z" has the same mean
        # with rows (c − 1)b ± v, so its two tokens get values of opposite sign.
        rng = np.random.default_rng(3)
        bias, v, fixed = rng.normal(0, 0.5, (3, 8))
        vocab = build_word_vocabulary(["f a z"])
        embedding = np.zeros((vocab.vocab_size, 8))
        for token, row in (("f", fixed), ("a", (c - 1) * bias + v), ("z", (c - 1) * bias - v)):
            embedding[vocab.token_to_id[token]] = row
        params = manual_params(embedding, np.eye(8), bias, np.eye(8))
        params.embedding[vocab.token_to_id["a"]] -= v
        return params, vocab, v

    @pytest.mark.parametrize("c", [2.0, 0.5, 3.7, 0.1])
    def test_finite_and_complete(self, c):
        params, vocab, v = self.model(c)
        # One token: h_1 = c·b, so the cosine, and so each value, moves only by rounding, ε/c of h_1.
        result = _is_the_exact_integral(params, vocab, "f", "a", "toward_candidate", "zero")
        (_, value), = result.per_token
        assert abs(value) <= 1e-12 and abs(result.score - result.baseline_score) <= 1e-12
        params.embedding[vocab.token_to_id["a"]] += v
        result = _is_the_exact_integral(params, vocab, "f", "a z", "toward_candidate", "zero")
        (_, plus), (_, minus) = result.per_token
        assert plus * minus < 0.0 and min(abs(plus), abs(minus)) > 1e-3

    def test_zero_delta_with_the_zero_baseline(self):
        # c = 1: the rows v and −v of "a z" average to zero, so h_1 = h_0 = b and the path is one point,
        # where each token gets ±v·g(b) and the grid's midpoints all take that one gradient.
        params, vocab, v = self.model(1.0)
        params.embedding[vocab.token_to_id["a"]] += v
        result = integrated_gradients(params, "f", "a z", vocab, "toward_candidate", 8, "zero")
        grid = integrated_gradients_grid(params, "f", "a z", vocab, "toward_candidate", 8, "zero")
        values, expected = (np.array([value for _, value in r.per_token]) for r in (result, grid))
        assert np.abs(values - expected).max() <= 1e-12 * np.abs(expected).max()
        assert values[0] == -values[1] and abs(values[0]) > 1e-3 and result.score == result.baseline_score

    def test_closest_point_exactly_at_the_origin(self):
        # c = 2: Δ = b and alpha* = −1 exactly, so h⊥ = b − b is the zero vector.
        params, vocab, _ = self.model(2.0)
        bias = params.proj_bias
        assert np.array_equal(bias - (bias @ bias) / (bias @ bias) * bias, np.zeros(8))
        result = integrated_gradients(params, "f", "a", vocab, "toward_candidate", 8, "zero")
        assert result.completeness_residual <= 1e-15 and np.isfinite(result.total)


class TestExactCompleteness:
    """Attributions sum to the score change up to rounding, on every pair, direction and baseline."""

    def test_every_held_out_desk_pair(self, desk_model):
        params, vocab = desk_model.params, desk_model.vocab
        for record in desk_model.held_records:
            for candidate in (record.correct, record.incorrect):
                for direction in DIRECTIONS:
                    for baseline_kind in BASELINE_KINDS:
                        r = integrated_gradients(params, record.reference, candidate, vocab, direction, 64,
                                                 baseline_kind)
                        assert r.completeness_residual <= 1e-12 * max(abs(r.score - r.baseline_score), 1.0), r

    def test_midpoint_oracle_converges_on_a_hundred_desk_pairs(self, desk_model):
        for record in desk_model.held_records[:50]:
            for candidate in (record.correct, record.incorrect):
                for direction in DIRECTIONS:
                    _is_the_exact_integral(desk_model.params, desk_model.vocab, record.reference, candidate,
                                           direction, "zero")

    def test_wide_model(self, desk_model):
        vocab = desk_model.vocab
        params = random_params(np.random.default_rng(256), vocab.vocab_size, 256, 16, scale=0.1).freeze()
        params.hyper.max_len = desk_model.max_len
        for record in desk_model.held_records[:100]:
            for candidate in (record.correct, record.incorrect):
                for direction in DIRECTIONS:
                    r = integrated_gradients(params, record.reference, candidate, vocab, direction, 64, "zero")
                    assert r.completeness_residual <= 1e-12 * max(abs(r.score - r.baseline_score), 1.0), r


class TestAttributionGap:
    def test_identical_candidates_zero_gap(self, small_model):
        params, vocab = small_model
        pairs = [("the door is open", "the door is closed", "the door is closed")]
        mean_c, mean_i, gap = attribution_gap(params, pairs, vocab)
        assert gap == 0.0
        assert mean_c == mean_i

    def test_trained_model_widens_gap(self, desk_model):
        params, vocab = desk_model.params, desk_model.vocab
        # a fresh init has zero bias (degenerate zero baseline), so the
        # untrained comparison uses a random-parameter model instead
        untrained_params = random_params(
            np.random.default_rng(42), vocab.vocab_size, params.hyper.dim, params.hyper.n_ctx, scale=0.3
        )
        untrained_params.hyper.max_len = desk_model.max_len
        pairs = [
            (r.reference, r.correct, r.incorrect) for r in desk_model.held_records[:30]
        ]
        _, _, trained_gap = attribution_gap(params, pairs, vocab, steps=32)
        _, _, untrained_gap = attribution_gap(untrained_params, pairs, vocab, steps=32)
        assert abs(untrained_gap) < abs(trained_gap)
        assert trained_gap > 0

    def test_empty_pairs(self, small_model):
        params, vocab = small_model
        with pytest.raises(ValueError):
            attribution_gap(params, [], vocab)

    @pytest.mark.parametrize("baseline_kind", BASELINE_KINDS)
    @pytest.mark.parametrize("steps", [8, 64])
    def test_matches_per_candidate_loop(self, desk_model, steps, baseline_kind):
        pairs = [(r.reference, r.correct, r.incorrect) for r in desk_model.held_records[:20]]
        args = (desk_model.params, pairs, desk_model.vocab, steps, baseline_kind)
        assert attribution_gap(*args) == attribution_gap_loop(*args)


def test_result_serialization(small_model):
    params, vocab = small_model
    result = integrated_gradients(params, "the door is open", "not quite", vocab)
    doc = result.to_dict()
    assert set(doc) == {
        "direction", "per_token", "total", "completeness_residual",
        "steps", "score", "baseline_score",
    }
    assert isinstance(result, AttributionResult)


@pytest.mark.parametrize("baseline_kind", BASELINE_KINDS)
@pytest.mark.parametrize("direction", DIRECTIONS)
def test_to_dict_matches_field_by_field(desk_model, direction, baseline_kind):
    record = desk_model.held_records[0]
    result = integrated_gradients(desk_model.params, record.reference, record.incorrect, desk_model.vocab,
                                  direction, 16, baseline_kind)
    assert json.dumps(result.to_dict()) == json.dumps(attribution_result_dict(result))
