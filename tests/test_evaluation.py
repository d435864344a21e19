import json
import tracemalloc

import numpy as np
import pytest
from scipy.stats import wasserstein_distance as scipy_w1

import matcha.evaluation
from matcha.errors import MatchaError, SchemaError
from matcha.evaluation import (
    MetricRange,
    _lcs_length,
    ScoreTable,
    agreement_columns,
    ccc,
    dcg,
    evaluation_report,
    macro_f1_midpoint,
    n_delta,
    rank_at_1,
    rescale,
    rouge_l_f1,
    rouge_n_f1,
    rouge_table,
    separation_report,
    threshold_curve,
    wasserstein_1d,
)
from matcha.synthetic import make_synthetic_corpus
from oracles import (
    RowTable,
    ScoreRow,
    ccc_direct,
    columnar,
    dcg_table,
    evaluation_report_assembled,
    evaluation_report_rows,
    lcs_length_dp,
    macro_f1_confusion,
    paired_gaps_scalar,
    rank_at_1_table,
    rescale_scalar,
    rouge_l_f1_dp,
    rouge_n_f1_counter,
    rows_of,
    separation_report_rows,
    wasserstein_quantile_bruteforce,
)

COSINE = MetricRange("m", "cosine_like")
UNIT = MetricRange("m", "unit")
PERCENT = MetricRange("m", "percent")


class TestRescale:
    def test_cosine_endpoints(self):
        assert rescale(1.0, COSINE) == 1.0
        assert rescale(-1.0, COSINE) == 0.0

    def test_cosine_table_value(self):
        # mean correct score 71.14 on the x100 scale maps to 0.8557
        assert rescale(0.7114, COSINE) == pytest.approx(0.8557, abs=1e-12)

    def test_percent(self):
        assert rescale(50.0, PERCENT) == 0.5

    def test_unit_passthrough(self):
        assert rescale(0.37, UNIT) == 0.37

    def test_out_of_range_unclamped(self):
        assert rescale(-1.2, COSINE) == pytest.approx(-0.1)


    @pytest.mark.parametrize("metric_range", [COSINE, UNIT, PERCENT])
    def test_array_matches_scalar_bits(self, metric_range):
        scores = np.random.default_rng(3).normal(0, 50, 200)
        rescaled = rescale(scores, metric_range)
        assert isinstance(rescaled, np.ndarray) and isinstance(rescale(scores[0], metric_range), float)
        assert rescaled.tolist() == [rescale_scalar(float(x), metric_range) for x in scores]

    def test_rejects_empty_and_non_finite(self):
        for bad in ([], float("nan"), [0.1, float("inf")]):
            with pytest.raises(ValueError):
                rescale(bad, UNIT)


class TestNDelta:
    def test_wide_gap_means(self):
        correct = [0.7114 - 0.05, 0.7114 + 0.05]
        incorrect = [0.0124 - 0.02, 0.0124 + 0.02]
        assert n_delta(rescale(correct, COSINE), rescale(incorrect, COSINE)) == pytest.approx(34.95, abs=0.01)

    def test_identical_lists(self):
        values = [0.1, 0.5, 0.9]
        assert n_delta(rescale(values, COSINE), rescale(values, COSINE)) == 0.0

    def test_negative_incorrect_side(self):
        correct = [0.6477]
        incorrect = [-0.0976]
        assert n_delta(rescale(correct, COSINE), rescale(incorrect, COSINE)) == pytest.approx(37.27, abs=0.01)

    def test_empty_list(self):
        with pytest.raises(ValueError):
            n_delta(rescale([], COSINE), rescale([0.1], COSINE))

    def test_rescale_affinity(self):
        rng = np.random.default_rng(0)
        correct = rng.uniform(-1, 1, 40)
        incorrect = rng.uniform(-1, 1, 30)
        raw = n_delta(rescale(correct, COSINE), rescale(incorrect, COSINE))
        pre = n_delta(rescale((correct + 1) / 2, UNIT), rescale((incorrect + 1) / 2, UNIT))
        assert raw == pytest.approx(pre, abs=1e-9)


class TestMacroF1:
    def test_degenerate_all_positive(self):
        correct = [0.8, 0.9, 0.7, 0.6]
        incorrect = [0.8, 0.9, 0.7, 0.6]
        assert macro_f1_midpoint(rescale(correct, UNIT), rescale(incorrect, UNIT)) == pytest.approx(33.33, abs=0.01)

    def test_perfect_separation(self):
        assert macro_f1_midpoint(rescale([0.9, 0.8], UNIT), rescale([0.1, 0.2], UNIT)) == 100.0

    def test_hand_confusion_case(self):
        correct = [0.9, 0.8]
        incorrect = [0.1, 0.6]
        expected = (0.8 + 2 / 3) / 2 * 100
        assert macro_f1_midpoint(rescale(correct, UNIT), rescale(incorrect, UNIT)) == pytest.approx(expected, abs=1e-9)
        assert macro_f1_midpoint(rescale(correct, UNIT), rescale(incorrect, UNIT)) == pytest.approx(73.33, abs=0.01)

    def test_matches_confusion_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            correct = rng.uniform(0, 1, int(rng.integers(1, 30)))
            incorrect = rng.uniform(0, 1, int(rng.integers(1, 30)))
            assert macro_f1_midpoint(rescale(correct, UNIT), rescale(incorrect, UNIT)) == pytest.approx(
                macro_f1_confusion(correct, incorrect), abs=1e-12
            )


class TestThresholdCurve:
    def test_strict_inequality(self):
        curve = dict(threshold_curve([0.5, 0.5, 0.5], [0.4, 0.5]))
        assert curve[0.4] == 100.0
        assert curve[0.5] == 0.0

    def test_half(self):
        curve = dict(threshold_curve([0.2, 0.8], [0.5]))
        assert curve[0.5] == 50.0

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(2)
        gaps = rng.uniform(-0.5, 1.0, 200)
        for t, pct in threshold_curve(gaps):
            expected = 100.0 * sum(1 for g in gaps if g > t) / len(gaps)
            assert pct == pytest.approx(expected, abs=1e-12)

    def test_monotone_non_increasing(self):
        rng = np.random.default_rng(3)
        curve = threshold_curve(rng.uniform(0, 1, 100))
        values = [pct for _, pct in curve]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_default_grid(self):
        curve = threshold_curve([0.5])
        assert len(curve) == 21
        assert curve[0][0] == 0.0 and curve[-1][0] == 1.0

    def test_empty(self):
        with pytest.raises(ValueError):
            threshold_curve([])


class TestWasserstein:
    def test_identical(self):
        assert wasserstein_1d([0.2, 0.4, 0.9], [0.2, 0.4, 0.9]) == 0.0

    def test_unit_shift(self):
        assert wasserstein_1d([0, 1], [1, 2]) == pytest.approx(1.0)

    def test_unequal_sizes(self):
        assert wasserstein_1d([0], [0, 1]) == pytest.approx(0.5)

    def test_matches_bruteforce_and_scipy(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = rng.normal(0, 1, int(rng.integers(1, 40)))
            b = rng.normal(0.5, 2, int(rng.integers(1, 40)))
            ours = wasserstein_1d(a, b)
            assert ours == pytest.approx(wasserstein_quantile_bruteforce(a, b), abs=1e-9)
            assert ours == pytest.approx(scipy_w1(a, b), abs=1e-9)

    def test_dominance_identity(self):
        rng = np.random.default_rng(5)
        b = np.sort(rng.uniform(0, 1, 25))
        # right-edge rule: each a quantile clears every b quantile in its block
        n = 40
        a = np.array(
            [b[min(24, int(np.ceil(25 * i / n)) - 0)] + rng.uniform(0, 0.5) for i in range(1, n + 1)]
        )
        a = np.maximum.accumulate(a)
        assert wasserstein_1d(a, b) == pytest.approx(abs(a.mean() - b.mean()), abs=1e-9)

    def test_empty(self):
        with pytest.raises(ValueError):
            wasserstein_1d([], [1.0])


def agreement_table():
    # 4 rows, 3 metrics; human ratings on a 1..5 scale in dataset "d"
    rows = []
    data = [
        # (human, m1, m2, m3) with metric scores already in [0, 1]
        (5.0, 1.0, 0.8, 0.2),
        (1.0, 0.0, 0.5, 0.1),
        (3.0, 0.5, 0.5, 0.9),
        (4.0, 0.75, 0.7, 0.75),
    ]
    for i, (human, m1, m2, m3) in enumerate(data):
        rows.append(
            ScoreRow(
                id=f"r{i}",
                label="correct",
                dataset="d",
                scores={"m1": m1, "m2": m2, "m3": m3},
                human_score=human,
            )
        )
    return columnar(RowTable(rows=rows)), {"d": (1.0, 5.0)}


METRICS = [MetricRange("m1", "unit"), MetricRange("m2", "unit"), MetricRange("m3", "unit")]


class TestRankAt1:
    def test_exact_metric_wins_every_row(self):
        table, scales = agreement_table()
        result = rank_at_1(*agreement_columns(table, METRICS, scales))
        # m1 equals the rescaled human rating on every row
        assert result["m1"] == 100.0

    def test_enumeration_oracle(self):
        table, scales = agreement_table()
        result = rank_at_1(*agreement_columns(table, METRICS, scales))
        # row humans rescaled: 1.0, 0.0, 0.5, 0.75
        # row 0: diffs m1=0, m2=.2, m3=.8 -> m1
        # row 1: m1=0, m2=.5, m3=.1 -> m1
        # row 2: m1=0, m2=0, m3=.4 -> m1, m2 tie
        # row 3: m1=0, m2=.05, m3=0 -> m1, m3 tie
        assert result == {"m1": 100.0, "m2": 25.0, "m3": 25.0}

    def test_ties_award_all(self):
        row = ScoreRow(id="x", label="correct", scores={"a": 0.5, "b": 0.5}, human_score=0.5)
        table = columnar(RowTable(rows=[row]))
        result = rank_at_1(*agreement_columns(table, [MetricRange("a", "unit"), MetricRange("b", "unit")]))
        assert result == {"a": 100.0, "b": 100.0}

    def test_missing_human_is_error(self):
        table = columnar(RowTable(rows=[ScoreRow(id="x", label="correct", scores={"a": 0.5})]))
        with pytest.raises(MatchaError, match="human"):
            agreement_columns(table, [MetricRange("a", "unit")])


class TestDcg:
    def test_single_metric_scores_100(self):
        table, scales = agreement_table()
        result = dcg(*agreement_columns(table, [MetricRange("m1", "unit")], scales))
        assert result["m1"] == pytest.approx(100.0)

    def test_always_rank_1_of_9(self):
        rows = [
            ScoreRow(
                id="r0",
                label="correct",
                scores={"best": 0.5, **{f"x{i}": 0.9 for i in range(8)}},
                human_score=0.5,
            )
        ]
        metrics = [MetricRange("best", "unit")] + [MetricRange(f"x{i}", "unit") for i in range(8)]
        result = dcg(*agreement_columns(columnar(RowTable(rows=rows)), metrics))
        assert result["best"] == pytest.approx(100.0)

    def test_always_rank_9_of_9(self):
        rows = [
            ScoreRow(
                id="r0",
                label="correct",
                scores={"worst": 0.9, **{f"x{i}": 0.5 for i in range(8)}},
                human_score=0.5,
            )
        ]
        metrics = [MetricRange("worst", "unit")] + [MetricRange(f"x{i}", "unit") for i in range(8)]
        result = dcg(*agreement_columns(columnar(RowTable(rows=rows)), metrics))
        expected = 100.0 * (1 / 9) / np.log2(10)
        assert result["worst"] == pytest.approx(expected, abs=1e-6)
        assert result["worst"] == pytest.approx(3.34, abs=0.01)

    def test_tie_break_by_name(self):
        rows = [
            ScoreRow(id="r0", label="correct", scores={"a": 0.6, "b": 0.6}, human_score=0.5)
        ]
        metrics = [MetricRange("a", "unit"), MetricRange("b", "unit")]
        result = dcg(*agreement_columns(columnar(RowTable(rows=rows)), metrics))
        # "a" wins the tie: rank 1 -> 100; "b" rank 2 -> 100*(1/2)/log2(3)
        assert result["a"] == pytest.approx(100.0)
        assert result["b"] == pytest.approx(100.0 * 0.5 / np.log2(3))


class TestAgreementColumns:
    @pytest.mark.parametrize("seed", range(6))
    def test_rank_at_1_and_dcg_equal_table_oracles(self, seed):
        table = random_report_table(seed)
        if seed % 2:
            # Scores on a coarse grid, so metrics tie on many rows.
            for row in table.rows:
                row.scores = {name: round(value, 1) for name, value in row.scores.items()}
        rated = RowTable(rows=[r for r in table.rows if r.human_score is not None])
        metrics = [MetricRange("matcha", "cosine_like"), MetricRange("raw", "unit"), MetricRange("rouge1", "percent")]
        scales = {"a": (1.0, 5.0), "b": (0.0, 100.0)}
        columns, humans = agreement_columns(columnar(rated), metrics, scales)
        assert rank_at_1(columns, humans) == rank_at_1_table(rated, metrics, scales)
        assert dcg(columns, humans) == dcg_table(rated, metrics, scales)

    def test_missing_metric_score_is_error(self):
        table = columnar(RowTable(rows=[ScoreRow(id="x", label="correct", scores={"a": 0.5}, human_score=0.5)]))
        with pytest.raises(MatchaError, match=r"lacks scores for \['b'\]"):
            agreement_columns(table, [MetricRange("a", "unit"), MetricRange("b", "unit")])


class TestCcc:
    def test_perfect_agreement(self):
        x = [0.1, 0.5, 0.9]
        assert ccc(x, x) == pytest.approx(1.0)

    def test_constant_prediction(self):
        assert ccc([0.5, 0.5, 0.5], [0.1, 0.5, 0.9]) == 0.0

    def test_offset_sequence(self):
        assert ccc([1, 2, 3], [2, 3, 4]) == pytest.approx(4 / 7, abs=1e-12)
        assert ccc([1, 2, 3], [2, 3, 4]) == pytest.approx(0.5714, abs=1e-4)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 50))
            x = rng.normal(0, 1, n)
            y = 0.5 * x + rng.normal(0, 0.3, n)
            assert ccc(x, y) == pytest.approx(ccc_direct(x, y), abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ccc([1, 2], [1, 2, 3])

    def test_both_constant(self):
        with pytest.raises(ValueError):
            ccc([1, 1], [2, 2])

    @pytest.mark.parametrize("value", [0.7, 0.1, 1e-300])
    def test_both_constant_whatever_the_float_mean(self, value):
        # The mean of [0.7] * 3 is not 0.7, so its variance is not 0.0.
        with pytest.raises(ValueError, match="both inputs are constant"):
            ccc([value] * 3, [0.5] * 3)


class TestRouge:
    def test_identical_texts(self):
        assert rouge_n_f1("the cat sat", "the cat sat", 1) == 1.0
        assert rouge_n_f1("the cat sat", "the cat sat", 2) == 1.0
        assert rouge_l_f1("the cat sat", "the cat sat") == 1.0

    def test_hand_counted_unigram(self):
        # P = 2/2, R = 2/3 -> F1 = 0.8
        assert rouge_n_f1("the cat sat", "the cat", 1) == pytest.approx(0.8)

    def test_disjoint(self):
        assert rouge_n_f1("aa bb", "cc dd", 1) == 0.0
        assert rouge_l_f1("aa bb", "cc dd") == 0.0

    def test_bigram_hand_count(self):
        # ref bigrams: {the cat, cat sat}; cand bigrams: {the cat}
        assert rouge_n_f1("the cat sat", "the cat", 2) == pytest.approx(2 / 3)

    def test_lcs_hand_count(self):
        # LCS("a b c d", "a c") = 2 -> P = 1, R = 0.5, F1 = 2/3
        assert rouge_l_f1("a b c d", "a c") == pytest.approx(2 / 3)

    def test_empty_candidate(self):
        assert rouge_l_f1("a b", "") == 0.0
        assert rouge_n_f1("a b", "", 1) == 0.0

    def test_swap_exchanges_precision_recall_only(self):
        a, b = "the cat sat on the mat", "a cat sat quietly"
        assert rouge_n_f1(a, b, 1) == pytest.approx(rouge_n_f1(b, a, 1))
        assert rouge_l_f1(a, b) == pytest.approx(rouge_l_f1(b, a))

    def test_clipping(self):
        # "the the the" vs "the": overlap clipped to 1
        assert rouge_n_f1("the the the", "the", 1) == pytest.approx(2 * (1 / 1) * (1 / 3) / (1 + 1 / 3))

    def test_tokenization_lowercase_nonalnum(self):
        assert rouge_n_f1("The CAT!", "the cat", 1) == 1.0

    def test_short_text_has_no_bigrams(self):
        assert rouge_n_f1("word", "word word", 2) == 0.0

    def test_all_three_tokenize_each_text_once(self, monkeypatch):
        tokenized = []
        lex_tokens = matcha.evaluation._lex_tokens
        monkeypatch.setattr(matcha.evaluation, "_lex_tokens", lambda text: tokenized.append(text) or lex_tokens(text))
        ref, cand = "The cat sat on the mat, the cat!", "a cat sat on a mat quietly"
        # The reference recurs as a reference and as a candidate; it is still tokenized once.
        table = rouge_table([ref, ref, cand], [cand, ref, ref])
        assert sorted(tokenized) == sorted([ref, cand])
        monkeypatch.undo()
        for k, (r, c) in enumerate([(ref, cand), (ref, ref), (cand, ref)]):
            assert {name: column[k] for name, column in table.items()} == {
                "rouge1": rouge_n_f1(r, c, 1), "rouge2": rouge_n_f1(r, c, 2), "rougeL": rouge_l_f1(r, c)}

    def test_tokens_score_as_their_text(self):
        ref, cand = "The cat sat on the mat", "the CAT sat, quietly"
        ref_tokens, cand_tokens = matcha.evaluation._lex_tokens(ref), matcha.evaluation._lex_tokens(cand)
        for n in (1, 2, 3):
            assert rouge_n_f1(ref_tokens, cand_tokens, n) == rouge_n_f1(ref, cand, n)
        assert rouge_l_f1(ref_tokens, cand_tokens) == rouge_l_f1(ref, cand)


def _random_tokens(rng, n: int, alphabet: list[str]) -> list[str]:
    return [alphabet[int(i)] for i in rng.integers(0, len(alphabet), n)]


class TestRougeTable:
    """The batched table and the one-pair calls equal the Counter ROUGE-N and the DP ROUGE-L exactly."""

    # No lexical token, one token, repeats, punctuation only and non-ASCII.
    EDGE = ["", "!!!", "word", "Word word WORD", "a b a b a", "a, b; a b", "Über ça 日本 日本 ß", "ça",
            "the cat sat on the mat", "mat the on sat cat the", "_ 🙂 x1 x1"]

    def assert_table_matches_oracles(self, references, candidates):
        table = rouge_table(references, candidates)
        assert list(table) == ["rouge1", "rouge2", "rougeL"]
        for k, (ref, cand) in enumerate(zip(references, candidates)):
            expected = {"rouge1": rouge_n_f1_counter(ref, cand, 1), "rouge2": rouge_n_f1_counter(ref, cand, 2),
                        "rougeL": rouge_l_f1_dp(ref, cand)}
            got = {name: column[k] for name, column in table.items()}
            assert got == expected, (ref, cand)
            assert all(type(value) is float for value in got.values())
            for n in (1, 2, 3):
                value = rouge_n_f1(ref, cand, n)
                assert value == rouge_n_f1_counter(ref, cand, n) and type(value) is float, (ref, cand, n)

    def test_synthetic_corpus(self):
        records = make_synthetic_corpus(150, seed=8)
        # Every reference recurs, once against each of its candidates.
        references = [r.reference for r in records for _ in range(2)]
        candidates = [c for r in records for c in (r.correct, r.incorrect)]
        self.assert_table_matches_oracles(references, candidates)

    def test_every_ordered_pair_of_edge_texts(self):
        pairs = [(a, b) for a in self.EDGE for b in self.EDGE]
        with np.errstate(all="raise"):
            self.assert_table_matches_oracles([a for a, _ in pairs], [b for _, b in pairs])

    def test_random_texts_and_long_ngrams(self):
        rng = np.random.default_rng(11)
        words = ["The", "cat", "sat", "on", "mat", "Über", "café", "日本語", "x1", "a", "a", "a"]
        references = [" ".join(_random_tokens(rng, int(rng.integers(0, 40)), words)) for _ in range(150)]
        candidates = [", ".join(_random_tokens(rng, int(rng.integers(0, 40)), words)) for _ in range(150)]
        self.assert_table_matches_oracles(references, candidates)
        for ref, cand in zip(references[:40], candidates[:40]):
            ref_tokens, cand_tokens = ref.lower().split(), cand.lower().split(", ")
            for n in (4, 6):
                assert rouge_n_f1(ref, cand, n) == rouge_n_f1_counter(ref, cand, n)
                assert rouge_n_f1(ref_tokens, cand_tokens, n) == rouge_n_f1_counter(ref_tokens, cand_tokens, n)

    def test_empty_and_mismatched(self):
        assert rouge_table([], []) == {"rouge1": [], "rouge2": [], "rougeL": []}
        with pytest.raises(ValueError):
            rouge_table(["a"], ["a", "b"])


class TestBitParallelLcs:
    """The bit-vector LCS must equal the DP exactly, so ROUGE-L scores do too."""

    ALPHABETS = {
        "repeats": ["a", "b"],
        "words": [f"w{i}" for i in range(40)],
        "non_ascii": ["über", "日本", "ça", "🙂x", "ß", "a"],
    }

    @pytest.mark.parametrize("alphabet", sorted(ALPHABETS))
    @pytest.mark.parametrize("sizes", [(0, 0), (0, 5), (5, 0), (1, 1), (1, 7), (7, 1), (10, 12),
                                       (63, 64), (64, 65), (65, 130), (200, 90), (1100, 1030)])
    def test_matches_dp(self, alphabet, sizes):
        rng = np.random.default_rng(sum(sizes) + len(alphabet))
        tokens = self.ALPHABETS[alphabet]
        for _ in range(1 if max(sizes) > 1000 else 20):
            a = _random_tokens(rng, sizes[0], tokens)
            b = _random_tokens(rng, sizes[1], tokens)
            assert _lcs_length(a, b) == lcs_length_dp(a, b)

    def test_rouge_l_equals_dp_on_random_texts(self):
        rng = np.random.default_rng(3)
        words = ["The", "cat", "sat", "on", "mat", "Über", "café", "日本語", "x1", "a", "a", "a"]
        for _ in range(300):
            ref = " ".join(_random_tokens(rng, int(rng.integers(0, 90)), words))
            cand = ", ".join(_random_tokens(rng, int(rng.integers(0, 90)), words))
            assert rouge_l_f1(ref, cand) == rouge_l_f1_dp(ref, cand), (ref, cand)


def build_pair_table(correct_scores, incorrect_scores, metric="m"):
    rows = []
    for i, (c, inc) in enumerate(zip(correct_scores, incorrect_scores)):
        rows.append(ScoreRow(id=f"p{i}", label="correct", scores={metric: c}))
        rows.append(ScoreRow(id=f"p{i}", label="incorrect", scores={metric: inc}))
    return RowTable(rows=rows)


class TestSeparationReport:
    def test_single_pair_equal_scores(self):
        table = columnar(build_pair_table([0.4], [0.4]))
        report = separation_report(table, "m", UNIT)
        assert report.n_delta == 0.0
        assert report.wasserstein == 0.0

    def test_each_side_is_rescaled_once(self, monkeypatch):
        # Once per side for the statistics and once per side for the paired gaps.
        calls = []
        scaled = matcha.evaluation.rescale
        monkeypatch.setattr(matcha.evaluation, "rescale",
                            lambda scores, metric_range: calls.append(len(scores)) or scaled(scores, metric_range))
        rows = build_pair_table([0.9, 0.1, 0.7], [0.2, 0.3, -0.4])
        report = separation_report(columnar(rows), "m", COSINE)
        assert calls == [3, 3, 3, 3]
        assert json.dumps(report.to_dict()) == json.dumps(separation_report_rows(rows, "m", COSINE).to_dict())

    def test_synthetic_field_by_field(self):
        rng = np.random.default_rng(7)
        correct = rng.uniform(0.4, 1.0, 30)
        incorrect = rng.uniform(-0.2, 0.5, 30)
        table = columnar(build_pair_table(correct, incorrect))
        report = separation_report(table, "m", COSINE)
        assert report.pairs == 30
        assert report.mean_correct == pytest.approx(correct.mean() * 100)
        assert report.mean_incorrect == pytest.approx(incorrect.mean() * 100)
        assert report.n_delta == pytest.approx(n_delta(rescale(correct, COSINE), rescale(incorrect, COSINE)))
        assert report.macro_f1 == pytest.approx(
            macro_f1_confusion((correct + 1) / 2, (incorrect + 1) / 2)
        )
        assert report.wasserstein == pytest.approx(
            wasserstein_quantile_bruteforce((correct + 1) / 2, (incorrect + 1) / 2) * 100,
            abs=1e-9,
        )
        gaps = (correct - incorrect) / 2
        for t, pct in report.threshold_curve:
            assert pct == pytest.approx(100.0 * np.count_nonzero(gaps > t) / 30, abs=1e-12)

    def test_table_convention_engineered_means(self):
        # Engineered per-pair scores: exact means (0.7114, 0.0124) under CDF
        # dominance, so the mean gap and the distribution distance coincide.
        spread = np.linspace(-0.05, 0.05, 20)
        correct = 0.7114 + spread
        incorrect = 0.0124 + spread
        report = separation_report(columnar(build_pair_table(correct, incorrect)), "m", COSINE)
        assert report.mean_correct == pytest.approx(71.14, abs=1e-6)
        assert report.mean_incorrect == pytest.approx(1.24, abs=1e-6)
        assert report.n_delta == pytest.approx(34.95, abs=0.01)
        assert report.wasserstein == pytest.approx(34.95, abs=0.01)
        assert report.wasserstein == pytest.approx(report.n_delta, abs=1e-9)

    def test_missing_side_is_error(self):
        table = columnar(RowTable(rows=[ScoreRow(id="x", label="correct", scores={"m": 0.5})]))
        with pytest.raises(ValueError):
            separation_report(table, "m", UNIT)


def random_report_table(seed: int) -> RowTable:
    """Two datasets of random rows: "a" has both labels, "b" only correct ones.

    Correct rows carry human ratings on each dataset's scale; the external
    metric "ext" is missing from some rows of either label; ids repeat
    across datasets, and some ids lack their incorrect row.
    """
    rng = np.random.default_rng(seed)
    scales = {"a": (1.0, 5.0), "b": (0.0, 100.0)}
    rows = []
    for dataset, labels in (("a", ("correct", "incorrect")), ("b", ("correct",))):
        lo, hi = scales[dataset]
        for i in range(int(rng.integers(8, 30))):
            for label in labels:
                if label == "incorrect" and rng.random() < 0.2:
                    continue
                scores = {
                    "matcha": float(rng.uniform(-1, 1)),
                    "rouge1": float(rng.random()),
                    "raw": float(rng.normal(0.5, 0.3)),
                }
                if rng.random() < 0.8:
                    scores["ext"] = float(rng.uniform(0, 100))
                human = float(rng.uniform(lo, hi)) if label == "correct" else None
                rows.append(ScoreRow(id=f"r{i}", label=label, dataset=dataset, scores=scores, human_score=human))
    return RowTable(rows=rows)


class TestEvaluationReport:
    # A declared range overrides the default one of rouge1.
    RANGES = {"ext": MetricRange("ext", "percent"), "rouge1": MetricRange("rouge1", "cosine_like")}
    SCALES = {"a": (1.0, 5.0), "b": (0.0, 100.0)}

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_assembled_oracle(self, seed):
        table = random_report_table(seed)
        report = evaluation_report(columnar(table), self.RANGES, self.SCALES)
        assert report == evaluation_report_assembled(table, self.RANGES, self.SCALES)
        # "b" has no incorrect rows; "ext" is missing from some rated rows.
        assert set(report["separation"]) == {"a"}
        assert set(report["separation"]["a"]) == {"ext", "matcha", "raw", "rouge1"}
        for statistic in ("rank_at_1", "dcg", "ccc"):
            assert set(report["agreement"][statistic]) == {"matcha", "raw", "rouge1"}

    def test_metric_scored_on_every_rated_row_joins_agreement(self):
        table = random_report_table(11)
        for row in table.rows:
            if row.human_score is not None:
                row.scores.setdefault("ext", 50.0)
        report = evaluation_report(columnar(table), self.RANGES, self.SCALES)
        assert report == evaluation_report_assembled(table, self.RANGES, self.SCALES)
        assert "ext" in report["agreement"]["ccc"]

    @pytest.mark.parametrize("human, constant, varying", [
        ([0.5], [0.7], [0.2]),
        ([0.5, 0.5, 0.5], [0.25, 0.25, 0.25], [0.1, 0.4, 0.9]),
        ([0.5, 0.5, 0.5], [0.7, 0.7, 0.7], [0.1, 0.4, 0.9]),
    ], ids=["one-rated-row", "constant-on-constant", "constant-whose-mean-is-off-by-an-ulp"])
    def test_undefined_ccc_is_none(self, human, constant, varying):
        n = len(human)
        table = ScoreTable([f"r{k}" for k in range(n)], ["d"] * n, [True] * n, human=human,
                           scores={"c": constant, "v": varying})
        agreement = evaluation_report(table)["agreement"]
        columns, humans = agreement_columns(table, [MetricRange("c"), MetricRange("v")])
        assert agreement["rank_at_1"] == rank_at_1(columns, humans)
        assert agreement["dcg"] == dcg(columns, humans)
        assert agreement["ccc"] == {"c": None, "v": None if n == 1 else 0.0}
        with pytest.raises(ValueError):
            ccc(constant, human)

    def test_no_ratings_no_agreement(self):
        table = build_pair_table([0.9, 0.8], [0.1, 0.3])
        report = evaluation_report(columnar(table))
        assert report == evaluation_report_assembled(table, {}, {})
        assert report["agreement"] == {} and set(report["separation"][""]) == {"m"}

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("metric_range", [COSINE, UNIT, PERCENT])
    def test_paired_gaps_equal_scalar_oracle(self, seed, metric_range):
        # Duplicated keys put a pair at its first correct row and give it each side's last score.
        for table in (random_report_table(seed), with_duplicates(random_report_table(seed), seed)):
            for metric in ("matcha", "ext", "absent"):
                gaps = columnar(table).paired_gaps(metric, metric_range)
                assert gaps.tolist() == paired_gaps_scalar(table, metric, metric_range)


def with_duplicates(table: RowTable, seed: int) -> RowTable:
    """`table` plus a second row for every other (dataset, id, label), with other scores
    (some metrics dropped) and another rating, each inserted at a random place."""
    rng = np.random.default_rng(seed)
    rows = list(table.rows)
    for row in table.rows[::2]:
        scores = {name: value + float(rng.normal(0, 0.2)) for name, value in row.scores.items() if rng.random() < 0.8}
        human = None if row.human_score is None else row.human_score + float(rng.random())
        rows.insert(int(rng.integers(len(rows) + 1)), ScoreRow(row.id, row.label, row.dataset, scores, human))
    return RowTable(rows=rows)


class TestScoreTable:
    def test_extend_marks_a_metric_absent_where_one_side_lacks_it(self):
        table = ScoreTable(["a"], ["d"], [True], scores={"x": [0.1]})
        table.extend(ScoreTable(["b"], ["e"], [False], human=[float("nan")], scores={"y": [0.2]}))
        rows = rows_of(table)
        assert rows[0] == ScoreRow("a", "correct", "d", {"x": 0.1})
        assert (rows[1].id, rows[1].label, rows[1].scores) == ("b", "incorrect", {"y": 0.2})
        assert np.isnan(rows[1].human_score) and table.rated.tolist() == [False, True]

    def test_ragged_columns_and_masks_of_unscored_metrics_raise(self):
        with pytest.raises(ValueError, match="shape"):
            ScoreTable(["a", "b"], ["d"], [True, False])
        with pytest.raises(ValueError, match="shape"):
            ScoreTable(["a"], ["d"], [True], scores={"x": [0.1, 0.2]})
        with pytest.raises(ValueError, match="unscored"):
            ScoreTable(["a"], ["d"], [True], scores={"x": [0.1]}, present={"y": [True]})

    def test_labeled_scores_follow_the_label_and_mask(self):
        table = ScoreTable(["a", "a", "b"], ["d"] * 3, [True, False, True], scores={"x": [0.1, 0.2, 0.3]},
                           present={"x": [True, True, False]})
        assert table.labeled_scores("x", "correct").tolist() == [0.1]
        assert table.labeled_scores("x", "incorrect").tolist() == [0.2]
        assert table.labeled_scores("x", "maybe").size == table.labeled_scores("y", "correct").size == 0

    def test_ids_and_datasets_are_read_only(self):
        table = ScoreTable(["a"], ["d"], [True])
        with pytest.raises(ValueError):
            table.ids[0] = "b"


class TestColumnarReport:
    """The columnar report writes the JSON of the row-based report it replaced."""

    RANGES = {"ext": MetricRange("ext", "percent"), "rouge1": MetricRange("rouge1", "cosine_like")}
    SCALES = {"a": (1.0, 5.0), "b": (0.0, 100.0)}

    def assert_same_json(self, table: RowTable, ours: ScoreTable | None = None) -> dict:
        report = evaluation_report(columnar(table) if ours is None else ours, self.RANGES, self.SCALES)
        assert json.dumps(report) == json.dumps(evaluation_report_rows(table, self.RANGES, self.SCALES))
        return report

    @pytest.mark.parametrize("seed", range(20))
    def test_random_tables(self, seed):
        table = random_report_table(seed)
        if seed % 2:
            # Scores on a coarse grid: metrics tie on many rows and gaps fall on thresholds.
            for row in table.rows:
                row.scores = {name: round(value, 1) for name, value in row.scores.items()}
        self.assert_same_json(table)

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicate_rows(self, seed):
        self.assert_same_json(with_duplicates(random_report_table(seed), seed))

    def test_nan_human_score_is_a_rating(self):
        table = random_report_table(5)
        [r for r in table.rows if r.human_score is not None][1].human_score = float("nan")
        report = self.assert_same_json(table)
        assert all(np.isnan(value) for value in report["agreement"]["ccc"].values())

    def test_non_finite_score_raises(self):
        table = random_report_table(6)
        table.rows[0].scores["matcha"] = float("inf")
        for report, tab in ((evaluation_report, columnar(table)), (evaluation_report_rows, table)):
            with pytest.raises(ValueError, match="scores must be finite"):
                report(tab, self.RANGES, self.SCALES)

    @pytest.mark.parametrize("seed", range(3))
    def test_merge_external_new_and_existing_keys(self, tmp_path, seed):
        table = with_duplicates(random_report_table(seed), seed)
        rng = np.random.default_rng(seed)
        path = tmp_path / "ext.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for _ in range(300):
                # Dataset "c" and ids from r30 up are new; every other key exists.
                row = {"id": f"r{rng.integers(36)}", "metric": ("ext", "matcha", "bert")[rng.integers(3)],
                       "score": round(float(rng.uniform(-1, 1)), 3), "label": ("correct", "incorrect")[rng.integers(2)],
                       "dataset": "abc"[rng.integers(3)]}
                fh.write(json.dumps(row) + "\n")
            fh.write('{"id": "r1", "metric": "bert", "score": 1}\n')  # label and dataset by default
        ours = columnar(table)
        ours.merge_external(str(path))
        table.merge_external(str(path))
        assert rows_of(ours) == table.rows
        self.assert_same_json(table, ours)


class TestMergeExternal:
    def test_merges_by_id_and_label(self, tmp_path):
        table = columnar(build_pair_table([0.9], [0.1]))
        path = tmp_path / "ext.jsonl"
        path.write_text(
            '{"id": "p0", "metric": "bert", "score": 0.8}\n'
            '{"id": "p0", "metric": "bert", "score": 0.7, "label": "incorrect"}\n',
            encoding="utf-8",
        )
        table.merge_external(str(path))
        correct = [r for r in rows_of(table) if r.label == "correct"][0]
        incorrect = [r for r in rows_of(table) if r.label == "incorrect"][0]
        assert correct.scores["bert"] == 0.8
        assert incorrect.scores["bert"] == 0.7

    def test_new_rows_created_for_unknown_ids(self, tmp_path):
        table = ScoreTable()
        path = tmp_path / "ext.jsonl"
        path.write_text('{"id": "z", "metric": "x", "score": 0.5}\n', encoding="utf-8")
        table.merge_external(str(path))
        assert len(table) == 1
        assert rows_of(table)[0].scores == {"x": 0.5}

    def test_integer_score_accepted(self, tmp_path):
        table = ScoreTable()
        path = tmp_path / "ext.jsonl"
        path.write_text('{"id": "z", "metric": "x", "score": 1, "label": "incorrect"}\n', encoding="utf-8")
        table.merge_external(str(path))
        assert rows_of(table)[0].scores == {"x": 1.0} and rows_of(table)[0].label == "incorrect"

    @pytest.mark.parametrize("field, value", [
        ("score", "[1]"), ("score", '"x"'), ("score", "NaN"), ("score", "Infinity"),
        ("score", "1e400"), ("score", "1" + "0" * 400), ("score", "true"), ("score", "null"),
        ("label", '"maybe"'), ("label", "1"), ("dataset", "[1]"),
        ("metric", '"x\\ud800"'), ("dataset", '"\\udc80d"'), ("id", '"z\\ud800"'),
    ])
    def test_bad_row_names_file_and_line(self, tmp_path, field, value):
        row = {"id": '"z"', "metric": '"x"', "score": "0.5", field: value}
        path = tmp_path / "ext.jsonl"
        path.write_text(
            '{"id": "y", "metric": "x", "score": 0.1}\n'
            + "{" + ", ".join(f'"{k}": {v}' for k, v in row.items()) + "}\n",
            encoding="utf-8",
        )
        with pytest.raises(SchemaError, match=rf"ext\.jsonl: line 2: '{field}'"):
            ScoreTable().merge_external(str(path))

    def test_non_utf8_names_byte_offset(self, tmp_path):
        path = tmp_path / "ext.jsonl"
        path.write_bytes(b'{"id": "y", "metric": "x", "score": 0.1}\n{"id": "\xff"}\n')
        table = ScoreTable()
        with pytest.raises(SchemaError, match=r"ext\.jsonl: line 2: not UTF-8 at byte 49"):
            table.merge_external(str(path))
        assert [(r.id, r.scores) for r in rows_of(table)] == [("y", {"x": 0.1})]  # the line before stays merged

    def test_crlf_and_lone_cr_end_lines(self, tmp_path):
        path = tmp_path / "ext.jsonl"
        path.write_bytes(
            b'{"id": "a", "metric": "x", "score": 0.1}\r\n{"id": "b", "metric": "x", "score": 0.2}\r'
            b'\r\n{"id": "c", "metric": "x", "score": 0.3}\n{"id": \n'
        )
        table = ScoreTable()
        with pytest.raises(SchemaError, match=r"ext\.jsonl: line 5: invalid JSON"):
            table.merge_external(str(path))
        assert [(r.id, r.scores) for r in rows_of(table)] == [("a", {"x": 0.1}), ("b", {"x": 0.2}), ("c", {"x": 0.3})]

    def test_reads_the_file_line_by_line(self, tmp_path):
        # About 1 MB of scores, five metrics per candidate as an external
        # scorer writes them.  What the merge allocates and drops again (its
        # peak over what it keeps) must stay well below the file's size.
        metrics = ("bleu", "chrf", "bertscore", "bleurt", "comet")
        path = tmp_path / "ext.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(1000):
                for label in ("correct", "incorrect"):
                    for k, metric in enumerate(metrics):
                        row = {"id": f"item-{i:05d}", "metric": metric, "score": (i * 7919 + k) % 1000 / 1000,
                               "label": label, "dataset": "eval"}
                        fh.write(json.dumps(row) + "\n")
        size = path.stat().st_size
        assert 0.9e6 < size < 1.2e6
        table = columnar(RowTable(rows=[ScoreRow(id=f"item-{i:05d}", label=label, dataset="eval")
                                        for i in range(1000) for label in ("correct", "incorrect")]))
        tracemalloc.start()
        try:
            table.merge_external(str(path))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(len(row.scores) == len(metrics) for row in rows_of(table)) and len(table) == 2000
        assert peak - held < 0.25 * size, (peak - held) / size
