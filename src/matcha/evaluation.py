"""Separation and human-agreement statistics, plus lexical overlap baselines.

Scores sit in a columnar `ScoreTable`: per row an id, a dataset, a label
and a human rating, and per metric one float array with its own presence
mask, so every statistic is a mask or index operation over arrays.  Scores
enter on each metric's native scale and are mapped to [0, 1] for the
statistics that need a common footing.  Table-style outputs follow the x100
reporting convention throughout.
"""

from __future__ import annotations

import json
import re
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import MatchaError, SchemaError, is_number, read_jsonl, refuse_lone_surrogate

RANGE_KINDS = ("cosine_like", "unit", "percent")
DEFAULT_THRESHOLD_GRID = [round(t, 2) for t in np.linspace(0.0, 1.0, 21)]


@dataclass(frozen=True)
class MetricRange:
    """Native scale of a metric; fixes the affine map onto [0, 1]."""

    name: str
    kind: str = "unit"

    def __post_init__(self) -> None:
        if self.kind not in RANGE_KINDS:
            raise ValueError(f"kind must be one of {RANGE_KINDS}, got {self.kind!r}")


# Ranges of the metrics `matcha evaluate` computes itself; any other metric is "unit" unless declared.
DEFAULT_RANGES = {
    "matcha": MetricRange("matcha", "cosine_like"),
    "rouge1": MetricRange("rouge1", "unit"),
    "rouge2": MetricRange("rouge2", "unit"),
    "rougeL": MetricRange("rougeL", "unit"),
}


def rescale(scores, metric_range: MetricRange):
    """Affine map onto [0, 1] of one score (a float back) or of a sequence of
    scores (an array back); out-of-range values pass through unclamped."""
    values = np.asarray(scores, dtype=np.float64)
    if values.size == 0:
        raise ValueError("score list must be non-empty")
    if not np.isfinite(values).all():
        raise ValueError("scores must be finite")
    if metric_range.kind == "cosine_like":
        values = (values + 1.0) / 2.0
    elif metric_range.kind == "percent":
        values = values / 100.0
    return float(values) if values.ndim == 0 else values


# Columns that hold one entry per row, in constructor order.
_ROW_COLUMNS = ("ids", "datasets", "correct", "human", "rated")


@dataclass(eq=False)
class ScoreTable:
    """Scores of labeled (reference, candidate) pairs, one array per column.

    Row k holds the candidate of pair `ids[k]` in dataset `datasets[k]`, the
    correct one where `correct[k]`.  `human[k]` counts only where `rated[k]`,
    and `scores[metric][k]` only where `present[metric][k]`: absence is a
    mask, so a NaN human score is still a rating and a non-finite metric
    score still fails the statistics.  Left out, `rated` is true on every row
    when `human` is given and false when it is not, and a metric's mask is
    true on every row.  The constructor copies each column and makes `ids`
    and `datasets` read-only.
    """

    ids: np.ndarray = ()
    datasets: np.ndarray = ()
    correct: np.ndarray = ()
    human: np.ndarray | None = None
    rated: np.ndarray | None = None
    scores: dict[str, np.ndarray] = field(default_factory=dict)
    present: dict[str, np.ndarray] = field(default_factory=dict)
    _pairs: tuple | None = field(default=None, init=False, repr=False)  # (ids, datasets, codes)

    def __post_init__(self) -> None:
        n = len(self.ids)
        self.ids, self.datasets = np.array(self.ids, dtype=object), np.array(self.datasets, dtype=object)
        self.ids.flags.writeable = self.datasets.flags.writeable = False
        self.correct = np.array(self.correct, dtype=bool)
        self.rated = np.full(n, self.human is not None) if self.rated is None else np.array(self.rated, dtype=bool)
        self.human = np.zeros(n) if self.human is None else np.array(self.human, dtype=np.float64)
        if self.present.keys() - self.scores.keys():
            raise ValueError(f"masks for unscored metrics {sorted(self.present.keys() - self.scores.keys())}")
        self.present = {m: np.array(self.present[m], dtype=bool) if m in self.present else np.ones(n, dtype=bool)
                        for m in self.scores}
        self.scores = {m: np.array(column, dtype=np.float64) for m, column in self.scores.items()}
        for column in (*(getattr(self, name) for name in _ROW_COLUMNS), *self.scores.values(), *self.present.values()):
            if column.shape != (n,):
                raise ValueError(f"a column of shape {column.shape} in a table of {n} rows")

    def __len__(self) -> int:
        return self.ids.size

    def take(self, rows) -> ScoreTable:
        """The table of `rows`, a boolean mask or row indices."""
        return ScoreTable(*(getattr(self, name)[rows] for name in _ROW_COLUMNS),
                          *({m: column[rows] for m, column in d.items()} for d in (self.scores, self.present)))

    def extend(self, other: ScoreTable) -> None:
        """Append the rows of `other`; a metric one side lacks is absent on that side's rows."""
        names, both = dict.fromkeys([*self.scores, *other.scores]), (self, other)
        absent = {t: (np.zeros(len(t)), np.zeros(len(t), dtype=bool)) for t in both}
        self.__init__(*(np.concatenate([getattr(t, name) for t in both]) for name in _ROW_COLUMNS),
                      {m: np.concatenate([t.scores.get(m, absent[t][0]) for t in both]) for m in names},
                      {m: np.concatenate([t.present.get(m, absent[t][1]) for t in both]) for m in names})

    def _pair_codes(self) -> np.ndarray:
        """Per row, the index of the last row of its (dataset, id); kept while `ids` and `datasets` are."""
        if self._pairs is None or self._pairs[0] is not self.ids or self._pairs[1] is not self.datasets:
            keys = list(zip(self.datasets.tolist(), self.ids.tolist()))
            last = dict(zip(keys, range(len(keys))))
            self._pairs = (self.ids, self.datasets, np.fromiter(map(last.__getitem__, keys), np.int64, len(keys)))
        return self._pairs[2]

    def labeled_scores(self, metric: str, label: str) -> np.ndarray:
        """`metric`'s scores on the rows labeled `label` ("correct" or "incorrect"), in row order."""
        if metric not in self.scores or label not in ("correct", "incorrect"):
            return np.empty(0)
        return self.scores[metric][self.present[metric] & (self.correct == (label == "correct"))]

    def paired_gaps(self, metric: str, metric_range: MetricRange) -> np.ndarray:
        """Rescaled correct-minus-incorrect gap for every (dataset, id) scored on both labels.

        As if each label's scores were written into a dict keyed by (dataset,
        id) in row order: a key sits where its first correct row is, and each
        label gives the last score written.
        """
        if metric not in self.scores:
            return np.empty(0)
        codes, n, has = self._pair_codes(), len(self), self.present[metric]
        correct_rows, incorrect_rows = np.flatnonzero(has & self.correct), np.flatnonzero(has & ~self.correct)
        first, last_correct, last_incorrect = np.full(n, n), np.full(n, -1), np.full(n, -1)
        np.minimum.at(first, codes[correct_rows], correct_rows)
        np.maximum.at(last_correct, codes[correct_rows], correct_rows)
        np.maximum.at(last_incorrect, codes[incorrect_rows], incorrect_rows)
        both = np.flatnonzero((last_correct >= 0) & (last_incorrect >= 0))
        if not both.size:
            return np.empty(0)
        both = both[np.argsort(first[both])]
        column = self.scores[metric]
        return rescale(column[last_correct[both]], metric_range) - rescale(column[last_incorrect[both]], metric_range)

    def merge_external(self, path: str) -> None:
        """Merge a JSONL of {"id", "metric", "score"} rows (optional "label", "dataset").

        A score goes to the last row of its (dataset, id, label), else to a
        new row appended in file order; a later line for the same row and
        metric wins.  Lines read before a bad one stay merged.
        """
        n, index = len(self), {}  # (dataset, correct) -> {id: row}
        for row, key in enumerate(zip(self.datasets.tolist(), self.correct.tolist(), self.ids.tolist())):
            index.setdefault(key[:2], {})[key[2]] = row
        added = ([], [], [])  # ids, datasets and labels of the rows from n on
        pending: dict[str, tuple[array, array]] = {}  # metric -> (row - n, score) per line for a new row
        try:
            for lineno, obj in read_jsonl(path, SchemaError):
                if not isinstance(obj, dict) or "id" not in obj or "metric" not in obj or "score" not in obj:
                    raise SchemaError(f"{path}: line {lineno}: need 'id', 'metric', 'score'")
                score = obj["score"]
                if not is_number(score):
                    raise SchemaError(
                        f"{path}: line {lineno}: 'score' must be a finite number, got {json.dumps(score)}"
                    )
                label = obj.get("label", "correct")
                if label not in ("correct", "incorrect"):
                    raise SchemaError(
                        f"{path}: line {lineno}: 'label' must be 'correct' or 'incorrect', got {json.dumps(label)}"
                    )
                dataset = obj.get("dataset", "")
                if not isinstance(dataset, str):
                    raise SchemaError(f"{path}: line {lineno}: 'dataset' must be a string, got {json.dumps(dataset)}")
                key, metric = (str(obj["id"]), dataset, label == "correct"), str(obj["metric"])
                for name, value in (("id", key[0]), ("dataset", dataset), ("metric", metric)):
                    refuse_lone_surrogate(value, f"{path}: line {lineno}", name)
                row = index.setdefault(key[1:], {}).setdefault(key[0], n + len(added[0]))
                if row == n + len(added[0]):
                    for column, value in zip(added, key):
                        column.append(value)
                if row < n:
                    self._set(row, metric, float(score))
                else:
                    rows, scores = pending.setdefault(metric, (array("q"), array("d")))
                    rows.append(row - n)
                    scores.append(float(score))
        finally:
            if added[0]:
                new = ScoreTable(*added)
                for metric, (rows, scores) in pending.items():
                    for row, score in zip(rows, scores):
                        new._set(row, metric, score)
                self.extend(new)

    def _set(self, row: int, metric: str, score: float) -> None:
        """Write one score, adding `metric` absent from every row if the table has no such column."""
        if metric not in self.scores:
            self.scores[metric], self.present[metric] = np.zeros(len(self)), np.zeros(len(self), dtype=bool)
        self.scores[metric][row], self.present[metric][row] = score, True


def n_delta(correct, incorrect) -> float:
    """Mean correct score minus mean incorrect score, x100, of scores already rescaled onto [0, 1]."""
    return float((np.mean(correct) - np.mean(incorrect)) * 100.0)


def _f1(tp: int, fp: int, fn: int) -> float:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def macro_f1_midpoint(correct, incorrect) -> float:
    """Macro-F1 of the fixed classifier "positive iff rescaled score > 0.5", x100.

    Takes scores already rescaled onto [0, 1].  Correct-candidate scores are
    the positive instances, incorrect ones the negative instances; a class
    with empty precision+recall scores 0.
    """
    pos = np.asarray(correct) > 0.5
    neg = np.asarray(incorrect) > 0.5
    tp, fn = int(pos.sum()), int((~pos).sum())
    fp, tn = int(neg.sum()), int((~neg).sum())
    f1_positive = _f1(tp, fp, fn)
    f1_negative = _f1(tn, fn, fp)
    return (f1_positive + f1_negative) / 2.0 * 100.0


def threshold_curve(pair_gaps, grid=None) -> list[tuple[float, float]]:
    """Percentage of pairs whose rescaled gap strictly exceeds each threshold."""
    gaps = np.asarray(pair_gaps, dtype=np.float64)
    if gaps.size == 0:
        raise ValueError("pair gap list must be non-empty")
    grid = np.asarray(DEFAULT_THRESHOLD_GRID if grid is None else grid, dtype=np.float64)
    counts = np.count_nonzero(gaps > grid[:, None], axis=1)
    return list(zip(grid.tolist(), (100.0 * counts / gaps.size).tolist()))


def wasserstein_1d(a, b) -> float:
    """First Wasserstein distance between two empirical distributions.

    Computed as the area between the empirical CDFs over the merged support;
    for equal sizes this reduces to the mean absolute gap of sorted samples.
    """
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    points = np.concatenate([a, b])
    points.sort(kind="mergesort")
    deltas = np.diff(points)
    cdf_a = np.searchsorted(a, points[:-1], side="right") / a.size
    cdf_b = np.searchsorted(b, points[:-1], side="right") / b.size
    return float(np.sum(np.abs(cdf_a - cdf_b) * deltas))


def agreement_columns(
    table: ScoreTable, metrics: list[MetricRange], rating_scales: dict | None = None
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Each metric's rescaled scores and the rescaled human scores, one entry per row, validated.

    The first row that is unrated or lacks a metric's score raises MatchaError.
    """
    if not metrics:
        raise ValueError("metrics list must be non-empty")
    if not len(table):
        raise ValueError("score table is empty")
    missing = np.array([~table.present[m.name] if m.name in table.present else np.ones(len(table), dtype=bool)
                        for m in metrics])
    faulty = ~table.rated | missing.any(axis=0)
    if faulty.any():
        row = int(faulty.argmax())
        name = table.ids[row]
        if not table.rated[row]:
            raise MatchaError(f"row {name!r} ({'correct' if table.correct[row] else 'incorrect'}) has no human score")
        raise MatchaError(f"row {name!r} lacks scores for {[m.name for m, miss in zip(metrics, missing) if miss[row]]}")
    lo, hi = np.zeros(len(table)), np.ones(len(table))
    for dataset, (low, high) in (rating_scales or {}).items():
        rows = table.datasets == dataset
        lo[rows], hi[rows] = low, high
    columns = {m.name: rescale(table.scores[m.name], m) for m in metrics}
    return columns, (table.human - lo) / (hi - lo)


def rank_at_1(columns: dict[str, np.ndarray], humans: np.ndarray) -> dict[str, float]:
    """Percentage of rows on which each metric is (tied-)closest to the human rating."""
    diffs = np.abs(np.array(list(columns.values())) - np.array(humans))
    wins = np.count_nonzero(diffs == diffs.min(axis=0), axis=1)
    return {name: 100.0 * int(count) / len(humans) for name, count in zip(columns, wins)}


def dcg(columns: dict[str, np.ndarray], humans: np.ndarray) -> dict[str, float]:
    """Average rank-discounted closeness-to-human credit per metric.

    Metrics are ranked per row by absolute distance to the human rating
    (ties broken by name); rank r of M earns 100 * (M - r + 1) / (M * log2(r + 1)).
    """
    m_count = len(columns)
    credits = np.array([100.0 * (m_count - rank + 1) / (m_count * np.log2(rank + 1)) for rank in range(1, m_count + 1)])
    names = sorted(columns)
    # A stable sort over the name-sorted metrics breaks distance ties by name.
    order = np.argsort(np.abs(np.array([columns[name] for name in names]) - np.array(humans)), axis=0, kind="stable")
    earned = np.empty(order.shape)
    earned[order, np.arange(len(humans))] = credits[:, None]
    # cumsum adds in row order, unlike sum's pairwise order: each total keeps a running sum's bits.
    totals = dict(zip(names, np.cumsum(earned, axis=1)[:, -1]))
    return {name: totals[name] / len(humans) for name in columns}


def ccc(x, y) -> float:
    """Concordance correlation: agreement in both ordering and scale, in [-1, 1]."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ValueError("need at least 2 points")
    if x.min() == x.max() and y.min() == y.max():  # a constant's mean can miss it by an ulp
        raise ValueError("both inputs are constant; concordance undefined")
    mx, my = x.mean(), y.mean()
    vx, vy = ((x - mx) ** 2).mean(), ((y - my) ** 2).mean()
    cov = ((x - mx) * (y - my)).mean()
    return float(2.0 * cov / (vx + vy + (mx - my) ** 2))


def _ccc_x100(x, y) -> float | None:
    """`ccc` x100 for a report: None where it is undefined (one point, or both sides constant)."""
    try:
        return ccc(x, y) * 100.0
    except ValueError:
        return None


_WORD = re.compile(r"[^\W_]+", re.UNICODE)


def _lex_tokens(text: str) -> list[str]:
    return _WORD.findall(text.lower())


def _tokens(text: str | list[str]) -> list[str]:
    return _lex_tokens(text) if isinstance(text, str) else text


def _pair_f1(hits, cand_total, ref_total) -> list[float]:
    """2·p·r/(p+r) per pair, p = hits/cand_total, r = hits/ref_total, in the scalar order; 0.0 where hits is 0."""
    hits = np.asarray(hits, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = hits / cand_total
        recall = hits / ref_total
        f1 = 2 * precision * recall / (precision + recall)
    return np.where(hits > 0, f1, 0.0).tolist()


def _dense(tokens: list[list[str]]) -> tuple[np.ndarray, np.ndarray]:
    ids: dict[str, int] = {}
    flat = np.array([ids.setdefault(token, len(ids)) for text in tokens for token in text], dtype=np.int64)
    return flat, np.array([len(text) for text in tokens], dtype=np.int64)


def _rouge_n(flat: np.ndarray, lengths: np.ndarray, refs: np.ndarray, cands: np.ndarray, n: int) -> list[float]:
    """Clipped n-gram overlap F1 of texts refs[k] and cands[k] for every pair k, from `_dense` ids."""
    size = flat.size
    keys = flat  # keys[p] names the n-gram starting at flat position p
    for k in range(1, n):
        # Ranked densely, every key stays below `size`, so the next product cannot overflow.
        keys = np.unique(keys[:-1] * size + flat[k:], return_inverse=True)[1]
    starts = np.cumsum(lengths) - lengths
    owner = np.repeat(np.arange(lengths.size), lengths)[: keys.size]
    inside = np.arange(keys.size) - starts[owner] + n <= lengths[owner]
    # Each text's distinct n-grams with their counts; text t owns rows bounds[t]:bounds[t + 1].
    grams, counts = np.unique(owner[inside] * size + keys[inside], return_counts=True)
    bounds = np.searchsorted(grams, np.arange(lengths.size + 1) * size)
    first, count = bounds[cands], bounds[cands + 1] - bounds[cands]
    pair = np.repeat(np.arange(cands.size), count)
    rows = np.arange(pair.size) + np.repeat(first - (np.cumsum(count) - count), count)
    # Each candidate n-gram's count in its pair's reference, 0 where absent.
    wanted = refs[pair] * size + grams[rows] % size
    at = np.minimum(np.searchsorted(grams, wanted), grams.size - 1)
    in_ref = np.where(grams[at] == wanted, counts[at], 0)
    hits = np.bincount(pair, np.minimum(counts[rows], in_ref), minlength=cands.size)
    return _pair_f1(hits, lengths[cands] - (n - 1), lengths[refs] - (n - 1))


def _lcs_length(a: list[str], b: list[str]) -> int:
    """Longest common subsequence length by the bit-parallel recurrence of
    Allison-Dix and Hyyro: one big-int step per token of b.

    Bit i of `row` is clear where the LCS of a[:i+1] and the prefix of b seen
    so far grows over that of a[:i]; the clear bits count the LCS.
    """
    positions: dict[str, int] = {}
    for i, token in enumerate(a):
        positions[token] = positions.get(token, 0) | (1 << i)
    full = (1 << len(a)) - 1
    row = full
    for token in b:
        match = row & positions.get(token, 0)
        row = ((row + match) | (row - match)) & full
    return len(a) - row.bit_count()


def _rouge_l(tokens: list[list[str]], lengths: np.ndarray, refs: np.ndarray, cands: np.ndarray) -> list[float]:
    """Longest-common-subsequence F1 of texts refs[k] and cands[k] for every pair k."""
    hits = [_lcs_length(tokens[r], tokens[c]) for r, c in zip(refs.tolist(), cands.tolist())]
    return _pair_f1(hits, lengths[cands], lengths[refs])


def rouge_n_f1(reference: str | list[str], candidate: str | list[str], n: int) -> float:
    """Clipped n-gram overlap F1 in [0, 1] of two texts or their lexical tokens; degenerate inputs score 0."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _rouge_n(*_dense([_tokens(reference), _tokens(candidate)]), np.array([0]), np.array([1]), n)[0]


def rouge_l_f1(reference: str | list[str], candidate: str | list[str]) -> float:
    """Longest-common-subsequence F1 over the lexical tokens of two texts (or the tokens given), in [0, 1]."""
    tokens = [_tokens(reference), _tokens(candidate)]
    return _rouge_l(tokens, _dense(tokens)[1], np.array([0]), np.array([1]))[0]


def rouge_table(references: list[str], candidates: list[str]) -> dict[str, list[float]]:
    """rouge1, rouge2 and rougeL of every (references[k], candidates[k]) pair, the
    values `rouge_n_f1` and `rouge_l_f1` give; each distinct text is tokenized once."""
    if len(references) != len(candidates):
        raise ValueError(f"{len(references)} references for {len(candidates)} candidates")
    index: dict[str, int] = {}
    refs, cands = (np.array([index.setdefault(t, len(index)) for t in texts], dtype=np.int64)
                   for texts in (references, candidates))
    tokens = [_lex_tokens(text) for text in index]
    flat, lengths = _dense(tokens)
    return {"rouge1": _rouge_n(flat, lengths, refs, cands, 1), "rouge2": _rouge_n(flat, lengths, refs, cands, 2),
            "rougeL": _rouge_l(tokens, lengths, refs, cands)}


@dataclass
class SeparationReport:
    """Per-dataset separation statistics in the x100 table convention."""

    metric: str
    pairs: int
    mean_correct: float  # raw scale x100
    mean_incorrect: float  # raw scale x100
    n_delta: float
    macro_f1: float
    wasserstein: float  # on rescaled scores, x100
    threshold_curve: list[tuple[float, float]]

    def to_dict(self) -> dict:
        return {**vars(self), "threshold_curve": [[t, p] for t, p in self.threshold_curve]}


def separation_report(
    table: ScoreTable, metric: str, metric_range: MetricRange, grid=None
) -> SeparationReport:
    """Assemble every separation statistic for one metric over a labeled table."""
    correct = table.labeled_scores(metric, "correct")
    incorrect = table.labeled_scores(metric, "incorrect")
    if not correct.size or not incorrect.size:
        raise ValueError(f"table has no labeled {metric!r} scores on both sides")
    gaps = table.paired_gaps(metric, metric_range)
    scaled_correct, scaled_incorrect = rescale(correct, metric_range), rescale(incorrect, metric_range)
    return SeparationReport(
        metric=metric,
        pairs=len(gaps),
        mean_correct=float(np.mean(correct)) * 100.0,
        mean_incorrect=float(np.mean(incorrect)) * 100.0,
        n_delta=n_delta(scaled_correct, scaled_incorrect),
        macro_f1=macro_f1_midpoint(scaled_correct, scaled_incorrect),
        wasserstein=wasserstein_1d(scaled_correct, scaled_incorrect) * 100.0,
        threshold_curve=threshold_curve(gaps, grid) if gaps.size else [],
    )


def evaluation_report(
    table: ScoreTable,
    ranges: dict[str, MetricRange] | None = None,
    rating_scales: dict[str, tuple[float, float]] | None = None,
) -> dict[str, dict]:
    """The two sections of an evaluation report, {"separation": ..., "agreement": ...}.

    separation[dataset][metric] is the `separation_report` of every metric
    scored on both correct and incorrect rows of that dataset.  agreement
    holds Rank@1, DCG and CCC (x100) over the rows with a human score, for
    the metrics scored on all of them; it is empty when there are none, and
    a CCC is None where it is undefined (one rated row, or a constant metric
    on constant ratings).
    A metric's range is taken from `ranges`, then DEFAULT_RANGES, else
    "unit"; human scores are rescaled by their dataset's rating scale,
    else taken as already in [0, 1].
    """
    ranges = {**DEFAULT_RANGES, **(ranges or {})}
    metrics = [
        MetricRange(name, ranges[name].kind if name in ranges else "unit")
        for name in sorted(name for name, has in table.present.items() if has.any())
    ]
    separation: dict[str, dict[str, dict]] = {}
    for ds in sorted(set(table.datasets.tolist())):
        sub = table.take(table.datasets == ds)
        per_metric = {
            m.name: separation_report(sub, m.name, m).to_dict()
            for m in metrics
            if (sub.present[m.name] & sub.correct).any() and (sub.present[m.name] & ~sub.correct).any()
        }
        if per_metric:
            separation[ds] = per_metric

    agreement: dict[str, dict[str, float]] = {}
    rated = table.take(table.rated)
    covered = [m for m in metrics if rated.present[m.name].all()]
    if len(rated) and covered:
        columns, humans = agreement_columns(rated, covered, rating_scales)
        agreement = {
            "rank_at_1": rank_at_1(columns, humans),
            "dcg": dcg(columns, humans),
            "ccc": {name: _ccc_x100(column, humans) for name, column in columns.items()},
        }
    return {"separation": separation, "agreement": agreement}
