"""Token attribution for similarity scores via integrated gradients.

One document of a pair is attributed: its token-embedding matrix is
interpolated from a baseline to its actual value while the other document's
representation f stays fixed, and the path-averaged gradient of the score is
weighted by the input delta.  The score sees the attributed embeddings only
through their mean, and the model is affine up to the cosine, so the path
maps to the line h(α) = h_0 + αΔ between the endpoint representations.  The
cosine gradient along that line combines f, Δ and the line's closest point to
the origin h⊥ with weights that are elementary functions of α, so its path
mean is an exact integral: four scalar antiderivatives at the two ends and a
few D-vector operations, O(D), and the attributions sum to the score change
up to rounding.  `steps` is still checked and echoed but changes no value.

`integrated_gradients` takes one pair, or two equal-length sequences of texts
as `score` does.  Each distinct text is encoded once, and every distinct
document's h comes from one `represent` call; the zero baseline's is b̄C.  The
scores, the path integrals, the zero-norm checks and the pull-back through
W̄ᵀC are then array operations with one row per pair.  Mean pooling gives
every token of a document its pair's one row gradient, so a token's value is
its embedding row times that gradient.  The rows are gathered in blocks of
pairs of at most MEAN_BLOCK_ENTRIES (token, dim) entries, or one pair, so no
gathered array grows with the batch.  One pair is the n = 1 call of that path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import DegenerateRepresentationError
from .model import MEAN_BLOCK_ENTRIES, ModelParams, _norms, block_means, embedding_rows, represent

DIRECTIONS = ("toward_candidate", "toward_reference")
BASELINE_KINDS = ("zero", "input")
DEFAULT_STEPS = 64


@dataclass
class AttributionResult:
    """Per-token attribution of one document's contribution to the pair score."""

    direction: str
    per_token: list[tuple[str, float]]
    total: float
    completeness_residual: float
    steps: int
    score: float
    baseline_score: float

    def to_dict(self) -> dict:
        return {**vars(self), "per_token": list(map(list, self.per_token))}


@dataclass(eq=False)
class BatchAttribution:
    """Integrated gradients over n pairs: one entry per pair in `total`, `score`, `baseline_score` and
    `completeness_residual`.

    Pair k's per-token values are `values[offsets[k]:offsets[k + 1]]`, for the
    ids `ids[offsets[k]:offsets[k + 1]]` of its attributed document.
    `pair(k)` decodes those ids' pieces into one `AttributionResult`.
    """

    direction: str
    steps: int
    total: np.ndarray
    score: np.ndarray
    baseline_score: np.ndarray
    completeness_residual: np.ndarray
    values: np.ndarray
    offsets: np.ndarray
    ids: np.ndarray
    vocab: object = field(repr=False)

    def pair(self, k: int) -> AttributionResult:
        lo, hi = self.offsets[k], self.offsets[k + 1]
        ids = self.ids[lo:hi].tolist()
        distinct = list(set(ids))
        pieces = dict(zip(distinct, self.vocab.pieces(distinct)))
        return AttributionResult(
            direction=self.direction,
            per_token=list(zip(map(pieces.__getitem__, ids), self.values[lo:hi].tolist())),
            total=float(self.total[k]),
            completeness_residual=float(self.completeness_residual[k]),
            steps=self.steps,
            score=float(self.score[k]),
            baseline_score=float(self.baseline_score[k]),
        )


def integrated_gradients(
    params: ModelParams,
    reference,
    candidate,
    vocab,
    direction: str = "toward_candidate",
    steps: int = DEFAULT_STEPS,
    baseline_kind: str = "zero",
):
    """Attribute the similarity score to the tokens of one side of each pair.

    toward_candidate interpolates the candidate's embeddings with the
    reference representation fixed; toward_reference does the opposite.
    `steps` must be at least 8 and is echoed in the result; it changes no value.
    Two strings give an `AttributionResult`; two equal-length sequences of
    strings give a `BatchAttribution`, and a zero-norm path names its pair.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    if baseline_kind not in BASELINE_KINDS:
        raise ValueError(f"baseline_kind must be one of {BASELINE_KINDS}, got {baseline_kind!r}")
    if steps < 8:
        raise ValueError("steps must be >= 8 for attribution runs")
    single = isinstance(reference, str)
    references, candidates = ([reference], [candidate]) if single else (list(reference), list(candidate))
    if len(references) != len(candidates):
        raise ValueError(f"{len(references)} references but {len(candidates)} candidates")
    sides = (candidates, references) if direction == "toward_candidate" else (references, candidates)
    # Each distinct text encoded once, and texts with equal ids one document, as in `score`.
    text_rows: dict[str, int] = {}
    pair_texts = [[text_rows.setdefault(t, len(text_rows)) for t in side] for side in sides]
    doc_rows: dict[tuple[int, ...], int] = {}
    max_len = params.hyper.max_len
    row_of_text = [doc_rows.setdefault(tuple(vocab.encode(t, max_len)), len(doc_rows)) for t in text_rows]
    docs = list(doc_rows)
    h = represent(params, docs)
    attributed, fixed = ([row_of_text[t] for t in side] for side in pair_texts)
    f, h_actual = h[fixed], h[attributed]
    w_bar, b_bar = block_means(params)
    # The zero baseline's mean embedding is the zero row, so its h is b̄C; the input baseline's is h itself.
    h_baseline = np.broadcast_to(b_bar @ params.conversion, f.shape) if baseline_kind == "zero" else h_actual
    # h(α) = h⊥ + tΔ, t = α − α*: h⊥ = h_0 + α*Δ, the line's closest point to the origin, is formed
    # as a vector so that no two large terms cancel near it.  The gradient f/(|f||h|) − (f·h)h/(|f||h|³)
    # has the path mean (m f − c⊥ h⊥ − c_Δ Δ)/|f|, with m, c⊥ and c_Δ the integrals over
    # t ∈ [−α*, 1 − α*] of q^(-1/2), w = (f·h⊥ + t f·Δ)q^(-3/2) and tw, where q = |h|² = a t² + |h⊥|².
    # Δ = 0 gives the constant q = |h_0|².
    delta = h_actual - h_baseline
    a = _dots(delta, delta)
    alpha_star = np.divide(-_dots(h_baseline, delta), a, out=np.zeros_like(a), where=a != 0.0)
    h_perp = h_baseline + alpha_star[:, None] * delta
    pp = _dots(h_perp, h_perp)
    n_fixed, n_actual, n_baseline = _norms(f), _norms(h_actual), _norms(h_baseline)
    # An endpoint at the origin has alpha* = 0 or 1 exactly; Δ = 0 puts the whole path there.
    zero = (n_fixed == 0.0) | (n_actual == 0.0) | (n_baseline == 0.0) | (
        (pp == 0.0) & (0.0 <= alpha_star) & (alpha_star <= 1.0))
    if zero.any():
        k = int(zero.argmax())
        on_path = not (n_fixed[k] and a[k]) or 0.0 < alpha_star[k] < 1.0
        where = "along the interpolation path" if on_path else "at an interpolation endpoint"
        raise DegenerateRepresentationError(
            f"{'' if single else f'pair {k}: '}zero-norm representation {where}; "
            "try a different baseline (zero-norm document representation)")
    score_actual = _dots(f, h_actual) / (n_fixed * n_actual)
    score_baseline = _dots(f, h_baseline) / (n_fixed * n_baseline)
    m, c_perp, c_delta = _path_means(a, pp, alpha_star, _dots(f, h_perp), _dots(f, delta))
    g_h = (m[:, None] * f - c_perp[:, None] * h_perp - c_delta[:, None] * delta) / n_fixed[:, None]
    # Back through h = (W̄ē + b̄)C and ē = mean of the rows: every token row of
    # a pair gets the same embedding gradient, W̄ᵀCg / (its token count).
    lengths = np.array([len(docs[row]) for row in attributed], dtype=np.intp)
    row_grad = (g_h @ params.conversion.T) @ w_bar / lengths[:, None]
    offsets = np.zeros(len(lengths) + 1, dtype=np.intp)
    np.cumsum(lengths, out=offsets[1:])
    ids = np.fromiter(chain.from_iterable(map(docs.__getitem__, attributed)), dtype=np.intp, count=offsets[-1])
    values = np.zeros(offsets[-1])
    first, cap = 0, MEAN_BLOCK_ENTRIES // params.hyper.dim
    while baseline_kind == "zero" and first < len(lengths):  # the input baseline's delta is zero
        # The block [first, stop): as many pairs as fit in `cap` tokens, or one.
        stop = max(first + 1, int(np.searchsorted(offsets, offsets[first] + cap, side="right")) - 1)
        lo, hi = offsets[first], offsets[stop]
        grads = np.repeat(row_grad[first:stop], lengths[first:stop], axis=0)
        values[lo:hi] = np.einsum("td,td->t", embedding_rows(params, ids[lo:hi]), grads)
        first = stop
    total = np.add.reduceat(values, offsets[:-1])
    batch = BatchAttribution(direction, steps, total, score_actual, score_baseline,
                             np.abs(total - (score_actual - score_baseline)), values, offsets, ids, vocab)
    return batch.pair(0) if single else batch


def attribution_gap(
    params: ModelParams,
    pairs: list[tuple[str, str, str]],
    vocab,
    steps: int = DEFAULT_STEPS,
    baseline_kind: str = "zero",
) -> tuple[float, float, float]:
    """Mean total attribution over correct vs incorrect pairs and their gap, x100.

    Each pair is (reference, correct candidate, incorrect candidate); the
    candidate side is attributed, in one batched call over all 2k pairs.
    """
    if not pairs:
        raise ValueError("pair list must be non-empty")
    references, correct, incorrect = (list(side) for side in zip(*pairs))
    totals = integrated_gradients(params, references * 2, correct + incorrect, vocab, "toward_candidate", steps,
                                  baseline_kind).total
    mean_correct, mean_incorrect = (float(mean) * 100.0 for mean in totals.reshape(2, -1).mean(axis=1))
    return mean_correct, mean_incorrect, mean_correct - mean_incorrect


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (n, dim) arrays."""
    return np.einsum("nd,nd->n", x, y)


def _path_means(a, pp, alpha_star, f_perp, f_delta):
    """m, c⊥ and c_Δ per pair: the integrals of q^(-1/2), w and tw over t ∈ [t0, t1] = [−α*, 1 − α*].

    q = a·t² + pp and w = (f_perp + t·f_delta)·q^(-3/2), so they take four
    integrals.  With p = √pp, s = √a and r = √q, their antiderivatives are
    asinh(s·t/p)/s for q^(-1/2), t/(p²·r) for q^(-3/2), −1/(a·r) for t·q^(-3/2)
    and (asinh(s·t/p)/s − t/r)/a for t²·q^(-3/2).  Each difference of the two
    ends is taken where no two large terms cancel.  When the segment holds
    the closest point, t0 < 0 < t1 and t1/r1 − t0/r0 adds two terms of one
    sign; otherwise it is pp·(t1² − t0²)/(r0·r1·(t0·r1 + t1·r0)), whose pp
    cancels in the second integral, so that form holds at p = 0 too.  The two
    asinh terms join into one, as asinh x − asinh y = asinh(x·√(1 + y²) −
    y·√(1 + x²)), and 1/r0 − 1/r1 is a·(t1² − t0²)/(r0·r1·(r0 + r1)).  Δ = 0
    (a = 0) gives q = pp all along.  Every form is taken on every pair and
    `np.where` keeps the one that holds, so the others may divide by zero.
    """
    t0, t1 = -alpha_star, 1.0 - alpha_star
    s = np.sqrt(a)
    r0, r1 = np.sqrt(a * t0 * t0 + pp), np.sqrt(a * t1 * t1 + pp)
    d = (t1 - t0) * (t1 + t0)
    flat = a == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        j0 = np.where((t0 < 0.0) & (0.0 < t1), (t1 / r1 - t0 / r0) / pp, d / (r0 * r1 * (t0 * r1 + t1 * r0)))
        i0 = np.arcsinh(s * r0 * r1 * j0) / s
        j1, j2 = d / (r0 * r1 * (r0 + r1)), (i0 - pp * j0) / a
        m = np.where(flat, 1.0 / np.sqrt(pp), i0)
        return (m, np.where(flat, f_perp * m / pp, f_perp * j0 + f_delta * j1),
                np.where(flat, 0.0, f_perp * j1 + f_delta * j2))
