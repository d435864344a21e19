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
The score and the baseline score are one row-wise cosine of f against the
two endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRepresentationError
from .model import ModelParams, _cosine_core, _norms, block_means, check_ids, embedding_rows, forward

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


def integrated_gradients(
    params: ModelParams,
    reference: str,
    candidate: str,
    vocab,
    direction: str = "toward_candidate",
    steps: int = DEFAULT_STEPS,
    baseline_kind: str = "zero",
) -> AttributionResult:
    """Attribute the similarity score to the tokens of one side of the pair.

    toward_candidate interpolates the candidate's embeddings with the
    reference representation fixed; toward_reference does the opposite.
    `steps` must be at least 8 and is echoed in the result; it changes no value.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    if baseline_kind not in BASELINE_KINDS:
        raise ValueError(f"baseline_kind must be one of {BASELINE_KINDS}, got {baseline_kind!r}")
    if steps < 8:
        raise ValueError("steps must be >= 8 for attribution runs")
    max_len = params.hyper.max_len
    attributed_text, fixed_text = (
        (candidate, reference) if direction == "toward_candidate" else (reference, candidate)
    )
    ids = vocab.encode(attributed_text, max_len)
    # One gather: the attributed document's rows, then the fixed document's.
    # `encode` raises on an empty text and gives at least one id otherwise.
    rows = embedding_rows(params, check_ids(params, ids + vocab.encode(fixed_text, max_len)))
    emb, fixed = rows[: len(ids)], rows[len(ids) :]
    # One forward for the fixed document, the attributed one and, unless it
    # is the attributed document itself, the baseline: the zero baseline's
    # mean embedding is the zero row.  Sum over count gives the bits of
    # .mean(axis=0), without its wrapper.
    emb_means = np.zeros((3 if baseline_kind == "zero" else 2, params.hyper.dim))
    emb_means[0] = np.add.reduce(fixed) / len(fixed)
    emb_means[1] = np.add.reduce(emb) / len(emb)
    means = block_means(params)
    _, h = forward(params, emb_means, means)
    h_fixed, h_actual, h_baseline = h[0], h[1], h[-1]
    # h(α) = h⊥ + tΔ, t = α − α*: h⊥ = h_0 + α*Δ, the line's closest point to the origin, is formed
    # as a vector so that no two large terms cancel near it.  The gradient f/(|f||h|) − (f·h)h/(|f||h|³)
    # has the path mean (m f − c⊥ h⊥ − c_Δ Δ)/|f|, with m, c⊥ and c_Δ the integrals over
    # t ∈ [−α*, 1 − α*] of q^(-1/2), w = (f·h⊥ + t f·Δ)q^(-3/2) and tw, where q = |h|² = a t² + |h⊥|².
    # Δ = 0 gives the constant q = |h_0|².
    delta = h_actual - h_baseline
    a = float(delta @ delta)
    alpha_star = -float(h_baseline @ delta) / a if a else 0.0
    h_perp = h_baseline + alpha_star * delta
    pp = float(h_perp @ h_perp)
    try:
        # A row-wise cosine gives each endpoint the bits of a call on that row alone.
        n_fixed, _, _, (score_actual, score_baseline) = _cosine_core(h_fixed, h[[1, -1]])
        if not pp and 0.0 <= alpha_star <= 1.0:
            raise DegenerateRepresentationError("zero-norm document representation")
    except DegenerateRepresentationError as exc:
        # An endpoint at the origin has alpha* = 0 or 1 exactly; Δ = 0 puts the whole path there.
        on_path = not (_norms(h_fixed) and a) or 0.0 < alpha_star < 1.0
        where = "along the interpolation path" if on_path else "at an interpolation endpoint"
        raise DegenerateRepresentationError(
            f"zero-norm representation {where}; try a different baseline ({exc})") from exc
    m, c_perp, c_delta = _path_means(a, pp, alpha_star, float(h_fixed @ h_perp), float(h_fixed @ delta))
    g_h = (m * h_fixed - c_perp * h_perp - c_delta * delta) / n_fixed
    # Back through h = (W̄ē + b̄)C and ē = mean of the rows: every token row
    # gets the same embedding gradient.  The input baseline's delta is zero.
    row_grad = means[0].T @ (params.conversion @ g_h) / len(ids)
    per_token_values = (emb if baseline_kind == "zero" else np.zeros_like(emb)) @ row_grad
    total = float(per_token_values.sum())
    distinct = list(set(ids))
    pieces = dict(zip(distinct, vocab.pieces(distinct)))
    return AttributionResult(
        direction=direction,
        per_token=list(zip(map(pieces.__getitem__, ids), per_token_values.tolist())),
        total=total,
        completeness_residual=abs(total - (score_actual - score_baseline)),
        steps=steps,
        score=score_actual,
        baseline_score=score_baseline,
    )


def attribution_gap(
    params: ModelParams,
    pairs: list[tuple[str, str, str]],
    vocab,
    steps: int = DEFAULT_STEPS,
    baseline_kind: str = "zero",
) -> tuple[float, float, float]:
    """Mean total attribution over correct vs incorrect pairs and their gap, x100.

    Each pair is (reference, correct candidate, incorrect candidate); the
    candidate side is attributed.
    """
    if not pairs:
        raise ValueError("pair list must be non-empty")
    totals = [
        [integrated_gradients(params, reference, candidate, vocab, "toward_candidate", steps, baseline_kind).total
         for candidate in (correct, incorrect)]
        for reference, correct, incorrect in pairs
    ]
    mean_correct, mean_incorrect = (float(np.mean(side)) * 100.0 for side in zip(*totals))
    return mean_correct, mean_incorrect, mean_correct - mean_incorrect


def _path_means(a: float, pp: float, alpha_star: float, f_perp: float, f_delta: float):
    """m, c⊥ and c_Δ: the integrals of q^(-1/2), w and tw over t ∈ [t0, t1] = [−α*, 1 − α*].

    q = a·t² + pp and w = (f_perp + t·f_delta)·q^(-3/2), so they take four
    integrals.  With p = √pp, s = √a and r = √q, their antiderivatives are
    asinh(s·t/p)/s for q^(-1/2), t/(p²·r) for q^(-3/2), −1/(a·r) for t·q^(-3/2)
    and (asinh(s·t/p)/s − t/r)/a for t²·q^(-3/2).  Each difference of the two
    ends is taken where no two large terms cancel.  When the segment holds
    the closest point, t0 < 0 < t1 and t1/r1 − t0/r0 adds two terms of one
    sign; otherwise it is pp·(t1² − t0²)/(r0·r1·(t0·r1 + t1·r0)), whose pp
    cancels in the second integral, so that form holds at p = 0 too.  The two
    asinh terms join into one, as asinh x − asinh y = asinh(x·√(1 + y²) −
    y·√(1 + x²)), and 1/r0 − 1/r1 is a·(t1² − t0²)/(r0·r1·(r0 + r1)).
    """
    if not a:  # Δ = 0: q = pp all along
        m = 1.0 / math.sqrt(pp)
        return m, f_perp * m / pp, 0.0
    t0, t1 = -alpha_star, 1.0 - alpha_star
    s = math.sqrt(a)
    r0, r1 = math.sqrt(a * t0 * t0 + pp), math.sqrt(a * t1 * t1 + pp)
    d = (t1 - t0) * (t1 + t0)
    if t0 < 0.0 < t1:
        j0 = (t1 / r1 - t0 / r0) / pp
    else:
        j0 = d / (r0 * r1 * (t0 * r1 + t1 * r0))
    i0 = math.asinh(s * r0 * r1 * j0) / s
    j1, j2 = d / (r0 * r1 * (r0 + r1)), (i0 - pp * j0) / a
    return i0, f_perp * j0 + f_delta * j1, f_perp * j1 + f_delta * j2
