"""Token attribution for similarity scores via integrated gradients.

One document of a pair is attributed: its token-embedding matrix is
interpolated from a baseline to its actual value while the other document's
representation f stays fixed, and the path-averaged gradient of the score is
weighted by the input delta.  The score sees the attributed embeddings only
through their mean, and the model is affine up to the cosine, so the path
maps to the line h(α) = h_0 + αΔ between the endpoint representations.  The
midpoint rule averages the cosine gradient over the `steps` points of that
line.  Each gradient combines f, Δ and the line's closest point to the
origin h⊥ with weights that are scalars of α, so the mean costs three means
over `steps` scalars and a few D-vector operations, O(steps + D).  The score
and the baseline score are one row-wise cosine of f against the two
endpoints.  No midpoint is the baseline itself, which sidesteps the
zero-norm cosine singularity of an all-zero start.
"""

from __future__ import annotations

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
    # has the path mean (m f − c⊥ h⊥ − c_Δ Δ)/|f|, with m, c⊥ and c_Δ the midpoints' means of
    # q^(-1/2), w = (f·h)q^(-3/2) and tw, where q = |h|².  Δ = 0 gives h⊥ = h_0.
    delta = h_actual - h_baseline
    a = delta @ delta
    alpha_star = -(h_baseline @ delta) / a if a else 0.0
    h_perp = h_baseline + alpha_star * delta
    t = (np.arange(steps) + 0.5) / steps - alpha_star
    q = a * t**2 + h_perp @ h_perp
    try:
        # A row-wise cosine gives each endpoint the bits of a call on that row alone.
        n_fixed, _, _, (score_actual, score_baseline) = _cosine_core(h_fixed, h[[1, -1]])
        if not q.all():
            raise DegenerateRepresentationError("zero-norm document representation")
    except DegenerateRepresentationError as exc:
        where = "along the interpolation path" if not (_norms(h_fixed) and q.all()) else "at an interpolation endpoint"
        raise DegenerateRepresentationError(
            f"zero-norm representation {where}; try a different baseline ({exc})") from exc
    inv_norm = 1.0 / np.sqrt(q)
    w = (h_fixed @ h_perp + t * (h_fixed @ delta)) * inv_norm / q
    m, c_perp, c_delta = (np.add.reduce(x) / steps for x in (inv_norm, w, t * w))
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
