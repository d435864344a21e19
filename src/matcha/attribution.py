"""Token attribution for similarity scores via integrated gradients.

One document of a pair is attributed: its token-embedding matrix is
interpolated from a baseline to its actual value while the other document's
representation stays fixed, and the path-averaged gradient of the score is
weighted by the input delta.  The score sees the attributed embeddings only
through their mean, and the model is affine up to the cosine, so the path
maps to the straight line h_α = h_0 + α(h_1 - h_0) between the endpoint
representations.  The midpoint rule therefore averages the cosine gradient
over the `steps` points of that line and pulls it back once, through the
block-mean projection W̄; every token row receives the same embedding
gradient.  The fixed and attributed documents' rows come from one gather,
the three documents share one forward and one W̄, and one
`model.cosine_grad` call against the fixed representation covers the
`steps` midpoints and both endpoints, whose cosines are the score and the
baseline score; it forms only the gradient with respect to the moving
side, the one IG uses.  The midpoint grid never evaluates at the baseline
itself, which sidesteps the zero-norm cosine singularity of an all-zero
start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRepresentationError
from .model import ModelParams, block_means, check_ids, cosine_grad, embedding_rows, forward

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
        return {**vars(self), "per_token": [[tok, val] for tok, val in self.per_token]}


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
    # One cosine pass: the `steps` midpoints of the line, then both endpoints.
    alphas = (np.arange(steps) + 0.5) / steps
    points = np.empty((steps + 2, h.shape[1]))
    np.multiply(alphas[:, None], h_actual - h_baseline, out=points[:steps])
    points[:steps] += h_baseline
    points[steps], points[steps + 1] = h_actual, h_baseline
    try:
        sims, g_points = cosine_grad(h_fixed, points)
    except DegenerateRepresentationError as exc:
        on_path = not np.linalg.norm(np.vstack((h_fixed, points[:steps])), axis=-1).all()
        where = "along the interpolation path" if on_path else "at an interpolation endpoint"
        raise DegenerateRepresentationError(
            f"zero-norm representation {where}; try a different baseline ({exc})"
        ) from exc
    g_h = np.add.reduce(g_points[:steps]) / steps
    score_actual, score_baseline = sims[steps], sims[steps + 1]
    # Back through h = (W̄ē + b̄)C and ē = mean of the rows: every token row
    # gets the same embedding gradient.  The input baseline's delta is zero.
    row_grad = means[0].T @ (params.conversion @ g_h) / len(ids)
    per_token_values = (emb if baseline_kind == "zero" else np.zeros_like(emb)) @ row_grad
    total = float(per_token_values.sum())
    pieces = {i: vocab.decode([i]) for i in set(ids)}
    return AttributionResult(
        direction=direction,
        per_token=[(pieces[i], v) for i, v in zip(ids, per_token_values.tolist())],
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
