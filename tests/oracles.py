"""Independent reference implementations the tests check the package against.

Everything here is deliberately naive: plain loops, linear scans, repeated
work, the model's layers computed one at a time (project -> convert ->
pool, the full (n_ctx, L, dim) tensor included) rather than folded, and the
trainer one triplet and one document at a time.  None of it shares code with
the implementations under test beyond fixed published constants (the byte
alphabet, the pretoken split, the ROUGE word pattern) and the gradient
container it returns.  Adam's beta1, beta2 and epsilon and the initial
weight bounds are written out here, not imported, so that a changed
constant in the package fails its gate.  The exceptions are
the evaluation report paths.  `evaluation_report_rows` is the report as the
package computed it over `ScoreRow` objects before the columnar
`ScoreTable`; it and `evaluation_report_assembled`, the report assembly as
the CLI once wrote it, call `n_delta_ranged` and `macro_f1_midpoint_ranged`
(the package's `n_delta` and `macro_f1_midpoint` as they were when each
rescaled its own raw scores) and the package's statistics
(`wasserstein_1d`, `rank_at_1`, `dcg`, `ccc`), which have oracles of their
own, and gate how the report selects, pairs and assembles them.
`bpe_encode_word_loop` is BPE `encode` as the package wrote it before its
chunk-keyed memo (one Python step per word of `words`, one memo for words
and pretokens); it calls the package's `_merge`, which
`bpe_encode_naive` gates, and it gates the package's memo layout and its
`max_len` cuts.
Likewise `integrated_gradients_grid` and `integrated_gradients_three_pass`,
integrated gradients as the package once computed it (the midpoints and
both endpoints in one cosine call over a (steps + 2, D) grid, and in three
calls), call the package's forward and cosine: the two must agree bit for
bit, and the grid gates `integrated_gradients_midpoint`, the package's
scalar-path midpoint rule as it was before the exact path integral, within
a tolerance.  The package's exact integral is gated as the limit of the
midpoint rule at growing step counts, against it and against
`integrated_gradients_tiled`, which checks the values themselves, and on a
one-token line model against `integrated_gradients_decimal_exact`, the
integral in 50-digit decimal.  `integrated_gradients_per_pair` and
`path_means_per_pair` are the exact integral as the package computed it one
pair at a time, with its own means and forward, before the batched path; they
gate the batched `integrated_gradients` within 1e-12.  `attribution_gap_loop`
is `attribution_gap` with one `integrated_gradients_per_pair` call per
candidate, and
`attribution_result_dict` is `AttributionResult.to_dict` with its fields
listed by hand, as the package once had them.  `bpe_decode_map` and
`pieces_per_id` are BPE `decode` and the naming of IG's tokens as the
package wrote them before its one translate pass; the IG oracles name
their tokens through them.  `BatchScheduleQueues` and `train_accumulating` are the batch
schedule (per-dataset queues walked by a cursor) and the trainer loop (an
accumulation counter) as the package wrote them before the per-epoch batch
plan; the trainer calls the package's `loss_and_grads` and `adam_step`, so
it gates the rewrite for bit equality.  `load_jsonl_binary` is the corpus
reader as it was before the package's one JSONL reader; it builds the
package's `Record`.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from decimal import Decimal, localcontext

import numpy as np

from matcha.checkpoint import MAGIC, MAX_RANK, VERSION, _check_manifest
from matcha.errors import (
    CheckpointFormatError,
    CheckpointIntegrityError,
    DegenerateRepresentationError,
    EmptyInputError,
    MatchaError,
    NumericError,
    SchemaError,
    ShapeError,
    read_lines,
)
from matcha.attribution import BASELINE_KINDS, DEFAULT_STEPS, DIRECTIONS, AttributionResult
from matcha.data import Record
from matcha.model import (
    Hyper,
    ModelParams,
    _cosine_core,
    _norms,
    block_means,
    check_ids,
    cosine_with_grads,
    embedding_rows,
    forward,
)
from matcha.evaluation import (
    _WORD,
    DEFAULT_RANGES,
    DEFAULT_THRESHOLD_GRID,
    MetricRange,
    ScoreTable,
    SeparationReport,
    _f1,
    ccc,
    dcg,
    rank_at_1,
    rescale,
    wasserstein_1d,
)
from matcha.tokenizer import _PRETOKEN, _merge, byte_to_unicode
from matcha.training import (
    SCHEDULE_STRATEGIES,
    TENSOR_NAMES,
    Gradients,
    TripletBatch,
    adam_step,
    init_optimizer,
    loss_and_grads,
)


# Adam's defaults as Kingma & Ba publish them (https://arxiv.org/abs/1412.6980, Algorithm 1), written
# here rather than imported, so that a change to the package's constants fails the Adam gates.
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


def bpe_encode_naive(merges: list[tuple[str, str]], token_to_id: dict[str, int],
                     text: str, max_len: int) -> list[int]:
    """O(n^2) merge oracle: per pretoken, repeatedly find the best-ranked
    adjacent pair by scanning the merge list linearly and merge all its
    occurrences left to right."""
    byte_encoder = byte_to_unicode()
    ids: list[int] = []
    for pretoken in _PRETOKEN.findall(text):
        symbols = [byte_encoder[b] for b in pretoken.encode("utf-8")]
        while len(symbols) > 1:
            best_rank = None
            best_pair = None
            for rank, pair in enumerate(merges):  # linear scan, no rank dict
                for i in range(len(symbols) - 1):
                    if (symbols[i], symbols[i + 1]) == pair:
                        if best_rank is None or rank < best_rank:
                            best_rank = rank
                            best_pair = pair
                        break
            if best_pair is None:
                break
            out: list[str] = []
            i = 0
            while i < len(symbols):
                if (
                    i + 1 < len(symbols)
                    and (symbols[i], symbols[i + 1]) == best_pair
                ):
                    out.append(symbols[i] + symbols[i + 1])
                    i += 2
                else:
                    out.append(symbols[i])
                    i += 1
            symbols = out
        ids.extend(token_to_id[s] for s in symbols)
        if len(ids) >= max_len:
            break
    return ids[:max_len]


def bpe_decode_map(vocab, ids: list[int]) -> str:
    """BPE `decode` as the package wrote it before its translate table: the joined tokens' characters
    mapped to bytes through the inverse of `vocab.byte_encoder`, then decoded as UTF-8 with U+FFFD
    for each bad sequence.  An id outside the table or a character that is no byte stand-in raises
    KeyError."""
    byte_decoder = {c: b for b, c in vocab.byte_encoder.items()}
    id_to_token = {i: t for t, i in vocab.token_to_id.items()}
    data = bytes(map(byte_decoder.__getitem__, "".join(id_to_token[i] for i in ids)))
    return data.decode("utf-8", errors="replace")


def pieces_per_id(vocab, ids: list[int]) -> list[str]:
    """Each id's piece as `integrated_gradients` once named its tokens: a dict of each distinct id's
    own decode (`bpe_decode_map` for a BPE vocabulary, the word vocabulary's `decode` otherwise),
    read once per id."""
    decode = (lambda one: bpe_decode_map(vocab, one)) if hasattr(vocab, "byte_encoder") else vocab.decode
    pieces = {i: decode([i]) for i in set(ids)}
    return [pieces[i] for i in ids]


def words(text: str) -> list[str]:
    r"""Cut text before each space that precedes a non-whitespace character.  No pretoken spans
    such a cut: `\s+(?!\S)` backtracks off the space; the rest take at most a leading space."""
    chunks = text.split(" ")
    out = [chunks[0]]
    for chunk in chunks[1:]:
        if chunk and not chunk[0].isspace():
            out.append(" " + chunk)
        else:
            out[-1] += " " + chunk
    return out


def bpe_encode_word_loop(vocab, memo: dict[str, tuple[int, ...]], text: str, max_len: int) -> list[int]:
    """BPE encode as the package wrote it before its chunk-keyed memo, less the memo's bound: one
    Python step per word of `words`, each word and pretoken met before looked up in the one `memo`.
    A word cut by max_len is not stored, and no pretoken past the cut is merged."""
    ids: list[int] = []
    for word in words(text):
        word_ids = memo.get(word)
        if word_ids is None:
            word_ids = []
            for pretoken in _PRETOKEN.findall(word):
                pretoken_ids = memo.get(pretoken)
                if pretoken_ids is None:
                    pretoken_ids = memo[pretoken] = _merge(vocab, pretoken)
                word_ids.extend(pretoken_ids)
                if len(ids) + len(word_ids) >= max_len:
                    break
            else:
                word_ids = memo[word] = tuple(word_ids)
        ids.extend(word_ids)
        if len(ids) >= max_len:
            break
    return ids[:max_len]


def init_params_glorot(vocab_size: int, dim: int, n_ctx: int, *, max_len: int = 512, margin: float = 1.0,
                       seed: int = 42) -> ModelParams:
    """Fresh parameters with their bounds written out: Glorot & Bengio's uniform
    U(+-sqrt(6 / (fan_in + fan_out))) for the (N_c*D, D) projection and the (D, D)
    conversion, then U(+-0.01) for the table, drawn in that order from one
    generator, each value rounded to float32 and back; a zero bias."""
    rng = np.random.default_rng(seed)

    def draw(shape, bound):
        return rng.uniform(-bound, bound, size=shape).astype(np.float32).astype(np.float64)

    k = n_ctx * dim
    proj_weight = draw((k, dim), math.sqrt(6.0 / (k + dim)))
    conversion = draw((dim, dim), math.sqrt(6.0 / (2 * dim)))
    embedding = draw((vocab_size, dim), 0.01)
    return ModelParams(embedding, proj_weight, np.zeros(k), conversion,
                       Hyper(dim=dim, n_ctx=n_ctx, max_len=max_len, margin=margin))


def project_loop(emb: np.ndarray, proj_weight: np.ndarray, proj_bias: np.ndarray,
                 n_ctx: int) -> np.ndarray:
    length, dim = emb.shape
    out = np.zeros((n_ctx, length, dim))
    for j in range(length):
        y = np.zeros(n_ctx * dim)
        for k in range(n_ctx * dim):
            acc = proj_bias[k]
            for d in range(dim):
                acc += proj_weight[k, d] * emb[j, d]
            y[k] = acc
        for i in range(n_ctx):
            out[i, j, :] = y[i * dim : (i + 1) * dim]
    return out


def convert_loop(context: np.ndarray, conversion: np.ndarray) -> np.ndarray:
    n_ctx, length, dim = context.shape
    out = np.zeros_like(context)
    for i in range(n_ctx):
        for j in range(length):
            for d_out in range(dim):
                acc = 0.0
                for d_in in range(dim):
                    acc += context[i, j, d_in] * conversion[d_in, d_out]
                out[i, j, d_out] = acc
    return out


def pool_loop(context: np.ndarray) -> np.ndarray:
    n_ctx, length, dim = context.shape
    out = np.zeros(dim)
    for d in range(dim):
        acc = 0.0
        for i in range(n_ctx):
            for j in range(length):
                acc += context[i, j, d]
        out[d] = acc / (n_ctx * length)
    return out


def represent_loop(params, ids: list[int]) -> np.ndarray:
    emb = np.array([params.embedding[i] for i in ids])
    s = project_loop(emb, params.proj_weight, params.proj_bias, params.hyper.n_ctx)
    return pool_loop(convert_loop(s, params.conversion))


def project(params, emb: np.ndarray) -> np.ndarray:
    """Affine map of each token embedding into n_ctx context vectors: (n_ctx, L, dim).

    Token j's output y = proj_weight @ e_j + proj_bias is split into n_ctx
    blocks of length dim; block i becomes row [i, j, :].  No activation.
    """
    emb = np.asarray(emb, dtype=np.float64)
    d, n_ctx = params.hyper.dim, params.hyper.n_ctx
    if emb.ndim != 2 or emb.shape[1] != d:
        raise ShapeError(f"embeddings must be (L, {d}), got {emb.shape}")
    y = emb @ params.proj_weight.T + params.proj_bias  # (L, n_ctx*dim)
    return y.reshape(emb.shape[0], n_ctx, d).transpose(1, 0, 2)


def convert(context: np.ndarray, conversion: np.ndarray) -> np.ndarray:
    """Apply the learned square map over the last axis: out[i, j, :] = context[i, j, :] @ conversion."""
    context = np.asarray(context, dtype=np.float64)
    conversion = np.asarray(conversion, dtype=np.float64)
    if context.ndim != 3 or conversion.ndim != 2 or conversion.shape[0] != conversion.shape[1]:
        raise ShapeError(
            f"expected (n_ctx, L, dim) and (dim, dim), got {context.shape} and {conversion.shape}"
        )
    if context.shape[2] != conversion.shape[0]:
        raise ShapeError(f"last axis {context.shape[2]} != conversion dim {conversion.shape[0]}")
    return context @ conversion


def pool(context: np.ndarray) -> np.ndarray:
    """Mean over both the context and token axes; returns the document vector (dim,)."""
    context = np.asarray(context, dtype=np.float64)
    if context.ndim != 3:
        raise ShapeError(f"expected (n_ctx, L, dim), got {context.shape}")
    if context.shape[0] == 0 or context.shape[1] == 0:
        raise EmptyInputError("cannot pool an empty context tensor")
    return context.mean(axis=(0, 1))


def represent_layered(params, ids: list[int]) -> np.ndarray:
    """The paper's graph layer by layer: pool(convert(project(E[ids])))."""
    emb = params.embedding[np.asarray(ids, dtype=np.intp)]
    return pool(convert(project(params, emb), params.conversion))


def _cosine(h1: np.ndarray, h2: np.ndarray) -> float:
    return float(h1 @ h2) / (np.linalg.norm(h1) * np.linalg.norm(h2))


def batch_loss(params, batch) -> float:
    """Mean per-item hinge max(0, m + sim_incorrect - sim_correct) through the layered graph."""
    if not batch.items:
        raise ValueError("batch must be non-empty")
    total = 0.0
    for ref, cor, inc in batch.items:
        h_r = represent_layered(params, ref)
        sim_c = _cosine(h_r, represent_layered(params, cor))
        sim_i = _cosine(h_r, represent_layered(params, inc))
        total += max(0.0, params.hyper.margin + sim_i - sim_c)
    return total / len(batch.items)


def forward_one(params, emb_mean: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One document's (ctx_mean, h) from its (dim,) mean embedding: every block projected, then averaged."""
    y = params.proj_weight @ emb_mean + params.proj_bias
    ctx_mean = y.reshape(params.hyper.n_ctx, params.hyper.dim).mean(axis=0)
    return ctx_mean, ctx_mean @ params.conversion


def represent_one(params, ids: list[int]) -> np.ndarray:
    """One document's h through `forward_one`."""
    return forward_one(params, params.embedding[np.asarray(ids, dtype=np.intp)].mean(axis=0))[1]


def cosine_one(h1: np.ndarray, h2: np.ndarray) -> float:
    """Clamped cosine of two vectors; bit-equal vectors score exactly 1.0."""
    if np.array_equal(h1, h2):
        return 1.0
    return min(1.0, max(-1.0, _cosine(h1, h2)))


def score_pairwise(params, reference: str, candidate: str, vocab) -> float:
    """The per-pair scorer: both texts encoded and represented one at a time."""
    max_len = params.hyper.max_len
    return cosine_one(represent_one(params, vocab.encode(reference, max_len)),
                      represent_one(params, vocab.encode(candidate, max_len)))


def _cosine_with_grads_one(h1: np.ndarray, h2: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    n1 = float(np.linalg.norm(h1))
    n2 = float(np.linalg.norm(h2))
    if n1 == 0.0 or n2 == 0.0:
        raise DegenerateRepresentationError("zero-norm document representation")
    sim = float(h1 @ h2) / (n1 * n2)
    g1 = h2 / (n1 * n2) - sim * h1 / n1**2
    g2 = h1 / (n1 * n2) - sim * h2 / n2**2
    return sim, g1, g2


def integrated_gradients_tiled(params, attributed: list[int], fixed: list[int], steps: int,
                               baseline_kind: str) -> tuple[np.ndarray, float, float]:
    """Closed-form IG per token through `forward_one` and the tiled proj_weight: (values, score, baseline score).

    Each endpoint is forwarded on its own and the path's cosine gradients are
    taken one point at a time.
    """
    emb = params.embedding[np.asarray(attributed, dtype=np.intp)]
    baseline = emb.copy() if baseline_kind == "input" else np.zeros_like(emb)
    h_fixed = represent_one(params, fixed)
    h_baseline = forward_one(params, baseline.mean(axis=0))[1]
    h_actual = forward_one(params, emb.mean(axis=0))[1]
    g_h = np.zeros_like(h_actual)
    for k in range(steps):
        g_h += _cosine_with_grads_one(h_fixed, h_baseline + (k + 0.5) / steps * (h_actual - h_baseline))[2]
    d_ctx = params.conversion @ (g_h / steps)
    n_ctx = params.hyper.n_ctx
    row_grad = params.proj_weight.T @ (np.tile(d_ctx, n_ctx) / n_ctx) / len(attributed)
    return ((emb - baseline) @ row_grad, _cosine_with_grads_one(h_fixed, h_actual)[0],
            _cosine_with_grads_one(h_fixed, h_baseline)[0])


def integrated_gradients_three_pass(params, reference: str, candidate: str, vocab, direction: str,
                                    steps: int, baseline_kind: str) -> AttributionResult:
    """`integrated_gradients` with three cosine calls: the `steps` midpoints, then each endpoint on its own.

    The zero baseline is a (tokens, dim) array of zeros whose mean is
    forwarded.  A zero-norm fixed document or midpoint fails in the first
    call, a zero-norm endpoint in the second or third.
    """
    max_len = params.hyper.max_len
    attributed_text, fixed_text = (
        (candidate, reference) if direction == "toward_candidate" else (reference, candidate)
    )
    ids = vocab.encode(attributed_text, max_len)
    emb = embedding_rows(params, check_ids(params, ids))
    fixed = embedding_rows(params, check_ids(params, vocab.encode(fixed_text, max_len)))
    baseline = np.zeros_like(emb) if baseline_kind == "zero" else emb
    rows = [fixed.mean(axis=0), emb.mean(axis=0)]
    if baseline is not emb:
        rows.append(baseline.mean(axis=0))
    means = block_means(params)
    _, h = forward(params, np.stack(rows), means)
    h_fixed, h_actual, h_baseline = h[0], h[1], h[-1]
    alphas = (np.arange(steps) + 0.5) / steps
    path = h_baseline + alphas[:, None] * (h_actual - h_baseline)
    try:
        g_h = cosine_with_grads(h_fixed, path)[2].mean(axis=0)
    except DegenerateRepresentationError as exc:
        raise DegenerateRepresentationError(
            f"zero-norm representation along the interpolation path; "
            f"try a different baseline ({exc})"
        ) from exc
    row_grad = means[0].T @ (params.conversion @ g_h) / len(ids)
    per_token_values = (emb - baseline) @ row_grad
    try:
        score_actual = cosine_with_grads(h_fixed, h_actual)[0]
        score_baseline = cosine_with_grads(h_fixed, h_baseline)[0]
    except DegenerateRepresentationError as exc:
        raise DegenerateRepresentationError(
            f"zero-norm representation at an interpolation endpoint; "
            f"try a different baseline ({exc})"
        ) from exc
    total = float(per_token_values.sum())
    return AttributionResult(
        direction=direction,
        per_token=list(zip(pieces_per_id(vocab, ids), per_token_values.tolist())),
        total=total,
        completeness_residual=abs(total - (score_actual - score_baseline)),
        steps=steps,
        score=score_actual,
        baseline_score=score_baseline,
    )


def integrated_gradients_grid(params, reference: str, candidate: str, vocab, direction: str, steps: int,
                              baseline_kind: str) -> AttributionResult:
    """`integrated_gradients` over a (steps + 2, D) grid: the `steps` midpoints, then both endpoints.

    One `cosine_with_grads(h_fixed, points)` call scores the fixed
    representation against every row of the grid; the path gradient is the
    mean of the midpoint rows' gradients.  A zero-norm fixed document or
    midpoint is on the path, a zero-norm endpoint (with neither) at an endpoint.
    """
    max_len = params.hyper.max_len
    attributed_text, fixed_text = (
        (candidate, reference) if direction == "toward_candidate" else (reference, candidate)
    )
    ids = vocab.encode(attributed_text, max_len)
    rows = embedding_rows(params, check_ids(params, ids + vocab.encode(fixed_text, max_len)))
    emb, fixed = rows[: len(ids)], rows[len(ids) :]
    emb_means = np.zeros((3 if baseline_kind == "zero" else 2, params.hyper.dim))
    emb_means[0] = np.add.reduce(fixed) / len(fixed)
    emb_means[1] = np.add.reduce(emb) / len(emb)
    means = block_means(params)
    _, h = forward(params, emb_means, means)
    h_fixed, h_actual, h_baseline = h[0], h[1], h[-1]
    alphas = (np.arange(steps) + 0.5) / steps
    points = np.empty((steps + 2, h.shape[1]))
    np.multiply(alphas[:, None], h_actual - h_baseline, out=points[:steps])
    points[:steps] += h_baseline
    points[steps], points[steps + 1] = h_actual, h_baseline
    try:
        sims, _, g_points = cosine_with_grads(h_fixed, points)
    except DegenerateRepresentationError as exc:
        on_path = not np.linalg.norm(np.vstack((h_fixed, points[:steps])), axis=-1).all()
        where = "along the interpolation path" if on_path else "at an interpolation endpoint"
        raise DegenerateRepresentationError(
            f"zero-norm representation {where}; try a different baseline ({exc})"
        ) from exc
    g_h = np.add.reduce(g_points[:steps]) / steps
    score_actual, score_baseline = sims[steps], sims[steps + 1]
    row_grad = means[0].T @ (params.conversion @ g_h) / len(ids)
    per_token_values = (emb if baseline_kind == "zero" else np.zeros_like(emb)) @ row_grad
    total = float(per_token_values.sum())
    return AttributionResult(
        direction=direction,
        per_token=list(zip(pieces_per_id(vocab, ids), per_token_values.tolist())),
        total=total,
        completeness_residual=abs(total - (score_actual - score_baseline)),
        steps=steps,
        score=score_actual,
        baseline_score=score_baseline,
    )


def integrated_gradients_midpoint(params, reference: str, candidate: str, vocab, direction: str, steps: int,
                                  baseline_kind: str) -> AttributionResult:
    """`integrated_gradients` as the midpoint rule over `steps` points of the path, in O(steps + D).

    A zero fixed representation or a midpoint with q exactly 0 is on the path.
    """
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


def integrated_gradients_per_pair(
    params: ModelParams,
    reference: str,
    candidate: str,
    vocab,
    direction: str = "toward_candidate",
    steps: int = DEFAULT_STEPS,
    baseline_kind: str = "zero",
) -> AttributionResult:
    """`integrated_gradients` as the package computed it one pair at a time, before the batched path.

    Each call gathers its two documents' rows, takes their means with
    `np.add.reduce` and forwards them with the zero baseline's mean, then
    takes the path integral through the scalar `path_means_per_pair`.

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
    m, c_perp, c_delta = path_means_per_pair(a, pp, alpha_star, float(h_fixed @ h_perp), float(h_fixed @ delta))
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


def path_means_per_pair(a: float, pp: float, alpha_star: float, f_perp: float, f_delta: float):
    """The package's `_path_means` for one pair, in scalar `math` calls.

    m, c⊥ and c_Δ: the integrals of q^(-1/2), w and tw over t ∈ [t0, t1] = [−α*, 1 − α*].

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


def integrated_gradients_decimal(h_fixed, h_baseline, h_actual, row, steps: int, digits: int = 50) -> float:
    """The midpoint rule's attribution to one embedding `row` when h is affine in it with unit slope.

    That is the one-token document of a model with N_c = 1 and W = C = I.
    The float64 representations are taken as exact, and every point
    h_0 + αΔ, norm and cosine gradient of the sum is evaluated in `digits`-digit
    decimal, however close a point comes to the origin.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        f, h_0, h_1, e = ([Decimal(float(x)) for x in v] for v in (h_fixed, h_baseline, h_actual, row))
        delta = [b - a for a, b in zip(h_0, h_1)]
        n_fixed = sum(x * x for x in f).sqrt()
        g = [Decimal(0)] * len(f)
        for k in range(steps):
            alpha = Decimal(2 * k + 1) / (2 * steps)
            h = [a + alpha * d for a, d in zip(h_0, delta)]
            q = sum(x * x for x in h)
            n = q.sqrt()
            f_dot_h = sum(a * b for a, b in zip(f, h))
            g = [gi + fi / (n_fixed * n) - f_dot_h * hi / (n_fixed * n * q) for gi, fi, hi in zip(g, f, h)]
        return float(sum(a * b for a, b in zip(e, g)) / steps)


def integrated_gradients_decimal_exact(h_fixed, h_baseline, h_actual, row, digits: int = 50) -> float:
    """The exact path integral's attribution to one embedding `row` when h is affine in it with unit slope.

    The line model of `integrated_gradients_decimal`, integrated exactly: in
    the h_0 basis, with q(α) = |h_0 + αΔ|² = Aα² + Bα + C and the textbook
    antiderivatives of q^(-1/2), q^(-3/2), α·q^(-3/2) and α²·q^(-3/2),
    evaluated in `digits`-digit decimal.  The line must miss the origin.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        f, h_0, h_1, e = ([Decimal(float(x)) for x in v] for v in (h_fixed, h_baseline, h_actual, row))
        delta = [b - a for a, b in zip(h_0, h_1)]
        dot = lambda u, v: sum(x * y for x, y in zip(u, v))  # noqa: E731
        big_a, big_b, big_c = dot(delta, delta), 2 * dot(h_0, delta), dot(h_0, h_0)
        disc = 4 * big_a * big_c - big_b * big_b
        root_a = big_a.sqrt()

        def antiderivatives(alpha):
            q = (big_a * alpha + big_b) * alpha + big_c
            root_q, slope = q.sqrt(), 2 * big_a * alpha + big_b
            # ln(2√(Aq) + slope), through (2√(Aq))² − slope² = disc where slope < 0.
            log = (2 * root_a * root_q + slope).ln() if slope >= 0 else disc.ln() - (2 * root_a * root_q - slope).ln()
            k_half = log / root_a
            k_0 = 2 * slope / (disc * root_q)
            k_1 = -2 * (2 * big_c + big_b * alpha) / (disc * root_q)
            return k_half, k_0, k_1, (k_half - big_b * k_1 - big_c * k_0) / big_a

        k_half, k_0, k_1, k_2 = (b - a for a, b in zip(antiderivatives(Decimal(0)), antiderivatives(Decimal(1))))
        f_0, f_delta = dot(f, h_0), dot(f, delta)
        g = [fi * k_half - f_0 * h0i * k_0 - (f_0 * di + f_delta * h0i) * k_1 - f_delta * di * k_2
             for fi, h0i, di in zip(f, h_0, delta)]
        return float(dot(e, g) / dot(f, f).sqrt())


def attribution_result_dict(result: AttributionResult) -> dict:
    """`AttributionResult.to_dict` with its seven fields listed by hand."""
    return {
        "direction": result.direction,
        "per_token": [[tok, val] for tok, val in result.per_token],
        "total": result.total,
        "completeness_residual": result.completeness_residual,
        "steps": result.steps,
        "score": result.score,
        "baseline_score": result.baseline_score,
    }


def attribution_gap_loop(params, pairs, vocab, steps: int, baseline_kind: str) -> tuple[float, float, float]:
    """`attribution_gap` with one `integrated_gradients_per_pair` call written out per candidate."""
    if not pairs:
        raise ValueError("pair list must be non-empty")
    correct_totals = []
    incorrect_totals = []
    for reference, correct, incorrect in pairs:
        correct_totals.append(
            integrated_gradients_per_pair(
                params, reference, correct, vocab, "toward_candidate", steps, baseline_kind
            ).total
        )
        incorrect_totals.append(
            integrated_gradients_per_pair(
                params, reference, incorrect, vocab, "toward_candidate", steps, baseline_kind
            ).total
        )
    mean_correct = float(np.mean(correct_totals)) * 100.0
    mean_incorrect = float(np.mean(incorrect_totals)) * 100.0
    return mean_correct, mean_incorrect, mean_correct - mean_incorrect


class BatchScheduleQueues:
    """`BatchSchedule` as per-dataset queues that `next_batch` walks with a cursor."""

    def __init__(self, datasets, batch_size: int, strategy: str = "interleaved",
                 curriculum_order: list[str] | None = None, rng: np.random.Generator | None = None) -> None:
        if strategy not in SCHEDULE_STRATEGIES:
            raise ValueError(f"unknown schedule strategy {strategy!r}")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if strategy == "contrastive_only":
            datasets = [d for d in datasets if d.has_contrastive]
        elif strategy == "random_negative":
            datasets = [d for d in datasets if not d.has_contrastive]
        elif strategy == "curriculum":
            if not curriculum_order:
                raise ValueError("curriculum schedule requires curriculum_order")
            by_name = {d.name: d for d in datasets}
            missing = [n for n in curriculum_order if n not in by_name]
            if missing:
                raise ValueError(f"curriculum_order names unknown datasets: {missing}")
            datasets = [by_name[n] for n in curriculum_order]
        if not any(d.items for d in datasets):
            raise ValueError(f"no non-empty dataset available for strategy {strategy!r}")
        self.datasets = datasets
        self.batch_size = batch_size
        self.strategy = strategy
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._queues: list[list[TripletBatch]] = []
        self._cursor = 0

    def start_epoch(self) -> None:
        order = list(range(len(self.datasets)))
        if self.strategy in ("interleaved", "contrastive_only", "random_negative"):
            order = [int(i) for i in self.rng.permutation(len(self.datasets))]
        self._queues = []
        for pos in order:
            ds = self.datasets[pos]
            perm = self.rng.permutation(len(ds.items))
            items = [ds.items[int(i)] for i in perm]
            batches = [
                TripletBatch(items=items[i : i + self.batch_size], source_dataset=ds.name)
                for i in range(0, len(items), self.batch_size)
            ]
            self._queues.append(batches)
        self._cursor = 0

    def next_batch(self) -> TripletBatch | None:
        if self.strategy in ("sequential", "curriculum"):
            for queue in self._queues:
                if queue:
                    return queue.pop(0)
            return None
        n = len(self._queues)
        for offset in range(n):
            idx = (self._cursor + offset) % n
            if self._queues[idx]:
                self._cursor = (idx + 1) % n
                return self._queues[idx].pop(0)
        return None


def train_accumulating(config, datasets, params_init):
    """`train` with an accumulation counter, over `BatchScheduleQueues`."""
    config.validate()
    params = params_init.copy(share_embedding=not params_init.embedding.flags.writeable)
    params.hyper.margin = config.margin
    state = init_optimizer(params, lr=config.lr, weight_decay=config.weight_decay)
    schedule = BatchScheduleQueues(datasets, config.batch_size, config.schedule_strategy,
                                   curriculum_order=config.curriculum_order,
                                   rng=np.random.default_rng(config.seed))
    report: list[dict] = []
    for epoch in range(config.epochs):
        state.lr = config.lr * config.lr_decay**epoch
        schedule.start_epoch()
        losses: list[float] = []
        accum: Gradients | None = None
        accum_count = 0
        while (batch := schedule.next_batch()) is not None:
            loss, grads = loss_and_grads(params, batch, config.train_embeddings)
            losses.append(loss)
            if accum is None:
                accum = grads
            else:
                accum.add_(grads)
            accum_count += 1
            if accum_count == config.grad_accum_steps:
                accum.scale_(1.0 / accum_count)
                adam_step(state, params, accum)
                accum = None
                accum_count = 0
        if accum is not None:
            accum.scale_(1.0 / accum_count)
            adam_step(state, params, accum)
        report.append({"epoch": epoch, "mean_loss": float(np.mean(losses)) if losses else 0.0,
                       "lr": state.lr, "batches": len(losses)})
    return params.freeze(), report


def zero_gradients(params, train_embeddings: bool = True) -> Gradients:
    """Gradients over all rows of the table, every value zero."""
    dim = params.hyper.dim
    return Gradients(
        embedding=np.zeros_like(params.embedding) if train_embeddings else None,
        embedding_rows=np.arange(params.vocab_size) if train_embeddings else None,
        proj_weight=np.zeros((dim, dim)),
        proj_bias=np.zeros(dim),
        conversion=np.zeros((dim, dim)),
    )


def dense_tensor(params, name: str, value: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """`value` in the shape of parameter `name`: the listed rows scattered into
    zeros, or a shared projection block tiled N_c times; anything else as is."""
    shape = getattr(params, name).shape
    if rows is not None:
        out = np.zeros(shape)
        out[rows] = value
        return out
    if name in ("proj_weight", "proj_bias") and value.shape != shape:
        return np.tile(value, (params.hyper.n_ctx,) + (1,) * (value.ndim - 1))
    return value


def densify(params, grads) -> dict[str, np.ndarray | None]:
    """Gradients in the parameters' own shapes: rows scattered, blocks tiled, None kept for a frozen table."""
    dense = {name: dense_tensor(params, name, getattr(grads, name)) for name in TENSOR_NAMES[1:]}
    dense["embedding"] = (
        None if grads.embedding is None
        else dense_tensor(params, "embedding", grads.embedding, grads.embedding_rows)
    )
    return dense


def _shared_block(tensor: np.ndarray, n_ctx: int) -> np.ndarray:
    """The one block that all n_ctx stacked blocks of a dense projection gradient must equal."""
    blocks = tensor.reshape(n_ctx, tensor.shape[0] // n_ctx, *tensor.shape[1:])
    if not (blocks == blocks[0]).all():
        raise AssertionError("projection blocks received different gradients")
    return blocks[0].copy()


def _doc_backward(params, ids: list[int], emb_sum: np.ndarray, ctx_mean: np.ndarray,
                  dh: np.ndarray, grads: dict) -> None:
    """Accumulate d(loss)/d(tensors) for one document given dh = d(loss)/d(h)."""
    n_ctx = params.hyper.n_ctx
    length = len(ids)
    grads["conversion"] += np.outer(ctx_mean, dh)
    d_ctx = params.conversion @ dh
    u = np.tile(d_ctx, n_ctx) / (n_ctx * length)
    grads["proj_weight"] += np.outer(u, emb_sum)
    grads["proj_bias"] += u * length
    if grads["embedding"] is not None:
        d_emb = params.proj_weight.T @ u
        np.add.at(grads["embedding"], np.asarray(ids, dtype=np.intp), d_emb)


def loss_and_grads_loop(params, batch, train_embeddings: bool = True):
    """The per-item trainer: each triplet's three documents forwarded and back-propagated one at a time.

    Accumulates dense gradients of the parameters' own shapes, then returns
    them as `Gradients`: the batch's distinct rows of the table and the one
    projection block that every block received.
    """
    if not batch.items:
        raise ValueError("batch must be non-empty")
    m = params.hyper.margin
    scale = 1.0 / len(batch.items)
    grads = {name: np.zeros_like(getattr(params, name)) for name in TENSOR_NAMES}
    if not train_embeddings:
        grads["embedding"] = None
    total = 0.0
    for idx, item in enumerate(batch.items):
        emb_sums = [params.embedding[np.asarray(ids, dtype=np.intp)].sum(axis=0) for ids in item]
        ctx, (h_r, h_c, h_i) = zip(*(forward_one(params, s / len(ids)) for s, ids in zip(emb_sums, item)))
        try:
            sim_c, g_r_c, g_c = _cosine_with_grads_one(h_r, h_c)
            sim_i, g_r_i, g_i = _cosine_with_grads_one(h_r, h_i)
        except DegenerateRepresentationError as exc:
            raise DegenerateRepresentationError(
                f"item {idx} of batch from {batch.source_dataset!r}: {exc}"
            ) from exc
        loss = max(0.0, m + sim_i - sim_c)
        total += loss
        if loss <= 0.0:
            continue
        upstream = ((g_r_i - g_r_c) * scale, -g_c * scale, g_i * scale)
        for ids, emb_sum, ctx_mean, dh in zip(item, emb_sums, ctx, upstream):
            _doc_backward(params, ids, emb_sum, ctx_mean, dh, grads)
    for name, g in grads.items():
        if g is not None and not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in {name}")
    rows = np.unique([i for item in batch.items for ids in item for i in ids]) if train_embeddings else None
    return total * scale, Gradients(
        embedding=None if rows is None else grads["embedding"][rows],
        embedding_rows=rows,
        proj_weight=_shared_block(grads["proj_weight"], params.hyper.n_ctx),
        proj_bias=_shared_block(grads["proj_bias"], params.hyper.n_ctx),
        conversion=grads["conversion"],
    )


def dense_moments(state, params, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Copies of the state's moments of `name` in the parameter's shape: the
    compact embedding rows scattered to their live_rows, blocks tiled."""
    rows = state.live_rows if name == "embedding" else None
    return tuple(dense_tensor(params, name, moments[name], rows)
                 for moments in (state.first_moment, state.second_moment))


def _dense_moments(state, params, name: str) -> tuple[np.ndarray, np.ndarray]:
    """The state's moments of `name`, made dense in place and kept; every table row then counts as live."""
    state.first_moment[name], state.second_moment[name] = dense_moments(state, params, name)
    if name == "embedding":
        state.live_rows = np.arange(params.vocab_size)
    return state.first_moment[name], state.second_moment[name]


def adam_step_loop(state, params, grads):
    """Adam with bias correction and decoupled weight decay, written out with whole-tensor temporaries.

    Works on every entry of every tensor: the gradients are densified and
    the moments tiled to the parameters' shapes on the way in.
    """
    grads = densify(params, grads)
    state.step_count += 1
    t = state.step_count
    lr = state.lr
    for name in TENSOR_NAMES:
        g = grads[name]
        if g is None:
            continue
        theta = getattr(params, name)
        if g.shape != theta.shape:
            raise ShapeError(f"{name}: gradient shape {g.shape} != parameter shape {theta.shape}")
        m, v = _dense_moments(state, params, name)
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        m_hat = m / (1.0 - BETA1**t)
        v_hat = v / (1.0 - BETA2**t)
        theta -= lr * (m_hat / (np.sqrt(v_hat) + EPSILON) + state.weight_decay * theta)
    return params, state


def adam_step_dense(state, params, grads):
    """The dense in-place Adam that the row-lazy, block-shared `adam_step` replaced.

    Every entry of every tensor, in the same arithmetic and order as
    `adam_step` (bias corrections folded into two scalars, decay as
    theta *= 1 - lr * wd), so the two must agree bit for bit.  `adam_step_loop`
    rounds differently and is matched to a tolerance instead.
    """
    grads = densify(params, grads)
    state.step_count += 1
    t = state.step_count
    lr = state.lr
    b1, b2 = BETA1, BETA2
    step = lr * math.sqrt(1.0 - b2**t) / (1.0 - b1**t)
    eps_hat = EPSILON * math.sqrt(1.0 - b2**t)
    for name in TENSOR_NAMES:
        g = grads[name]
        if g is None:
            continue
        theta = getattr(params, name)
        m, v = _dense_moments(state, params, name)
        m *= b1
        m += g * (1.0 - b1)
        v *= b2
        v += g * (1.0 - b2) * g
        theta *= 1.0 - lr * state.weight_decay
        theta -= m / (np.sqrt(v) + eps_hat) * step
    return params, state


def save_checkpoint_buffered(params, path: str) -> None:
    """The checkpoint writer that assembled the whole file in one bytearray before writing it."""
    params.validate()
    payload = bytearray()
    payload += MAGIC
    payload += struct.pack("<I", VERSION)
    manifest = json.dumps(
        {
            "D": params.hyper.dim,
            "N_c": params.hyper.n_ctx,
            "vocab_size": params.vocab_size,
            "max_len": params.hyper.max_len,
            "margin": params.hyper.margin,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    payload += struct.pack("<Q", len(manifest))
    payload += manifest
    for name in TENSOR_NAMES:
        tensor = np.ascontiguousarray(getattr(params, name), dtype=np.float64)
        encoded = name.encode("utf-8")
        payload += struct.pack("<I", len(encoded))
        payload += encoded
        payload += struct.pack("<I", tensor.ndim)
        for dim in tensor.shape:
            payload += struct.pack("<Q", dim)
        payload += tensor.astype("<f4").tobytes(order="C")
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _BytesReader:
    def __init__(self, data: bytes, path: str) -> None:
        self.data = data
        self.offset = 0
        self.path = path

    def take(self, count: int) -> bytes:
        if self.offset + count > len(self.data):
            raise CheckpointFormatError(
                f"{self.path}: truncated at byte {self.offset} (needed {count} more)"
            )
        chunk = self.data[self.offset : self.offset + count]
        self.offset += count
        return chunk

    def remaining(self) -> int:
        return len(self.data) - self.offset

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def load_checkpoint_bytes(path: str) -> ModelParams:
    """The checkpoint reader that copied the file into bytes, then each tensor into its own bytes."""
    with open(path, "rb") as fh:
        reader = _BytesReader(fh.read(), path)
    if reader.take(4) != MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic bytes")
    version = reader.u32()
    if version != VERSION:
        raise CheckpointFormatError(f"{path}: unsupported container version {version}")
    manifest_len = reader.u64()
    try:
        manifest = json.loads(reader.take(manifest_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointFormatError(f"{path}: unreadable manifest ({exc})") from exc
    _check_manifest(manifest, path)

    tensors: dict[str, np.ndarray] = {}
    while reader.offset < len(reader.data):
        start = reader.offset
        try:
            name = reader.take(reader.u32()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointFormatError(f"{path}: tensor name at byte {start} is not UTF-8 ({exc})") from exc
        if name in tensors:
            raise CheckpointIntegrityError(f"{path}: duplicate tensor {name!r}")
        rank_at = reader.offset
        rank = reader.u32()
        if rank > MAX_RANK or 8 * rank > reader.remaining():
            raise CheckpointFormatError(
                f"{path}: tensor {name!r} at byte {rank_at} has rank {rank}, "
                f"above {MAX_RANK} or more dims than the {reader.remaining()} bytes left hold"
            )
        dims = tuple(reader.u64() for _ in range(rank))
        nbytes = 4 * math.prod(dims)
        if nbytes > reader.remaining():
            raise CheckpointFormatError(
                f"{path}: tensor {name!r} at byte {rank_at} has dims {dims} ({nbytes} bytes), "
                f"but only {reader.remaining()} bytes remain"
            )
        raw = reader.take(nbytes)
        tensors[name] = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(dims)
    missing = [n for n in TENSOR_NAMES if n not in tensors]
    if missing:
        raise CheckpointIntegrityError(f"{path}: missing tensors {missing}")
    extra = [n for n in tensors if n not in TENSOR_NAMES]
    if extra:
        raise CheckpointIntegrityError(f"{path}: unexpected tensors {extra}")

    d, n_ctx, vocab_size = manifest["D"], manifest["N_c"], manifest["vocab_size"]
    expected = {
        "embedding": (vocab_size, d),
        "proj_weight": (n_ctx * d, d),
        "proj_bias": (n_ctx * d,),
        "conversion": (d, d),
    }
    for name, shape in expected.items():
        if tensors[name].shape != shape:
            raise CheckpointIntegrityError(
                f"{path}: tensor {name!r} has shape {tensors[name].shape}, manifest implies {shape}"
            )
    params = ModelParams(
        embedding=tensors["embedding"],
        proj_weight=tensors["proj_weight"],
        proj_bias=tensors["proj_bias"],
        conversion=tensors["conversion"],
        hyper=Hyper(dim=d, n_ctx=n_ctx, max_len=manifest["max_len"], margin=float(manifest["margin"])),
    )
    params.validate()
    return params


def path_integral_attributions(grad_fn, inputs: np.ndarray, baseline: np.ndarray, steps: int) -> np.ndarray:
    """Midpoint-rule integrated gradients of an arbitrary scalar function.

    grad_fn maps a point shaped like `inputs` to the gradient at that point.
    Exact for linear functions at any step count >= 1.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    inputs = np.asarray(inputs, dtype=np.float64)
    baseline = np.asarray(baseline, dtype=np.float64)
    if inputs.shape != baseline.shape:
        raise ValueError(f"baseline shape {baseline.shape} != input shape {inputs.shape}")
    delta = inputs - baseline
    grad_sum = np.zeros_like(inputs)
    for k in range(steps):
        alpha = (k + 0.5) / steps
        grad_sum += grad_fn(baseline + alpha * delta)
    return delta * (grad_sum / steps)


def score_grad_tiled(params, emb: np.ndarray, h_fixed: np.ndarray) -> np.ndarray:
    """Gradient of cos(h_fixed, h(emb)) with respect to the whole (L, dim) embedding matrix."""
    n_ctx, dim = params.hyper.n_ctx, params.hyper.dim
    length = emb.shape[0]
    y = params.proj_weight @ emb.mean(axis=0) + params.proj_bias
    h = y.reshape(n_ctx, dim).mean(axis=0) @ params.conversion
    n_f, n_h = np.linalg.norm(h_fixed), np.linalg.norm(h)
    g_h = h_fixed / (n_f * n_h) - _cosine(h_fixed, h) * h / n_h**2
    d_emb_row = params.proj_weight.T @ (np.tile(params.conversion @ g_h, n_ctx) / n_ctx) / length
    return np.tile(d_emb_row, (length, 1))


def finite_difference_gradients(loss_fn, params, names, step: float = 1e-4) -> dict[str, np.ndarray]:
    """Central differences of loss_fn(params) over every entry of each named tensor."""
    grads = {}
    for name in names:
        tensor = getattr(params, name)
        grad = np.zeros_like(tensor)
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            original = tensor[ix]
            tensor[ix] = original + step
            loss_plus = loss_fn(params)
            tensor[ix] = original - step
            loss_minus = loss_fn(params)
            tensor[ix] = original
            grad[ix] = (loss_plus - loss_minus) / (2.0 * step)
        grads[name] = grad
    return grads


def wasserstein_quantile_bruteforce(a, b) -> float:
    """Mean absolute quantile gap on the common n*m grid of both samples."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    qa = np.repeat(a, b.size)
    qb = np.repeat(b, a.size)
    return float(np.mean(np.abs(qa - qb)))


def macro_f1_confusion(correct_rescaled, incorrect_rescaled) -> float:
    tp = fp = tn = fn = 0
    for s in correct_rescaled:
        if s > 0.5:
            tp += 1
        else:
            fn += 1
    for s in incorrect_rescaled:
        if s > 0.5:
            fp += 1
        else:
            tn += 1

    def f1(true_pos, false_pos, false_neg):
        p = true_pos / (true_pos + false_pos) if true_pos + false_pos else 0.0
        r = true_pos / (true_pos + false_neg) if true_pos + false_neg else 0.0
        return 2 * p * r / (p + r) if p + r else 0.0

    return (f1(tp, fp, fn) + f1(tn, fn, fp)) / 2.0 * 100.0


def ccc_direct(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.size
    mx = sum(x) / n
    my = sum(y) / n
    vx = sum((v - mx) ** 2 for v in x) / n
    vy = sum((v - my) ** 2 for v in y) / n
    cov = sum((u - mx) * (v - my) for u, v in zip(x, y)) / n
    return 2.0 * cov / (vx + vy + (mx - my) ** 2)


def lcs_length_dp(a: list[str], b: list[str]) -> int:
    """Longest common subsequence length by the O(len(a) * len(b)) row DP."""
    prev = [0] * (len(b) + 1)
    for a_tok in a:
        cur = [0] * (len(b) + 1)
        for j, b_tok in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if a_tok == b_tok else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_n_f1_counter(reference: str | list[str], candidate: str | list[str], n: int) -> float:
    """ROUGE-N F1 from one Counter of n-grams per text: the one-pair code the batched table replaced."""
    ref = _WORD.findall(reference.lower()) if isinstance(reference, str) else reference
    cand = _WORD.findall(candidate.lower()) if isinstance(candidate, str) else candidate
    ref_grams = Counter(zip(*(ref[i:] for i in range(n)))) if len(ref) >= n else Counter()
    cand_grams = Counter(zip(*(cand[i:] for i in range(n)))) if len(cand) >= n else Counter()
    if not ref_grams or not cand_grams:
        return 0.0
    overlap = sum(min(count, ref_grams[gram]) for gram, count in cand_grams.items())
    if overlap == 0:
        return 0.0
    precision = overlap / sum(cand_grams.values())
    recall = overlap / sum(ref_grams.values())
    return 2 * precision * recall / (precision + recall)


def rouge_l_f1_dp(reference: str, candidate: str) -> float:
    """ROUGE-L F1 with the LCS taken from the DP above."""
    ref = _WORD.findall(reference.lower())
    cand = _WORD.findall(candidate.lower())
    if not ref or not cand:
        return 0.0
    lcs = lcs_length_dp(ref, cand)
    if lcs == 0:
        return 0.0
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    return 2 * precision * recall / (precision + recall)


def rescale_scalar(score: float, metric_range) -> float:
    """One score's affine map onto [0, 1], as a Python float."""
    if not np.isfinite(score):
        raise ValueError(f"score must be finite, got {score}")
    if metric_range.kind == "cosine_like":
        return (score + 1.0) / 2.0
    if metric_range.kind == "percent":
        return score / 100.0
    return float(score)


def paired_gaps_scalar(table, metric: str, metric_range) -> list[float]:
    """Rescaled correct-minus-incorrect gap per id carrying both labels, one scalar rescale at a time."""
    correct: dict[tuple[str, str], float] = {}
    incorrect: dict[tuple[str, str], float] = {}
    for row in table.rows:
        if metric not in row.scores:
            continue
        side = correct if row.label == "correct" else incorrect
        side[(row.dataset, row.id)] = row.scores[metric]
    r = MetricRange(metric, metric_range.kind)
    return [
        rescale_scalar(correct[key], r) - rescale_scalar(incorrect[key], r)
        for key in correct
        if key in incorrect
    ]


def agreement_rows_scalar(table, metrics, rating_scales) -> list[tuple[dict, float]]:
    """Per row: each metric's rescaled score and the rescaled human score."""
    rows = []
    for row in table.rows:
        lo, hi = rating_scales.get(row.dataset, (0.0, 1.0))
        human = (row.human_score - lo) / (hi - lo)
        rows.append(({m.name: rescale_scalar(row.scores[m.name], m) for m in metrics}, human))
    return rows


def rank_at_1_rows(rows, metrics) -> dict[str, float]:
    """Rank@1 from `agreement_rows_scalar` rows: every (tied-)closest metric of a row earns it."""
    credits = {m.name: 0 for m in metrics}
    for scores, human in rows:
        best = min(abs(value - human) for value in scores.values())
        for name, value in scores.items():
            if abs(value - human) == best:
                credits[name] += 1
    return {name: 100.0 * count / len(rows) for name, count in credits.items()}


def dcg_rows(rows, metrics) -> dict[str, float]:
    """DCG from `agreement_rows_scalar` rows, ranks by distance to the human rating, ties by name."""
    m_count = len(metrics)
    totals = {m.name: 0.0 for m in metrics}
    for scores, human in rows:
        ordered = sorted(scores, key=lambda name: (abs(scores[name] - human), name))
        for rank, name in enumerate(ordered, start=1):
            totals[name] += 100.0 * (m_count - rank + 1) / (m_count * np.log2(rank + 1))
    return {name: total / len(rows) for name, total in totals.items()}


def _agreement_columns_scalar(table, metrics, rating_scales) -> tuple[dict, list]:
    rows = agreement_rows_scalar(table, metrics, rating_scales or {})
    return {m.name: [scores[m.name] for scores, _ in rows] for m in metrics}, [human for _, human in rows]


def rank_at_1_table(table, metrics, rating_scales=None) -> dict[str, float]:
    """Rank@1 as `evaluation.rank_at_1` computed it from a table, before it took prebuilt columns."""
    columns, humans = _agreement_columns_scalar(table, metrics, rating_scales)
    credits = Counter()
    for k, human in enumerate(humans):
        diffs = {name: abs(column[k] - human) for name, column in columns.items()}
        best = min(diffs.values())
        for name, diff in diffs.items():
            if diff == best:
                credits[name] += 1
    return {m.name: 100.0 * credits[m.name] / len(humans) for m in metrics}


def dcg_table(table, metrics, rating_scales=None) -> dict[str, float]:
    """DCG as `evaluation.dcg` computed it from a table, before it took prebuilt columns."""
    columns, humans = _agreement_columns_scalar(table, metrics, rating_scales)
    m_count = len(metrics)
    totals = {m.name: 0.0 for m in metrics}
    for k, human in enumerate(humans):
        ordered = sorted(columns, key=lambda name: (abs(columns[name][k] - human), name))
        for rank, name in enumerate(ordered, start=1):
            totals[name] += 100.0 * (m_count - rank + 1) / (m_count * np.log2(rank + 1))
    return {name: total / len(humans) for name, total in totals.items()}


def evaluation_report_assembled(table, metric_ranges: dict, rating_scales: dict) -> dict:
    """The separation and agreement sections exactly as `matcha evaluate` assembled them inline."""
    ranges = {
        "matcha": MetricRange("matcha", "cosine_like"),
        "rouge1": MetricRange("rouge1", "unit"),
        "rouge2": MetricRange("rouge2", "unit"),
        "rougeL": MetricRange("rougeL", "unit"),
    }
    ranges.update(metric_ranges)
    dataset_names = sorted({r.dataset for r in table.rows})
    metric_names = sorted({m for r in table.rows for m in r.scores})

    separation: dict[str, dict[str, dict]] = {}
    for ds in dataset_names:
        sub = RowTable(rows=[r for r in table.rows if r.dataset == ds])
        per_metric = {}
        for metric in metric_names:
            r = ranges.get(metric, MetricRange(metric, "unit"))
            if sub.labeled_scores(metric, "correct") and sub.labeled_scores(metric, "incorrect"):
                per_metric[metric] = separation_report_rows(sub, metric, r).to_dict()
        if per_metric:
            separation[ds] = per_metric

    agreement: dict[str, dict[str, float]] = {}
    human_rows = [r for r in table.rows if r.human_score is not None]
    if human_rows:
        covered = [m for m in metric_names if all(m in r.scores for r in human_rows)]
        if covered:
            range_list = [ranges.get(m, MetricRange(m, "unit")) for m in covered]
            rows = agreement_rows_scalar(RowTable(rows=human_rows), range_list, rating_scales)
            agreement["rank_at_1"] = rank_at_1_rows(rows, range_list)
            agreement["dcg"] = dcg_rows(rows, range_list)
            ccc_scores = {}
            for metric_range in range_list:
                humans, values = [], []
                for row in human_rows:
                    lo, hi = rating_scales.get(row.dataset, (0.0, 1.0))
                    humans.append((row.human_score - lo) / (hi - lo))
                    values.append(rescale_scalar(row.scores[metric_range.name], metric_range))
                ccc_scores[metric_range.name] = ccc(values, humans) * 100.0
            agreement["ccc"] = ccc_scores
    return {"separation": separation, "agreement": agreement}


# --- The row-based score table and report, as the package had them before
# the columnar ScoreTable: one ScoreRow object per scored pair.


@dataclass
class ScoreRow:
    """Scores of one (reference, candidate) pair under every computed metric."""

    id: str
    label: str  # "correct" | "incorrect"
    dataset: str = ""
    scores: dict[str, float] = field(default_factory=dict)
    human_score: float | None = None

    def __post_init__(self) -> None:
        if self.label not in ("correct", "incorrect"):
            raise ValueError(f"label must be 'correct' or 'incorrect', got {self.label!r}")


@dataclass
class RowTable:
    rows: list[ScoreRow] = field(default_factory=list)

    def labeled_scores(self, metric: str, label: str) -> list[float]:
        return [r.scores[metric] for r in self.rows if r.label == label and metric in r.scores]

    def paired_gaps(self, metric: str, metric_range: MetricRange) -> np.ndarray:
        """Rescaled correct-minus-incorrect gap for every id carrying both labels, in first-seen order."""
        correct: dict[tuple[str, str], float] = {}
        incorrect: dict[tuple[str, str], float] = {}
        for row in self.rows:
            if metric not in row.scores:
                continue
            side = correct if row.label == "correct" else incorrect
            side[(row.dataset, row.id)] = row.scores[metric]
        keys = [key for key in correct if key in incorrect]
        if not keys:
            return np.empty(0)
        return rescale([correct[k] for k in keys], metric_range) - rescale([incorrect[k] for k in keys], metric_range)

    def merge_external(self, path: str) -> None:
        """Merge a JSONL of {"id", "metric", "score"} rows (optional "label", "dataset")."""
        index = {(r.dataset, r.id, r.label): r for r in self.rows}
        for lineno, line in read_lines(path, SchemaError):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(obj, dict) or "id" not in obj or "metric" not in obj or "score" not in obj:
                raise SchemaError(f"{path}: line {lineno}: need 'id', 'metric', 'score'")
            score = obj["score"]
            if isinstance(score, bool) or not isinstance(score, (int, float)) or not abs(score) <= sys.float_info.max:
                raise SchemaError(f"{path}: line {lineno}: 'score' must be a finite number, got {json.dumps(score)}")
            label = obj.get("label", "correct")
            if label not in ("correct", "incorrect"):
                raise SchemaError(
                    f"{path}: line {lineno}: 'label' must be 'correct' or 'incorrect', got {json.dumps(label)}"
                )
            dataset = obj.get("dataset", "")
            if not isinstance(dataset, str):
                raise SchemaError(f"{path}: line {lineno}: 'dataset' must be a string, got {json.dumps(dataset)}")
            key = (dataset, str(obj["id"]), label)
            row = index.get(key)
            if row is None:
                row = ScoreRow(id=str(obj["id"]), label=label, dataset=dataset)
                self.rows.append(row)
                index[key] = row
            row.scores[str(obj["metric"])] = float(score)


def columnar(table: RowTable) -> ScoreTable:
    """The columnar ScoreTable of a row table, row for row."""
    rows = table.rows
    metrics = list(dict.fromkeys(name for r in rows for name in r.scores))
    return ScoreTable(
        ids=[r.id for r in rows],
        datasets=[r.dataset for r in rows],
        correct=[r.label == "correct" for r in rows],
        human=[0.0 if r.human_score is None else r.human_score for r in rows],
        rated=[r.human_score is not None for r in rows],
        scores={m: [r.scores.get(m, 0.0) for r in rows] for m in metrics},
        present={m: [m in r.scores for r in rows] for m in metrics},
    )


def rows_of(table: ScoreTable) -> list[ScoreRow]:
    """A columnar table's rows as ScoreRow objects, each holding only its present scores."""
    return [
        ScoreRow(
            id=table.ids[k],
            label="correct" if table.correct[k] else "incorrect",
            dataset=table.datasets[k],
            scores={m: float(column[k]) for m, column in table.scores.items() if table.present[m][k]},
            human_score=float(table.human[k]) if table.rated[k] else None,
        )
        for k in range(len(table))
    ]


def threshold_curve_loop(pair_gaps, grid=None) -> list[tuple[float, float]]:
    """Percentage of pairs whose rescaled gap strictly exceeds each threshold, one threshold at a time."""
    gaps = np.asarray(list(pair_gaps), dtype=np.float64)
    if gaps.size == 0:
        raise ValueError("pair gap list must be non-empty")
    if grid is None:
        grid = DEFAULT_THRESHOLD_GRID
    return [(float(t), float(100.0 * np.count_nonzero(gaps > t) / gaps.size)) for t in grid]


def n_delta_ranged(correct, incorrect, metric_range: MetricRange) -> float:
    """`n_delta` as it was when it rescaled its raw scores itself."""
    return float(
        (rescale(correct, metric_range).mean() - rescale(incorrect, metric_range).mean()) * 100.0
    )


def macro_f1_midpoint_ranged(correct, incorrect, metric_range: MetricRange) -> float:
    """`macro_f1_midpoint` as it was when it rescaled its raw scores itself."""
    pos = rescale(correct, metric_range) > 0.5
    neg = rescale(incorrect, metric_range) > 0.5
    tp, fn = int(pos.sum()), int((~pos).sum())
    fp, tn = int(neg.sum()), int((~neg).sum())
    f1_positive = _f1(tp, fp, fn)
    f1_negative = _f1(tn, fn, fp)
    return (f1_positive + f1_negative) / 2.0 * 100.0


def separation_report_rows(table: RowTable, metric: str, metric_range: MetricRange, grid=None) -> SeparationReport:
    """Every separation statistic for one metric over a row table."""
    correct = table.labeled_scores(metric, "correct")
    incorrect = table.labeled_scores(metric, "incorrect")
    if not correct or not incorrect:
        raise ValueError(f"table has no labeled {metric!r} scores on both sides")
    gaps = table.paired_gaps(metric, metric_range)
    return SeparationReport(
        metric=metric,
        pairs=len(gaps),
        mean_correct=float(np.mean(correct)) * 100.0,
        mean_incorrect=float(np.mean(incorrect)) * 100.0,
        n_delta=n_delta_ranged(correct, incorrect, metric_range),
        macro_f1=macro_f1_midpoint_ranged(correct, incorrect, metric_range),
        wasserstein=wasserstein_1d(rescale(correct, metric_range), rescale(incorrect, metric_range)) * 100.0,
        threshold_curve=threshold_curve_loop(gaps, grid) if gaps.size else [],
    )


def agreement_columns_rows(table: RowTable, metrics: list[MetricRange], rating_scales: dict | None = None):
    """Each metric's rescaled scores and the rescaled human scores, one entry per row, validated."""
    if not metrics:
        raise ValueError("metrics list must be non-empty")
    if not table.rows:
        raise ValueError("score table is empty")
    humans = []
    for row in table.rows:
        if row.human_score is None:
            raise MatchaError(f"row {row.id!r} ({row.label}) has no human score")
        missing = [m for m in metrics if m.name not in row.scores]
        if missing:
            raise MatchaError(f"row {row.id!r} lacks scores for {[m.name for m in missing]}")
        lo, hi = (rating_scales or {}).get(row.dataset, (0.0, 1.0))
        humans.append((row.human_score - lo) / (hi - lo))
    columns = {m.name: rescale([row.scores[m.name] for row in table.rows], m).tolist() for m in metrics}
    return columns, humans


def evaluation_report_rows(table: RowTable, ranges=None, rating_scales=None) -> dict[str, dict]:
    """`evaluation.evaluation_report` over a row table, as the package computed it before the columnar table."""
    ranges = {**DEFAULT_RANGES, **(ranges or {})}
    metrics = [
        MetricRange(name, ranges[name].kind if name in ranges else "unit")
        for name in sorted({name for r in table.rows for name in r.scores})
    ]
    separation: dict[str, dict[str, dict]] = {}
    for ds in sorted({r.dataset for r in table.rows}):
        sub = RowTable(rows=[r for r in table.rows if r.dataset == ds])
        per_metric = {
            m.name: separation_report_rows(sub, m.name, m).to_dict()
            for m in metrics
            if sub.labeled_scores(m.name, "correct") and sub.labeled_scores(m.name, "incorrect")
        }
        if per_metric:
            separation[ds] = per_metric

    agreement: dict[str, dict[str, float]] = {}
    rated = RowTable(rows=[r for r in table.rows if r.human_score is not None])
    covered = [m for m in metrics if all(m.name in r.scores for r in rated.rows)]
    if rated.rows and covered:
        columns, humans = agreement_columns_rows(rated, covered, rating_scales)
        agreement = {
            "rank_at_1": rank_at_1(columns, humans),
            "dcg": dcg(columns, humans),
            "ccc": {name: ccc(column, humans) * 100.0 for name, column in columns.items()},
        }
    return {"separation": separation, "agreement": agreement}


# --- The corpus reader as the package had it before every JSONL file went
# through `errors.read_jsonl`: its own binary line loop, which splits lines
# at "\n" only, and its own record checks.


def _parse_record(obj: dict, lineno: int, default_dataset: str) -> Record:
    if not isinstance(obj, dict):
        raise SchemaError(f"line {lineno}: expected a JSON object")
    for key in ("reference", "correct"):
        value = obj.get(key)
        if not isinstance(value, str) or not value.strip():
            raise SchemaError(f"line {lineno}: missing or empty {key!r}")
    incorrect = obj.get("incorrect")
    if incorrect is not None and (not isinstance(incorrect, str) or not incorrect.strip()):
        raise SchemaError(f"line {lineno}: 'incorrect' must be a non-empty string or null")
    human = obj.get("human_score")
    if human is not None and (isinstance(human, bool) or not isinstance(human, (int, float))):
        raise SchemaError(f"line {lineno}: 'human_score' must be a number or null")
    rec_id = obj.get("id")
    if rec_id is not None and not isinstance(rec_id, str):
        raise SchemaError(f"line {lineno}: 'id' must be a string or null")
    return Record(
        reference=obj["reference"],
        correct=obj["correct"],
        incorrect=incorrect,
        dataset=obj.get("dataset") or default_dataset,
        human_score=None if human is None else float(human),
        id=rec_id or f"line{lineno}",
    )


def load_jsonl_binary(path: str, *, default_dataset: str = "") -> list[Record]:
    """`data.load_jsonl` as it read a file: binary lines, each decoded and parsed on its own."""
    records: list[Record] = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise SchemaError(f"{path}: line {lineno}: not UTF-8 at byte {exc.start} of the line") from None
            if not line.strip():
                continue
            try:
                records.append(_parse_record(json.loads(line), lineno, default_dataset))
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from None
            except SchemaError as exc:
                raise SchemaError(f"{path}: {exc}") from None
    return records
