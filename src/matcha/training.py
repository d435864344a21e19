"""Margin contrastive training: exact gradients, Adam with decoupled weight decay, batch schedules.

The forward graph is affine in every tensor (lookup, affine projection,
linear conversion, mean pooling) followed by cosine similarity and a hinge,
so reverse-mode gradients are computed in closed form.

`loss_and_grads` handles a micro-batch of B triplets in one vectorised pass
over its 3B documents.  Their token ids are flattened, and one bincount
builds a (3B, U) matrix of how often each of the batch's U distinct ids
occurs in each document.  The documents' embedding sums are then
counts @ E[uniq], and all of them go through the one `model.forward`.  Mean
pooling gives every token of a document the same upstream gradient, so the
backward is a few D x D products, and the gradient of the U touched
embedding rows is countsᵀ times the per-document row gradient.  No
(tokens x D) array is built: a batch of ~400-token documents holds ~19k
tokens, and at D=64 each such array would add ~10 MB of peak memory.  The
count matrix has U <= min(tokens, vocabulary) columns instead.

Gradients hold only what the loss can make non-zero.  The embedding
gradient lists the batch's touched rows, not the (V, D) table: a GPT-2
batch of 16 touches about 2k of 50,257 rows.  The N_c projection blocks
reach the loss only through their mean, so they always share one gradient,
and `proj_weight`/`proj_bias` carry that one (D, D)/(D,) block.  `adam_step`
keeps its moments in the same shapes and updates them in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, zip_longest

import numpy as np

from .errors import DegenerateRepresentationError, EmptyInputError, NumericError, ShapeError
from .model import TENSOR_NAMES, ModelParams, block_means, check_ids, cosine_with_grads, embedding_rows, forward

# Adam's moment decay rates and denominator floor.  EPSILON must stay > 0:
# adam_step skips rows with m = v = g = 0, whose step m / (sqrt(v) + eps) is
# exactly 0 only then (with eps = 0 it is 0/0 = NaN).
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class TripletBatch:
    """One batch of (reference, correct, incorrect) token sequences from a single dataset."""

    items: list[tuple[list[int], list[int], list[int]]]
    source_dataset: str = ""


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted distinct union of two sorted distinct id arrays (not np.union1d: its np.unique imports numpy.ma)."""
    rows = np.sort(np.concatenate((a, b)), kind="stable")  # timsort: merges the two sorted runs in linear time
    distinct = np.ones(rows.size, dtype=bool)
    distinct[1:] = rows[1:] != rows[:-1]
    return rows[distinct]


def _rows_into(rows: np.ndarray, sub_rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """`values`, one per id of `sub_rows`, placed among zeros for `rows`; both sorted, sub_rows within rows."""
    out = np.zeros((rows.size, values.shape[1]))
    out[np.searchsorted(rows, sub_rows)] = values
    return out


@dataclass
class Gradients:
    """Loss gradients per parameter tensor, in the shapes the loss gives them.

    embedding holds the gradient of the rows listed in embedding_rows
    (sorted, distinct ids), shape (len(embedding_rows), D); both are None
    when the table is frozen.  proj_weight (D, D) and proj_bias (D,) are the
    one gradient that every one of the N_c projection blocks shares.
    """

    embedding: np.ndarray | None
    embedding_rows: np.ndarray | None
    proj_weight: np.ndarray
    proj_bias: np.ndarray
    conversion: np.ndarray

    def add_(self, other: "Gradients") -> None:
        """Sum in place; the embedding gradient then covers the union of both row sets."""
        if self.embedding is not None and other.embedding is not None:
            rows = _union(self.embedding_rows, other.embedding_rows)
            # Assigned, then added: the same sums as accumulating dense tables.
            merged = _rows_into(rows, self.embedding_rows, self.embedding)
            merged[np.searchsorted(rows, other.embedding_rows)] += other.embedding
            self.embedding, self.embedding_rows = merged, rows
        for name in ("proj_weight", "proj_bias", "conversion"):
            getattr(self, name).__iadd__(getattr(other, name))

    def scale_(self, factor: float) -> None:
        for name in TENSOR_NAMES:
            g = getattr(self, name)
            if g is not None:
                g *= factor


@dataclass
class TrainConfig:
    epochs: int = 15
    batch_size: int = 128
    grad_accum_steps: int = 8
    lr: float = 1e-4
    weight_decay: float = 0.05
    margin: float = 1.0
    seed: int = 42
    schedule_strategy: str = "interleaved"
    lr_decay: float = 0.9
    train_embeddings: bool = True
    curriculum_order: list[str] | None = None

    def validate(self) -> None:
        problems = []
        for name in ("batch_size", "grad_accum_steps"):
            if getattr(self, name) < 1:
                problems.append(f"{name} must be >= 1")
        if self.epochs < 0:
            problems.append("epochs must be >= 0")
        for name in ("lr", "weight_decay", "margin"):
            if not math.isfinite(getattr(self, name)):
                problems.append(f"{name} must be finite")
        if not self.margin > 0:
            problems.append("margin must be > 0")
        if not 0 < self.lr_decay <= 1:
            problems.append("lr_decay must be in (0, 1]")
        if self.schedule_strategy not in SCHEDULE_STRATEGIES:
            problems.append(f"schedule_strategy must be one of {sorted(SCHEDULE_STRATEGIES)}")
        if self.schedule_strategy == "curriculum" and not self.curriculum_order:
            problems.append("curriculum schedule requires curriculum_order")
        if self.curriculum_order and len(set(self.curriculum_order)) < len(self.curriculum_order):
            problems.append("curriculum_order names a dataset more than once")
        if problems:
            raise ValueError("; ".join(problems))


@dataclass
class OptimizerState:
    """Adam moments in the gradients' shapes, plus the lr and weight decay of the next step.

    The embedding moments are compact: row k is table row live_rows[k], which lists, sorted,
    every row some step has had a gradient for.  Any other row's moments are zero.
    """

    first_moment: dict[str, np.ndarray]
    second_moment: dict[str, np.ndarray]
    live_rows: np.ndarray | None = None
    step_count: int = 0
    lr: float = 1e-4
    weight_decay: float = 0.05


def init_optimizer(params: ModelParams, *, lr: float = 1e-4, weight_decay: float = 0.05) -> OptimizerState:
    dim = params.hyper.dim
    shapes = {"embedding": (0, dim), "proj_weight": (dim, dim), "proj_bias": (dim,), "conversion": (dim, dim)}
    return OptimizerState(
        first_moment={n: np.zeros(shape) for n, shape in shapes.items()},
        second_moment={n: np.zeros(shape) for n, shape in shapes.items()},
        live_rows=np.empty(0, dtype=np.intp),
        lr=lr,
        weight_decay=weight_decay,
    )


def margin_loss(sim_correct: float, sim_incorrect: float, margin: float) -> float:
    """Hinge: max(0, margin + sim_incorrect - sim_correct); zero iff the gap meets the margin."""
    return max(0.0, margin + sim_incorrect - sim_correct)


def loss_and_grads(
    params: ModelParams, batch: TripletBatch, train_embeddings: bool = True
) -> tuple[float, Gradients]:
    """Batch loss plus exact gradients in one pass; inactive hinges contribute nothing."""
    if not batch.items:
        raise ValueError("batch must be non-empty")
    n = len(batch.items)
    n_ctx, dim = params.hyper.n_ctx, params.hyper.dim
    # Rows 0..n-1 are the references, then the correct, then the incorrect candidates.
    docs = [doc for side in zip(*batch.items) for doc in side]
    lengths = np.fromiter(map(len, docs), dtype=np.intp, count=3 * n)
    if not lengths.all():
        item = int(np.flatnonzero(lengths == 0)[0]) % n
        raise EmptyInputError(f"item {item} of batch from {batch.source_dataset!r}: empty token sequence")
    ids = check_ids(params, np.fromiter(chain.from_iterable(docs), dtype=np.intp, count=int(lengths.sum())))
    uniq, inv = np.unique(ids, return_inverse=True)
    doc_of_token = np.repeat(np.arange(3 * n), lengths)
    # counts[d, u]: occurrences of token uniq[u] in document d (unit weights give floats).
    counts = np.bincount(
        doc_of_token * uniq.size + inv, weights=np.ones(ids.size), minlength=3 * n * uniq.size
    ).reshape(3 * n, uniq.size)
    emb_mean = (counts @ embedding_rows(params, uniq)) / lengths[:, None]
    means = block_means(params)
    ctx, h = forward(params, emb_mean, means)
    try:
        # Both candidate sets against the references in one call.
        (sim_c, sim_i), (g_r_c, g_r_i), (g_c, g_i) = cosine_with_grads(h[:n], h[n:].reshape(2, n, dim))
    except DegenerateRepresentationError as exc:
        item = int(np.flatnonzero((np.linalg.norm(h, axis=1) == 0.0).reshape(3, n).any(axis=0))[0])
        raise DegenerateRepresentationError(
            f"item {item} of batch from {batch.source_dataset!r}: {exc}"
        ) from exc
    m = params.hyper.margin
    losses = [margin_loss(c, i, m) for c, i in zip(sim_c.tolist(), sim_i.tolist())]
    scale = 1.0 / n
    active = np.flatnonzero(np.asarray(losses) > 0.0)
    rows = np.concatenate([active, active + n, active + 2 * n])
    dh = np.concatenate([g_r_i[active] - g_r_c[active], -g_c[active], g_i[active]]) * scale
    d_ctx = dh @ params.conversion.T
    # Every token of a document shares the upstream gradient of its mean
    # embedding, so all N_c blocks of proj_weight share one (dim, dim)
    # gradient and a token's embedding gradient is its document's row.
    grads = Gradients(
        embedding=None,
        embedding_rows=None,
        proj_weight=d_ctx.T @ emb_mean[rows] / n_ctx,
        proj_bias=d_ctx.sum(axis=0) / n_ctx,
        conversion=ctx[rows].T @ dh,
    )
    if train_embeddings:
        d_emb = np.zeros((3 * n, dim))
        d_emb[rows] = (d_ctx / lengths[rows, None]) @ means[0]
        grads.embedding, grads.embedding_rows = counts.T @ d_emb, uniq
    for name in TENSOR_NAMES:
        g = getattr(grads, name)
        if g is not None and not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in {name}")
    return sum(losses) * scale, grads


def _adam_update(m: np.ndarray, v: np.ndarray, g: np.ndarray, step: float, eps_hat: float) -> np.ndarray:
    """Advance the moments m and v in place by g; returns step * m / (sqrt(v) + eps_hat)."""
    b1, b2 = BETA1, BETA2
    scratch = np.empty_like(m)
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=scratch)
    v *= b2
    np.multiply(g, 1.0 - b2, out=scratch)
    v += np.multiply(scratch, g, out=scratch)
    np.sqrt(v, out=scratch)
    scratch += eps_hat
    np.divide(m, scratch, out=scratch)
    scratch *= step
    return scratch


def adam_step(state: OptimizerState, params: ModelParams, grads: Gradients) -> tuple[ModelParams, OptimizerState]:
    """One Adam update with bias correction and decoupled weight decay, in place.

    Gives the same bits as dense Adam over the whole tensors, with less work:
    - a projection block's moments and step are computed once and the step
      is applied to all N_c blocks, which the dense update would give the
      same gradient, moments and step;
    - decay reaches every embedding row, but moments and steps are computed
      only on the live rows.  Any other row has m = v = g = 0, where the
      dense step 0 / (0 + eps_hat) is exactly 0.
    Tensors with no gradient (frozen) are neither moved nor decayed.  A read-only
    table is left untouched: params.embedding becomes its decayed float64 successor.
    """
    state.step_count += 1
    t = state.step_count
    lr = state.lr
    # lr * m_hat / (sqrt(v_hat) + eps) == step * m / (sqrt(v) + eps_hat): the
    # bias corrections folded into two scalars (Kingma & Ba, end of section 2).
    step = lr * math.sqrt(1.0 - BETA2**t) / (1.0 - BETA1**t)
    eps_hat = EPSILON * math.sqrt(1.0 - BETA2**t)
    decay = 1.0 - lr * state.weight_decay
    for name in TENSOR_NAMES:
        g = getattr(grads, name)
        if g is None:
            continue
        theta = getattr(params, name)
        m = state.first_moment[name]
        v = state.second_moment[name]
        if name == "embedding":
            rows = grads.embedding_rows
            if g.shape != (rows.size, theta.shape[1]):
                raise ShapeError(f"{name}: gradient shape {g.shape} for {rows.size} rows of width {theta.shape[1]}")
            live, grown = state.live_rows, _union(state.live_rows, rows)
            if grown.size > live.size:
                # Rows new to the state join with zero moments, as in the dense state.
                m = state.first_moment[name] = _rows_into(grown, live, m)
                v = state.second_moment[name] = _rows_into(grown, live, v)
                state.live_rows = live = grown
            delta = _adam_update(m, v, _rows_into(live, rows, g), step, eps_hat)
            if theta.flags.writeable:
                theta *= decay
            else:  # the same bits as upcasting a copy and decaying it, in one pass
                theta = params.embedding = np.multiply(theta, decay, dtype=np.float64)
            theta[live] -= delta
        else:
            if g.shape != m.shape:
                raise ShapeError(f"{name}: gradient shape {g.shape} != block shape {m.shape}")
            delta = _adam_update(m, v, g, step, eps_hat)
            theta *= decay
            # The N_c projection blocks are consecutive rows (entries for the
            # bias) of the contiguous tensor; conversion is a single block.
            theta.reshape(-1, *m.shape)[...] -= delta
    return params, state


@dataclass
class TokenizedDataset:
    """One named corpus of token-level triplets, ready for batching."""

    name: str
    items: list[tuple[list[int], list[int], list[int]]]
    has_contrastive: bool = True


def _in_curriculum_order(datasets: list[TokenizedDataset], order: list[str]) -> list[TokenizedDataset]:
    by_name = {d.name: d for d in datasets}
    if missing := [n for n in order if n not in by_name]:
        raise ValueError(f"curriculum_order names unknown datasets: {missing}")
    return [by_name[n] for n in order]


# Each strategy: the datasets it keeps (a function of the datasets and curriculum_order), and whether it
# interleaves them, in an order reshuffled each epoch, or takes them one after another.
SCHEDULE_STRATEGIES = {
    # every dataset, interleaved
    "interleaved": (lambda datasets, order: datasets, True),
    # every dataset, one at a time in listed order
    "sequential": (lambda datasets, order: datasets, False),
    # the datasets curriculum_order names, one at a time in that (difficulty) order
    "curriculum": (_in_curriculum_order, False),
    # the datasets carrying real contradictions, interleaved
    "contrastive_only": (lambda datasets, order: [d for d in datasets if d.has_contrastive], True),
    # the datasets with sampled negatives, interleaved
    "random_negative": (lambda datasets, order: [d for d in datasets if not d.has_contrastive], True),
}


class BatchSchedule:
    """Batches of config.batch_size from the datasets that config.schedule_strategy keeps; config is validated.

    `start_epoch` draws the epoch's permutations (the dataset order when
    interleaving, then each dataset's items in that order) and lays out the
    epoch's whole batch list once: the datasets' batches one after another,
    or, interleaved, in rounds of one batch per dataset that skip datasets
    already used up.  `next_batch` hands that list out one batch at a time.
    """

    def __init__(self, datasets: list[TokenizedDataset], config: TrainConfig, rng: np.random.Generator) -> None:
        select, self.interleave = SCHEDULE_STRATEGIES[config.schedule_strategy]
        self.datasets = select(datasets, config.curriculum_order)
        if not any(d.items for d in self.datasets):
            raise ValueError(f"no non-empty dataset available for strategy {config.schedule_strategy!r}")
        self.batch_size = config.batch_size
        self.rng = rng
        self._plan = iter(())

    def start_epoch(self) -> None:
        """Reshuffle every dataset (and, for interleaving, the dataset order), then plan the epoch's batches."""
        n = len(self.datasets)
        order = self.rng.permutation(n).tolist() if self.interleave else range(n)
        queues = []
        for pos in order:
            ds = self.datasets[pos]
            items = [ds.items[i] for i in self.rng.permutation(len(ds.items)).tolist()]
            queues.append([TripletBatch(items[i : i + self.batch_size], ds.name)
                           for i in range(0, len(items), self.batch_size)])
        rounds = zip_longest(*queues) if self.interleave else queues
        self._plan = iter([batch for batches in rounds for batch in batches if batch is not None])

    def next_batch(self) -> TripletBatch | None:
        """Next batch of the epoch's plan, or None once it is used up."""
        return next(self._plan, None)


def train(
    config: TrainConfig,
    datasets: list[TokenizedDataset],
    params_init: ModelParams,
) -> tuple[ModelParams, list[dict]]:
    """Run the full schedule; returns the trained parameters, frozen, and one report row per epoch.

    config is validated once, and the BatchSchedule built from it gives each epoch's micro-batches.
    They are taken in windows of grad_accum_steps, the last one maybe shorter; a window's gradients
    are averaged over its length for one optimizer step, whose lr train sets each epoch to
    lr * lr_decay**epoch.
    Fully reproducible from config.seed.  A read-only table (a loaded checkpoint's) is shared: the
    first optimizer step writes its float64 successor; with no step (epochs=0) it is returned as is.
    This call drops its reference to params_init at once, so a shared table the caller does not
    hold is freed once replaced.
    """
    config.validate()
    params = params_init.copy(share_embedding=not params_init.embedding.flags.writeable)
    del params_init
    params.hyper.margin = config.margin
    state = init_optimizer(params, lr=config.lr, weight_decay=config.weight_decay)
    schedule = BatchSchedule(datasets, config, np.random.default_rng(config.seed))
    report: list[dict] = []
    # An overflow (a huge lr) stops the run where it happens, not at the save of NaN parameters.
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for epoch in range(config.epochs):
            state.lr = config.lr * config.lr_decay**epoch
            schedule.start_epoch()
            batches = list(iter(schedule.next_batch, None))
            losses: list[float] = []
            try:
                for start in range(0, len(batches), config.grad_accum_steps):
                    window = batches[start : start + config.grad_accum_steps]
                    for micro, batch in enumerate(window, start):
                        loss, grads = loss_and_grads(params, batch, config.train_embeddings)
                        losses.append(loss)
                        if micro == start:
                            accum = grads
                        else:
                            accum.add_(grads)
                    accum.scale_(1.0 / len(window))
                    adam_step(state, params, accum)
            except FloatingPointError as exc:
                # Named by its micro-batch; a failed step by the one that closed its window.
                raise NumericError(f"epoch {epoch}, micro-batch {micro}: {exc}") from None
            report.append(
                {
                    "epoch": epoch,
                    "mean_loss": float(np.mean(losses)),
                    "lr": state.lr,
                    "batches": len(batches),
                }
            )
    return params.freeze(), report
