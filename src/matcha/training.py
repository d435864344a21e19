"""Margin contrastive training: exact gradients, Adam with decoupled weight decay, batch schedules.

The forward graph is affine in every tensor (lookup, affine projection,
linear conversion, mean pooling) followed by cosine similarity and a hinge,
so reverse-mode gradients are computed in closed form.  Mean pooling makes
every token position of a document share one upstream gradient vector,
which keeps the backward pass O(params) instead of O(L * params).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateRepresentationError, NumericError, ShapeError
from .model import ModelParams, cosine_with_grads, embed, forward

TENSOR_NAMES = ("embedding", "proj_weight", "proj_bias", "conversion")


@dataclass
class TripletBatch:
    """One batch of (reference, correct, incorrect) token sequences from a single dataset."""

    items: list[tuple[list[int], list[int], list[int]]]
    source_dataset: str = ""


@dataclass
class Gradients:
    """Loss gradients per parameter tensor; embedding is None when the table is frozen."""

    embedding: np.ndarray | None
    proj_weight: np.ndarray
    proj_bias: np.ndarray
    conversion: np.ndarray

    @classmethod
    def zeros(cls, params: ModelParams, train_embeddings: bool = True) -> "Gradients":
        return cls(
            embedding=np.zeros_like(params.embedding) if train_embeddings else None,
            proj_weight=np.zeros_like(params.proj_weight),
            proj_bias=np.zeros_like(params.proj_bias),
            conversion=np.zeros_like(params.conversion),
        )

    def add_(self, other: "Gradients") -> None:
        for name in TENSOR_NAMES:
            g = getattr(other, name)
            if g is not None and getattr(self, name) is not None:
                getattr(self, name).__iadd__(g)

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
        if not self.margin > 0:
            problems.append("margin must be > 0")
        if not 0 < self.lr_decay <= 1:
            problems.append("lr_decay must be in (0, 1]")
        if self.schedule_strategy not in SCHEDULE_STRATEGIES:
            problems.append(f"schedule_strategy must be one of {sorted(SCHEDULE_STRATEGIES)}")
        if self.schedule_strategy == "curriculum" and not self.curriculum_order:
            problems.append("curriculum schedule requires curriculum_order")
        if problems:
            raise ValueError("; ".join(problems))


@dataclass
class OptimizerState:
    first_moment: dict[str, np.ndarray]
    second_moment: dict[str, np.ndarray]
    step_count: int = 0
    base_lr: float = 1e-4
    decay_rate: float = 0.9
    epoch_index: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.05

    @property
    def effective_lr(self) -> float:
        return self.base_lr * self.decay_rate**self.epoch_index


def init_optimizer(
    params: ModelParams,
    *,
    lr: float = 1e-4,
    weight_decay: float = 0.05,
    decay_rate: float = 0.9,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
) -> OptimizerState:
    return OptimizerState(
        first_moment={n: np.zeros_like(getattr(params, n)) for n in TENSOR_NAMES},
        second_moment={n: np.zeros_like(getattr(params, n)) for n in TENSOR_NAMES},
        base_lr=lr,
        weight_decay=weight_decay,
        decay_rate=decay_rate,
        beta1=beta1,
        beta2=beta2,
        epsilon=epsilon,
    )


def margin_loss(sim_correct: float, sim_incorrect: float, margin: float) -> float:
    """Hinge: max(0, margin + sim_incorrect - sim_correct); zero iff the gap meets the margin."""
    return max(0.0, margin + sim_incorrect - sim_correct)


def _doc_backward(
    params: ModelParams, ids: list[int], emb_sum: np.ndarray, ctx_mean: np.ndarray,
    dh: np.ndarray, grads: Gradients,
) -> None:
    """Accumulate d(loss)/d(tensors) for one document given dh = d(loss)/d(h)."""
    n_ctx = params.hyper.n_ctx
    length = len(ids)
    grads.conversion += np.outer(ctx_mean, dh)
    d_ctx = params.conversion @ dh
    # Every token row of the projected tensor carries the same upstream
    # gradient tile(d_ctx, n_ctx) / (n_ctx * L); sums below fold L away.
    u = np.tile(d_ctx, n_ctx) / (n_ctx * length)
    grads.proj_weight += np.outer(u, emb_sum)
    grads.proj_bias += u * length
    if grads.embedding is not None:
        d_emb = params.proj_weight.T @ u
        np.add.at(grads.embedding, np.asarray(ids, dtype=np.intp), d_emb)


def loss_and_grads(
    params: ModelParams, batch: TripletBatch, train_embeddings: bool = True
) -> tuple[float, Gradients]:
    """Batch loss plus exact gradients in one pass; inactive hinges contribute nothing."""
    if not batch.items:
        raise ValueError("batch must be non-empty")
    m = params.hyper.margin
    scale = 1.0 / len(batch.items)
    grads = Gradients.zeros(params, train_embeddings)
    total = 0.0
    for idx, item in enumerate(batch.items):
        emb_sums = [embed(params, ids).sum(axis=0) for ids in item]
        ctx, (h_r, h_c, h_i) = zip(*(forward(params, s / len(ids)) for s, ids in zip(emb_sums, item)))
        try:
            sim_c, g_r_c, g_c = cosine_with_grads(h_r, h_c)
            sim_i, g_r_i, g_i = cosine_with_grads(h_r, h_i)
        except DegenerateRepresentationError as exc:
            raise DegenerateRepresentationError(
                f"item {idx} of batch from {batch.source_dataset!r}: {exc}"
            ) from exc
        loss = margin_loss(sim_c, sim_i, m)
        total += loss
        if loss <= 0.0:
            continue
        upstream = ((g_r_i - g_r_c) * scale, -g_c * scale, g_i * scale)
        for ids, emb_sum, ctx_mean, dh in zip(item, emb_sums, ctx, upstream):
            _doc_backward(params, ids, emb_sum, ctx_mean, dh, grads)
    for name in TENSOR_NAMES:
        g = getattr(grads, name)
        if g is not None and not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in {name}")
    return total * scale, grads


def adam_step(state: OptimizerState, params: ModelParams, grads: Gradients) -> tuple[ModelParams, OptimizerState]:
    """One Adam update with bias correction and decoupled weight decay, in place.

    Tensors with no gradient (frozen) are neither moved nor decayed.
    """
    state.step_count += 1
    t = state.step_count
    lr = state.effective_lr
    for name in TENSOR_NAMES:
        g = getattr(grads, name)
        if g is None:
            continue
        theta = getattr(params, name)
        if g.shape != theta.shape:
            raise ShapeError(f"{name}: gradient shape {g.shape} != parameter shape {theta.shape}")
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        theta -= lr * (m_hat / (np.sqrt(v_hat) + state.epsilon) + state.weight_decay * theta)
    return params, state


@dataclass
class TokenizedDataset:
    """One named corpus of token-level triplets, ready for batching."""

    name: str
    items: list[tuple[list[int], list[int], list[int]]]
    has_contrastive: bool = True


SCHEDULE_STRATEGIES = {
    "interleaved",
    "sequential",
    "curriculum",
    "random_negative",
    "contrastive_only",
}


class BatchSchedule:
    """Per-epoch batch stream over one or more datasets.

    interleaved         round-robin over the datasets (order reshuffled each
                        epoch), one whole batch per dataset per turn
    sequential          datasets consumed one at a time in listed order
    curriculum          sequential over a user-supplied difficulty order
    contrastive_only    interleaved over datasets carrying real contradictions
    random_negative     interleaved over datasets with sampled negatives
    """

    def __init__(
        self,
        datasets: list[TokenizedDataset],
        batch_size: int,
        strategy: str = "interleaved",
        curriculum_order: list[str] | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
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
        """Reshuffle every dataset (and, for interleaving, the dataset order)."""
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
        """Next batch under the strategy, or None once every dataset is exhausted."""
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


def train(
    config: TrainConfig,
    datasets: list[TokenizedDataset],
    params_init: ModelParams,
) -> tuple[ModelParams, list[dict]]:
    """Run the full schedule; returns trained parameters and one report row per epoch.

    Gradients are averaged over grad_accum_steps micro-batches before each
    optimizer step; a shorter window left at the end of an epoch still steps.
    Fully reproducible from config.seed.
    """
    config.validate()
    params = params_init.copy()
    params.hyper.margin = config.margin
    state = init_optimizer(
        params, lr=config.lr, weight_decay=config.weight_decay, decay_rate=config.lr_decay
    )
    rng = np.random.default_rng(config.seed)
    schedule = BatchSchedule(
        datasets,
        config.batch_size,
        config.schedule_strategy,
        curriculum_order=config.curriculum_order,
        rng=rng,
    )
    report: list[dict] = []
    for epoch in range(config.epochs):
        state.epoch_index = epoch
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
        report.append(
            {
                "epoch": epoch,
                "mean_loss": float(np.mean(losses)) if losses else 0.0,
                "lr": state.effective_lr,
                "batches": len(losses),
            }
        )
    return params, report
