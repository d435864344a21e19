"""Forward computation: embedding lookup, context projection, conversion, pooling, cosine scoring.

Every step before the cosine is affine, and pooling averages over tokens and
context blocks, so the whole stack folds into one map of a document's mean
token embedding: h = (W̄·mean(E[ids]) + b̄)·C, where W̄ and b̄ average the n_ctx
projection blocks.  `forward` computes exactly that; scoring, training and
attribution all go through it.  Parameters are held as float64 arrays whose
values are float32-representable, matching the 32-bit checkpoint container
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRepresentationError, EmptyInputError, ShapeError, TokenRangeError

# Fallback scale for embeddings trained from scratch (no pre-trained table).
# Deliberately small: contrastive updates then dominate the random content
# within a short desk-scale run.
EMBED_INIT_BOUND = 0.01


@dataclass
class Hyper:
    """Model hyperparameters: embedding width, context-vector count, length cap, margin."""

    dim: int
    n_ctx: int
    max_len: int = 512
    margin: float = 1.0

    def validate(self) -> None:
        if self.dim < 1 or self.n_ctx < 1 or self.max_len < 1:
            raise ShapeError(f"dim, n_ctx, max_len must be >= 1, got {self}")
        if not self.margin > 0:
            raise ShapeError(f"margin must be > 0, got {self.margin}")


@dataclass
class ModelParams:
    """All trainable tensors plus hyperparameters."""

    embedding: np.ndarray  # (vocab_size, dim)
    proj_weight: np.ndarray  # (n_ctx * dim, dim)
    proj_bias: np.ndarray  # (n_ctx * dim,)
    conversion: np.ndarray  # (dim, dim)
    hyper: Hyper

    @property
    def vocab_size(self) -> int:
        return self.embedding.shape[0]

    def validate(self) -> None:
        self.hyper.validate()
        d, k = self.hyper.dim, self.hyper.n_ctx * self.hyper.dim
        shapes = {
            "embedding": (self.embedding.shape[1:], (d,)),
            "proj_weight": (self.proj_weight.shape, (k, d)),
            "proj_bias": (self.proj_bias.shape, (k,)),
            "conversion": (self.conversion.shape, (d, d)),
        }
        for name, (got, want) in shapes.items():
            if tuple(got) != want:
                raise ShapeError(f"{name}: expected trailing shape {want}, got {tuple(got)}")
        for name in ("embedding", "proj_weight", "proj_bias", "conversion"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ShapeError(f"{name} contains non-finite entries")

    def copy(self) -> "ModelParams":
        return ModelParams(
            embedding=self.embedding.copy(),
            proj_weight=self.proj_weight.copy(),
            proj_bias=self.proj_bias.copy(),
            conversion=self.conversion.copy(),
            hyper=Hyper(**vars(self.hyper)),
        )


def _uniform(rng: np.random.Generator, shape, bound: float) -> np.ndarray:
    # Draw at float32 so checkpointed values round-trip bit-exactly.
    return rng.uniform(-bound, bound, size=shape).astype(np.float32).astype(np.float64)


def init_params(
    vocab_size: int,
    dim: int,
    n_ctx: int,
    *,
    max_len: int = 512,
    margin: float = 1.0,
    seed: int = 42,
    embedding: np.ndarray | None = None,
) -> ModelParams:
    """Fresh parameters: fan-balanced uniform weights, zero bias, seeded.

    Pass a pre-trained table as `embedding` to transfer it; otherwise a small
    random table is drawn.
    """
    hyper = Hyper(dim=dim, n_ctx=n_ctx, max_len=max_len, margin=margin)
    hyper.validate()
    rng = np.random.default_rng(seed)
    k = n_ctx * dim
    params = ModelParams(
        embedding=np.empty((0, 0)),
        proj_weight=_uniform(rng, (k, dim), np.sqrt(6.0 / (dim + k))),
        proj_bias=np.zeros(k, dtype=np.float64),
        conversion=_uniform(rng, (dim, dim), np.sqrt(6.0 / (dim + dim))),
        hyper=hyper,
    )
    if embedding is None:
        params.embedding = _uniform(rng, (vocab_size, dim), EMBED_INIT_BOUND)
    else:
        embedding = np.asarray(embedding, dtype=np.float64)
        if embedding.shape != (vocab_size, dim):
            raise ShapeError(
                f"embedding: expected ({vocab_size}, {dim}), got {embedding.shape}"
            )
        params.embedding = embedding.copy()
    params.validate()
    return params


def check_ids(params: ModelParams, seq) -> np.ndarray:
    """Token ids as an intp array; raises unless non-empty, 1-d and each in [0, vocab_size)."""
    ids = np.asarray(seq, dtype=np.intp)
    if ids.ndim != 1 or ids.size == 0:
        raise EmptyInputError("token sequence must be a non-empty 1-d list of ids")
    if ids.min() < 0 or ids.max() >= params.vocab_size:
        raise TokenRangeError(
            f"token id outside [0, {params.vocab_size}): {ids[(ids < 0) | (ids >= params.vocab_size)][0]}"
        )
    return ids


def embed(params: ModelParams, seq: list[int]) -> np.ndarray:
    """Look token ids up in the embedding table; returns (L, dim)."""
    return params.embedding[check_ids(params, seq)]


def block_means(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """W̄ (dim, dim) and b̄ (dim,): proj_weight's and proj_bias's n_ctx blocks averaged."""
    n_ctx, dim = params.hyper.n_ctx, params.hyper.dim
    w_bar = params.proj_weight.reshape(n_ctx, dim, dim).sum(axis=0) / n_ctx
    b_bar = params.proj_bias.reshape(n_ctx, dim).sum(axis=0) / n_ctx
    return w_bar, b_bar


def forward(params: ModelParams, emb_mean: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The model up to the cosine, from mean token embeddings: one per row of (..., dim).

    Returns (ctx_mean, h), both shaped like emb_mean: the projection averaged
    over the n_ctx blocks, W̄ē + b̄, and the document representation
    h = ctx_mean @ conversion.  Equal to the layer-by-layer graph (project
    every token into n_ctx context vectors, convert each, pool over blocks
    and tokens) because each layer is affine.
    """
    if emb_mean.ndim == 1:
        # One document: projecting into all blocks and averaging after costs
        # less than averaging the (n_ctx, dim, dim) blocks first.
        y = params.proj_weight @ emb_mean + params.proj_bias
        ctx_mean = y.reshape(params.hyper.n_ctx, params.hyper.dim).mean(axis=0)
    else:
        w_bar, b_bar = block_means(params)
        ctx_mean = emb_mean @ w_bar.T + b_bar
    return ctx_mean, ctx_mean @ params.conversion


def represent(params: ModelParams, seq: list[int]) -> np.ndarray:
    """Document representation h of a token sequence, shape (dim,)."""
    return forward(params, embed(params, seq).mean(axis=0))[1]


def cosine(h1: np.ndarray, h2: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; zero-norm inputs are an error, not a zero score."""
    h1 = np.asarray(h1, dtype=np.float64)
    h2 = np.asarray(h2, dtype=np.float64)
    n1 = float(np.linalg.norm(h1))
    n2 = float(np.linalg.norm(h2))
    if n1 == 0.0 or n2 == 0.0:
        raise DegenerateRepresentationError("zero-norm document representation")
    if np.array_equal(h1, h2):
        return 1.0
    value = float(h1 @ h2) / (n1 * n2)
    return min(1.0, max(-1.0, value))


def cosine_with_grads(h1: np.ndarray, h2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unclamped cosine of h1 and h2 over the last axis, with its gradients with respect to each.

    Leading axes broadcast, so (n, dim) inputs give n cosines in one call;
    1-d inputs give a scalar cosine.
    """
    n1 = np.linalg.norm(h1, axis=-1)
    n2 = np.linalg.norm(h2, axis=-1)
    if np.any(n1 == 0.0) or np.any(n2 == 0.0):
        raise DegenerateRepresentationError("zero-norm document representation")
    n12 = n1 * n2
    sim = np.einsum("...d,...d->...", h1, h2) / n12
    g1 = h2 / n12[..., None] - (sim / n1**2)[..., None] * h1
    g2 = h1 / n12[..., None] - (sim / n2**2)[..., None] * h2
    return sim, g1, g2


def score(params: ModelParams, reference: str, candidate: str, vocab) -> float:
    """Similarity of two texts under fixed parameters; symmetric in its text arguments."""
    max_len = params.hyper.max_len
    h_ref = represent(params, vocab.encode(reference, max_len))
    h_cand = represent(params, vocab.encode(candidate, max_len))
    return cosine(h_ref, h_cand)
