"""Forward computation: embedding lookup, context projection, conversion, pooling, cosine scoring.

Every step before the cosine is affine, and pooling averages over tokens and
context blocks, so the whole stack folds into one map of a document's mean
token embedding: h = (W̄·mean(E[ids]) + b̄)·C, where W̄ and b̄ average the n_ctx
projection blocks.  `forward` computes exactly that; scoring, training and
attribution all go through it.  Arithmetic is float64.  The projection and
conversion tensors are float64 arrays; the embedding table may be float32,
as a loaded checkpoint stores it, and every gather upcasts the rows it takes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np

from .errors import DegenerateRepresentationError, EmptyInputError, ShapeError, TokenRangeError

# Fallback scale for embeddings trained from scratch (no pre-trained table).
# Deliberately small: contrastive updates then dominate the random content
# within a short desk-scale run.
EMBED_INIT_BOUND = 0.01

# Most (document, token) entries in one averaging matrix of `represent`, and
# about the most row entries `score` gathers at once.  Scoring the 800 pairs
# of a 400-record desk corpus (1,079 distinct texts) peaks at 0.98 MB of
# arrays with 2**14 and 4.9 MB with 2**18 (tracemalloc).
MEAN_BLOCK_ENTRIES = 1 << 14

# ModelParams' tensors, in the order checkpoints store them.
TENSOR_NAMES = ("embedding", "proj_weight", "proj_bias", "conversion")


@dataclass
class Hyper:
    """Model hyperparameters: embedding width, context-vector count, length cap, margin."""

    dim: int
    n_ctx: int
    max_len: int = 512
    margin: float = 1.0

    def validate(self) -> None:
        for name in ("dim", "n_ctx", "max_len"):
            if getattr(self, name) < 1:
                raise ShapeError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 < self.margin < float("inf"):
            raise ShapeError(f"margin must be a finite number > 0, got {self.margin}")

    def shapes(self, vocab_size: int) -> dict[str, tuple[int, ...]]:
        """The shape of each of the TENSOR_NAMES tensors, in order, for a table of vocab_size rows."""
        d, k = self.dim, self.n_ctx * self.dim
        return {"embedding": (vocab_size, d), "proj_weight": (k, d), "proj_bias": (k,), "conversion": (d, d)}


@dataclass
class ModelParams:
    """All trainable tensors plus hyperparameters.

    Frozen params (`freeze`, as `load_checkpoint` and `train` return them) have read-only
    tensors, and `block_means` keeps W̄ and b̄ for them.  A loaded embedding is float32, and
    every gather upcasts its rows.  `copy()` gives writeable float64 tensors.
    """

    embedding: np.ndarray  # (vocab_size, dim)
    proj_weight: np.ndarray  # (n_ctx * dim, dim)
    proj_bias: np.ndarray  # (n_ctx * dim,)
    conversion: np.ndarray  # (dim, dim)
    hyper: Hyper
    _block_means: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def vocab_size(self) -> int:
        return self.embedding.shape[0]

    def validate(self) -> None:
        self.hyper.validate()
        # A 0-d embedding has no rows to count, and no shape of Hyper.shapes matches it.
        for name, want in self.hyper.shapes(len(self.embedding) if self.embedding.ndim else 0).items():
            got = getattr(self, name).shape
            if got != want:
                raise ShapeError(f"{name}: expected shape {want}, got {got}")

    def freeze(self) -> "ModelParams":
        """Make the four tensors read-only, in place, and return self."""
        for name in TENSOR_NAMES:
            getattr(self, name).flags.writeable = False
        return self

    def copy(self, share_embedding: bool = False) -> "ModelParams":
        """Writeable float64 tensors; with share_embedding, the embedding array itself, uncopied."""
        copied = {name: getattr(self, name).astype(np.float64) for name in TENSOR_NAMES[1:]}
        embedding = self.embedding if share_embedding else self.embedding.astype(np.float64)
        return ModelParams(embedding, **copied, hyper=Hyper(**vars(self.hyper)))


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
        # A checkpoint's tensors are checked as they load; a table passed in is checked here.
        if not np.isfinite(embedding).all():
            raise ShapeError("embedding contains non-finite entries")
        params.embedding = embedding.copy()
    params.validate()
    return params


def check_ids(params: ModelParams, seq) -> np.ndarray:
    """Token ids as an intp array; raises unless non-empty, 1-d and each in [0, vocab_size)."""
    ids = np.asarray(seq, dtype=np.intp)
    if ids.ndim != 1 or ids.size == 0:
        raise EmptyInputError("token sequence must be a non-empty 1-d list of ids")
    # Negative ids wrap to huge unsigned values, so one max checks both bounds.
    if ids.view(np.uintp).max() >= params.vocab_size:
        raise TokenRangeError(
            f"token id outside [0, {params.vocab_size}): {ids[(ids < 0) | (ids >= params.vocab_size)][0]}"
        )
    return ids


def embedding_rows(params: ModelParams, ids: np.ndarray) -> np.ndarray:
    """Table rows `ids` as float64: a loaded table is float32, and a sum over its own rows would round differently."""
    return params.embedding.take(ids, axis=0).astype(np.float64, copy=False)


def block_means(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """W̄ (dim, dim) and b̄ (dim,): proj_weight's and proj_bias's n_ctx blocks averaged.

    Formed once for frozen params: while proj_weight and proj_bias are the
    same read-only arrays, the stored read-only pair is returned.  Writeable
    tensors, which training updates in place, are averaged on every call.
    """
    weight, bias, n_ctx, dim = params.proj_weight, params.proj_bias, params.hyper.n_ctx, params.hyper.dim
    frozen = not (weight.flags.writeable or bias.flags.writeable)
    memo = params._block_means
    if frozen and memo is not None and memo[0] is weight and memo[1] is bias and memo[2] == n_ctx:
        return memo[3]
    # Summed as (n_ctx, dim*dim): the same bits as over (n_ctx, dim, dim), and
    # a third faster at dim=256.
    means = (weight.reshape(n_ctx, dim * dim).sum(axis=0).reshape(dim, dim) / n_ctx,
             bias.reshape(n_ctx, dim).sum(axis=0) / n_ctx)
    if frozen:
        means[0].flags.writeable = means[1].flags.writeable = False
        params._block_means = (weight, bias, n_ctx, means)
    return means


def forward(
    params: ModelParams, emb_mean: np.ndarray, means: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The model up to the cosine, from mean token embeddings: one per row of (n, dim).

    Returns (ctx_mean, h), both (n, dim): the projection averaged over the
    n_ctx blocks, W̄ē + b̄, and the document representation
    h = ctx_mean @ conversion.  Equal to the layer-by-layer graph (project
    every token into n_ctx context vectors, convert each, pool over blocks
    and tokens) because each layer is affine.  `means` is
    `block_means(params)`, formed once by the caller, which may forward
    several blocks with it or also need W̄.
    """
    w_bar, b_bar = means
    ctx_mean = emb_mean @ w_bar.T + b_bar
    return ctx_mean, ctx_mean @ params.conversion


def represent(params: ModelParams, docs) -> np.ndarray:
    """Representations h of token id sequences, one row per document: shape (len(docs), dim).

    Documents go through `forward` block by block, all with one W̄.  A
    block's mean embeddings are one product of an averaging matrix with the
    block's embedding rows; a block holds at most MEAN_BLOCK_ENTRIES
    (document, token) entries, or one document.
    """
    if not docs:
        return np.empty((0, params.hyper.dim))
    lengths = [len(doc) for doc in docs]
    if not all(lengths):
        raise EmptyInputError(f"document {lengths.index(0)}: empty token sequence")
    offsets = [0, *accumulate(lengths)]
    ids = check_ids(params, np.fromiter(chain.from_iterable(docs), dtype=np.intp, count=offsets[-1]))
    means = block_means(params)
    h = np.empty((len(docs), params.hyper.dim))
    first = 0
    while first < len(docs):
        # Grow the block [first, stop) while documents x tokens stays within the cap.
        stop = first + 1
        while stop < len(docs) and (stop + 1 - first) * (offsets[stop + 1] - offsets[first]) <= MEAN_BLOCK_ENTRIES:
            stop += 1
        lo = offsets[first]
        averaging = np.zeros((stop - first, offsets[stop] - lo))
        for row, doc in enumerate(range(first, stop)):
            averaging[row, offsets[doc] - lo : offsets[doc + 1] - lo] = 1.0 / lengths[doc]
        emb_mean = averaging @ embedding_rows(params, ids[lo : offsets[stop]])
        h[first:stop] = forward(params, emb_mean, means)[1]
        first = stop
    return h


def cosine(h1: np.ndarray, h2: np.ndarray):
    """Cosine similarity in [-1, 1] over the last axis: a float for two vectors, an array for rows.

    Zero-norm inputs are an error, not a zero score; bit-equal inputs score
    exactly 1.0.
    """
    h1 = np.asarray(h1, dtype=np.float64)
    h2 = np.asarray(h2, dtype=np.float64)
    n1 = np.sqrt((h1 * h1).sum(axis=-1))
    n2 = np.sqrt((h2 * h2).sum(axis=-1))
    if np.count_nonzero(n1) < n1.size or np.count_nonzero(n2) < n2.size:
        raise DegenerateRepresentationError("zero-norm document representation")
    value = np.minimum(1.0, np.maximum(-1.0, (h1 * h2).sum(axis=-1) / (n1 * n2)))
    value = np.where((h1 == h2).all(axis=-1), 1.0, value)
    return float(value) if value.ndim == 0 else value


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis: the bits of np.linalg.norm(x, axis=-1), without its wrapper."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _cosine_core(h1: np.ndarray, h2: np.ndarray):
    """(n1, n2, n1·n2, unclamped cosine) over the last axis; a zero norm on either side raises."""
    n1, n2 = _norms(h1), _norms(h2)
    if not (n1.all() and n2.all()):
        raise DegenerateRepresentationError("zero-norm document representation")
    n12 = n1 * n2
    return n1, n2, n12, np.einsum("...d,...d->...", h1, h2) / n12


def cosine_with_grads(h1: np.ndarray, h2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unclamped cosine of h1 and h2 over the last axis, with its gradients with respect to each.

    Leading axes broadcast, so (n, dim) inputs give n cosines in one call;
    1-d inputs give a scalar cosine.
    """
    n1, n2, n12, sim = _cosine_core(h1, h2)
    g1 = h2 / n12[..., None] - (sim / n1**2)[..., None] * h1
    g2 = h1 / n12[..., None] - (sim / n2**2)[..., None] * h2
    return sim, g1, g2


def score(params: ModelParams, reference, candidate, vocab):
    """Similarity of two texts under fixed parameters; symmetric in its text arguments.

    Two strings give a float.  Two equal-length sequences of strings give an
    array, one score per (reference, candidate) pair: each distinct text is
    encoded once, and texts with equal ids share one representation row.
    An empty text raises EmptyInputError and a zero-norm representation
    DegenerateRepresentationError, as in `cosine`.
    """
    single = isinstance(reference, str)
    references, candidates = ([reference], [candidate]) if single else (list(reference), list(candidate))
    if len(references) != len(candidates):
        raise ValueError(f"{len(references)} references but {len(candidates)} candidates")
    text_rows: dict[str, int] = {}
    pair_texts = [[text_rows.setdefault(t, len(text_rows)) for t in side] for side in (references, candidates)]
    doc_rows: dict[tuple[int, ...], int] = {}
    max_len = params.hyper.max_len
    row_of_text = [doc_rows.setdefault(tuple(vocab.encode(t, max_len)), len(doc_rows)) for t in text_rows]
    h = represent(params, list(doc_rows))
    ref_rows, cand_rows = ([row_of_text[t] for t in side] for side in pair_texts)
    # Pairs in chunks, so the gathered rows stay the size of one represent block.
    values = np.empty(len(ref_rows))
    step = MEAN_BLOCK_ENTRIES // params.hyper.dim + 1
    for k in range(0, len(ref_rows), step):
        values[k : k + step] = cosine(h.take(ref_rows[k : k + step], axis=0), h.take(cand_rows[k : k + step], axis=0))
    return float(values[0]) if single else values
