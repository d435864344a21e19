"""Command-line entry points: tokenize, train, score, evaluate, attribute.

Each flag is declared once, in the parser, under the name of the
`RunConfig` or `TrainConfig` field it fills.  A single JSON config file can
seed the train command; explicit flags override file values, which override
built-in defaults.  All file outputs are written atomically (temp file +
rename) and every report embeds the seed, a hash of the effective config,
and the package version.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import hashlib
import json
import os
import sys
import typing
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__
from .attribution import BASELINE_KINDS, DEFAULT_STEPS, DIRECTIONS, integrated_gradients
from .checkpoint import load_checkpoint, save_checkpoint
from .data import DatasetManifest, Record, load_dataset, load_registry, tokenize_records
from .errors import ConfigError, MatchaError, ShapeError, is_number, open_atomic, read_json
from .evaluation import MetricRange, ScoreTable, evaluation_report, rouge_table
from .model import Hyper, init_params, score
from .tokenizer import DEFAULT_MAX_LEN, WordVocabulary, build_word_vocabulary, load_vocabulary
from .training import SCHEDULE_STRATEGIES, TrainConfig, train

DEFAULT_DIM = 64
DEFAULT_N_CTX = 16


@dataclass
class RunConfig:
    """Effective arguments of one CLI invocation, hashed into every report's config_hash."""

    command: str
    vocab: str | None = None
    merges: str | None = None
    data: str | None = None
    ckpt: str | None = None
    init_ckpt: str | None = None
    out: str | None = None
    report: str | None = None
    csv: str | None = None
    text: str | None = None
    ref: str | None = None
    cand: str | None = None
    direction: str = "both"
    steps: int = DEFAULT_STEPS
    baseline: str = "zero"
    scores: list[str] = field(default_factory=list)
    metrics: list[str] = field(default_factory=list)
    rouge: bool = False
    max_len: int = DEFAULT_MAX_LEN
    dim: int = DEFAULT_DIM
    n_ctx: int = DEFAULT_N_CTX
    train: TrainConfig = field(default_factory=TrainConfig)


def _provenance(seed: int, config: RunConfig) -> dict:
    payload = json.dumps(asdict(config), sort_keys=True, default=str).encode("utf-8")
    return {
        "seed": seed,
        "config_hash": hashlib.sha256(payload).hexdigest()[:16],
        "version": __version__,
    }


def _load_tokenizer(config: RunConfig, corpus_texts=None):
    """BPE when merges are given, word-level JSON when only a vocab is given,
    otherwise a fresh word vocabulary built from the corpus."""
    if config.vocab and config.merges:
        return load_vocabulary(config.vocab, config.merges)
    if config.vocab:
        return WordVocabulary.load(config.vocab)
    if corpus_texts is None:
        raise ConfigError("no vocabulary given and no corpus to build one from")
    return build_word_vocabulary(corpus_texts)


def _manifests_for(data_path: str) -> list[DatasetManifest]:
    if os.path.isdir(data_path):
        registry = os.path.join(data_path, "registry.json")
        if not os.path.exists(registry):
            raise ConfigError(f"{data_path}: directory has no registry.json")
        return load_registry(registry)
    if data_path.endswith(".json"):
        return load_registry(data_path)
    name = os.path.splitext(os.path.basename(data_path))[0]
    return [DatasetManifest(name=name, path=data_path, has_contrastive=False)]


def _outputs(config: RunConfig) -> dict[str, str]:
    """Every file the command writes, under the flag that names it or the rule that derives it."""
    outputs = {"--out": config.out, "--report": config.report, "--csv": config.csv}
    if config.command == "train" and config.out:  # the files written beside the checkpoint
        outputs["--report"] = config.report or config.out + ".train.jsonl"
        outputs["<out>.vocab.json"] = None if config.vocab else config.out + ".vocab.json"
    return {name: path for name, path in outputs.items() if path}


def _inputs(config: RunConfig) -> list[tuple[str, str]]:
    """Every file the command reads, with the flag that names it; a registry's own file and datasets count too."""
    inputs = [("--data", config.data), ("--vocab", config.vocab), ("--merges", config.merges),
              ("--ckpt", config.ckpt), ("--init-ckpt", config.init_ckpt), *(("--scores", p) for p in config.scores)]
    if config.data and os.path.isdir(config.data):
        inputs.append(("--data", os.path.join(config.data, "registry.json")))
    if config.data and (os.path.isdir(config.data) or config.data.endswith(".json")):
        inputs += [(f"dataset {m.name!r} of --data", m.path) for m in _manifests_for(config.data)]
    return [(name, path) for name, path in inputs if path]


def _cmd_tokenize(config: RunConfig) -> int:
    vocab = _load_tokenizer(config)
    ids = vocab.encode(config.text, config.max_len)
    print(" ".join(str(i) for i in ids))
    return 0


def _cmd_score(config: RunConfig) -> int:
    params = load_checkpoint(config.ckpt)
    vocab = _load_tokenizer(config)
    print(score(params, config.ref, config.cand, vocab))
    return 0


def _cmd_train(config: RunConfig) -> int:
    cfg = config.train
    rng = np.random.default_rng(cfg.seed)
    manifests = _manifests_for(config.data)
    per_dataset: list[tuple[DatasetManifest, list[Record]]] = []
    for manifest in manifests:
        per_dataset.append((manifest, load_dataset(manifest, rng)))

    texts = [
        t
        for _, records in per_dataset
        for r in records
        for t in (r.reference, r.correct, r.incorrect)
        if t
    ]
    vocab = _load_tokenizer(config, corpus_texts=texts)

    if config.init_ckpt:
        params = load_checkpoint(config.init_ckpt)
        if params.vocab_size != vocab.vocab_size:
            raise ConfigError(
                f"checkpoint vocab_size {params.vocab_size} != tokenizer vocab_size {vocab.vocab_size}"
            )
    else:
        params = init_params(
            vocab.vocab_size,
            config.dim,
            config.n_ctx,
            max_len=config.max_len,
            margin=cfg.margin,
            seed=cfg.seed,
        )

    datasets = [
        tokenize_records(m.name, records, vocab, params.hyper.max_len, m.has_contrastive)
        for m, records in per_dataset
    ]
    # Handed over with no reference left here, so `train` frees a loaded table once its first step replaces it.
    initial = [params]
    del params
    params, report = train(cfg, datasets, initial.pop())
    outputs = _outputs(config)
    save_checkpoint(params, outputs["--out"])
    # Only beside the checkpoint it was trained with: a run that fails leaves the old pair.
    if "<out>.vocab.json" in outputs:  # a vocabulary built from the corpus
        vocab.save(outputs["<out>.vocab.json"])
    lines = [json.dumps(_provenance(cfg.seed, config))]
    for row in report:
        lines.append(json.dumps(row))
        print(f"epoch {row['epoch']}: mean_loss={row['mean_loss']:.6f} lr={row['lr']:.3g} batches={row['batches']}")
    with open_atomic(outputs["--report"]) as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"checkpoint written to {config.out}")
    return 0


def _cmd_evaluate(config: RunConfig) -> int:
    ranges = {name: MetricRange(name, kind) for name, kind in (entry.split("=", 1) for entry in config.metrics)}
    cfg = config.train
    rng = np.random.default_rng(cfg.seed)
    manifests = _manifests_for(config.data)
    params = load_checkpoint(config.ckpt) if config.ckpt else None
    vocab = None
    if params is not None:
        vocab = _load_tokenizer(config)

    table = ScoreTable()
    rating_scales: dict[str, tuple[float, float]] = {}
    for manifest in manifests:
        if manifest.rating_scale is not None:
            rating_scales[manifest.name] = manifest.rating_scale
        records = load_dataset(manifest, rng, complete_triplets=False)
        fields = {name: np.array([getattr(rec, name) for rec in records], dtype=object)
                  for name in ("id", "reference", "correct", "incorrect", "human_score")}
        # One row per candidate: each record's correct one, then its incorrect one if it has one.
        owner = np.repeat(np.arange(len(records)), 1 + fields["incorrect"].astype(bool))
        rows = {name: column[owner] for name, column in fields.items()}
        correct = np.diff(owner, prepend=-1) > 0
        rated = correct & (rows["human_score"] != None)  # noqa: E711 (elementwise over an object array)
        references = rows["reference"].tolist()
        candidates = np.where(correct, rows["correct"], rows["incorrect"]).tolist()
        columns = rouge_table(references, candidates) if config.rouge else {}
        if params is not None:
            columns["matcha"] = score(params, references, candidates, vocab)
        table.extend(ScoreTable(rows["id"], np.full(owner.size, manifest.name, dtype=object), correct,
                                np.where(rated, rows["human_score"], 0.0), rated, columns))
    for path in config.scores:
        table.merge_external(path)

    document = {
        "provenance": _provenance(cfg.seed, config),
        **evaluation_report(table, ranges, rating_scales),
    }
    with open_atomic(config.out) as fh:
        fh.write(json.dumps(document, indent=2) + "\n")
    if config.csv:
        with open_atomic(config.csv) as fh:
            rows = csv.writer(fh, lineterminator="\n")  # quotes a name that holds a comma, quote or newline
            rows.writerow(["dataset", "metric", "threshold", "percentage"])
            for ds, per_metric in document["separation"].items():
                for metric, rep in per_metric.items():
                    rows.writerows([ds, metric, threshold, pct] for threshold, pct in rep["threshold_curve"])
    print(f"report written to {config.out}")
    return 0


def _cmd_attribute(config: RunConfig) -> int:
    params = load_checkpoint(config.ckpt)
    vocab = _load_tokenizer(config)
    directions = list(DIRECTIONS) if config.direction == "both" else [config.direction]
    results = [
        integrated_gradients(
            params, config.ref, config.cand, vocab, d, config.steps, config.baseline
        ).to_dict()
        for d in directions
    ]
    document = {
        "provenance": _provenance(config.train.seed, config),
        "reference": config.ref,
        "candidate": config.cand,
        "results": results,
    }
    text = json.dumps(document, indent=2)
    if config.out:
        with open_atomic(config.out) as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _check(config: RunConfig) -> None:
    """Raise ConfigError for the first setting out of range.  Every default passes, so each field is
    checked whatever the command; only the vocabulary-flag rules depend on it.  Then, before any input
    is read, two outputs that name one file raise ConfigError, and an output path that is a directory
    raises IsADirectoryError, not at the final rename.  Last, before any file is written, an output
    that names an input raises ConfigError."""
    if config.command == "train" and config.merges and not config.vocab:
        raise ConfigError("train with --merges requires --vocab")
    if config.command == "evaluate" and config.ckpt and not config.vocab:
        raise ConfigError("evaluate with --ckpt requires --vocab")
    if config.command == "evaluate" and not config.ckpt and (config.vocab or config.merges):
        raise ConfigError("evaluate with --vocab or --merges requires --ckpt")
    try:  # ValueError and ShapeError to library callers, one config error here
        config.train.validate()
        Hyper(config.dim, config.n_ctx, config.max_len, config.train.margin).validate()
        if config.steps < 8:
            raise ConfigError("--steps must be >= 8")
        for entry in config.metrics:
            if "=" not in entry:
                raise ConfigError(f"--metrics entry {entry!r} must be name=kind")
            MetricRange(*entry.split("=", 1))
    except (ShapeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    named: dict[str, tuple[str, str]] = {}
    for name, path in _outputs(config).items():
        first, _ = named.setdefault(os.path.realpath(path), (name, path))
        if first != name:
            raise ConfigError(f"{first} and {name} name the same file: {path}")
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    for name, path in _inputs(config):
        output, output_path = named.get(os.path.realpath(path), (None, None))
        if output:
            raise ConfigError(f"{output} and {name} name the same file: {output_path}")


def run(config: RunConfig) -> int:
    """Check every setting, then execute one command; outputs land atomically."""
    _check(config)
    handler = {
        "tokenize": _cmd_tokenize,
        "score": _cmd_score,
        "train": _cmd_train,
        "evaluate": _cmd_evaluate,
        "attribute": _cmd_attribute,
    }[config.command]
    return handler(config)


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigError, as a bad --config file is."""

    def error(self, message):
        raise ConfigError(message)


def _nonempty(value: str) -> str:
    if not value:
        raise argparse.ArgumentTypeError("must not be empty")
    return value


def _comma_list(value: str) -> list[str]:
    return [s for s in value.split(",") if s]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Each flag's dest is the RunConfig or TrainConfig field it fills; an unset flag is left out.

    Built once per process: `parse_args` fills a new namespace on every call.
    """
    parser = _Parser(prog="matcha", description="Contrastive semantic matching metric")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help, vocab_required):
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        p.add_argument("--vocab", required=vocab_required, type=_nonempty if vocab_required else str,
                       help="token vocabulary: BPE JSON (with --merges) or word-level JSON")
        p.add_argument("--merges", help="BPE merges file (header line + 'left right' lines)")
        return p

    def add_pair(p):
        p.add_argument("--ckpt", required=True, type=_nonempty, help="model checkpoint")
        p.add_argument("--ref", required=True, type=_nonempty, help="reference text")
        p.add_argument("--cand", required=True, type=_nonempty, help="candidate text")

    p = add_command("tokenize", "print token ids for a text", vocab_required=True)
    p.add_argument("--max-len", type=int, help=f"sequence length cap (default: {DEFAULT_MAX_LEN})")
    p.add_argument("text", type=_nonempty, help="text to tokenize")

    p = add_command("train", "train from a corpus and write a checkpoint", vocab_required=False)
    p.add_argument("--max-len", type=int, help=f"sequence length cap (default: {DEFAULT_MAX_LEN})")
    p.add_argument("--config", help="JSON file of training settings; flags override it")
    p.add_argument("--data", required=True, type=_nonempty,
                   help="registry.json, its directory, or a single JSONL corpus")
    p.add_argument("--out", required=True, type=_nonempty, help="checkpoint output path")
    p.add_argument("--report", help="per-epoch JSONL report path (default: <out>.train.jsonl)")
    p.add_argument("--init-ckpt", help="start from this checkpoint (e.g. an imported embedding table)")
    p.add_argument("--dim", type=int, help=f"embedding width for fresh models (default: {DEFAULT_DIM})")
    p.add_argument("--n-ctx", type=int, help=f"context vectors per token (default: {DEFAULT_N_CTX})")
    p.add_argument("--epochs", type=int, help=f"training epochs (default: {TrainConfig.epochs})")
    p.add_argument("--batch-size", type=int, help=f"triplets per batch (default: {TrainConfig.batch_size})")
    p.add_argument("--grad-accum", dest="grad_accum_steps", metavar="GRAD_ACCUM", type=int,
                   help=f"micro-batches per optimizer step (default: {TrainConfig.grad_accum_steps})")
    p.add_argument("--lr", type=float, help=f"base learning rate (default: {TrainConfig.lr})")
    p.add_argument("--weight-decay", type=float,
                   help=f"decoupled weight decay (default: {TrainConfig.weight_decay})")
    p.add_argument("--margin", type=float, help=f"contrastive margin (default: {TrainConfig.margin})")
    p.add_argument("--seed", type=int, help=f"run seed (default: {TrainConfig.seed})")
    p.add_argument("--schedule", dest="schedule_strategy", choices=sorted(SCHEDULE_STRATEGIES),
                   help=f"batch schedule strategy (default: {TrainConfig.schedule_strategy})")
    p.add_argument("--gamma", dest="lr_decay", metavar="GAMMA", type=float,
                   help=f"per-epoch exponential lr decay (default: {TrainConfig.lr_decay})")
    p.add_argument("--curriculum-order", type=_comma_list, help="comma-separated dataset order for curriculum")
    p.add_argument("--freeze-embeddings", dest="train_embeddings", action="store_false",
                   help="do not update the embedding table")

    p = add_command("score", "similarity of a reference/candidate pair", vocab_required=True)
    add_pair(p)

    p = add_command("evaluate", "separation and human-agreement report over a corpus", vocab_required=False)
    p.add_argument("--data", required=True, type=_nonempty,
                   help="registry.json, its directory, or a single JSONL corpus")
    p.add_argument("--ckpt", help="score the corpus with this checkpoint as metric 'matcha'")
    p.add_argument("--scores", action="append", help="external metric scores JSONL {id, metric, score}; repeatable")
    p.add_argument("--metrics", action="append",
                   help="metric range declaration name=cosine_like|unit|percent; repeatable")
    p.add_argument("--rouge", action="store_true", help="also compute rouge1/rouge2/rougeL baselines")
    p.add_argument("--out", required=True, type=_nonempty, help="report JSON output path")
    p.add_argument("--csv", help="optional CSV export of threshold curves")
    p.add_argument("--seed", type=int, help=f"seed recorded in the report (default: {TrainConfig.seed})")

    p = add_command("attribute", "integrated-gradients token attribution for a pair", vocab_required=True)
    add_pair(p)
    p.add_argument("--direction", choices=("both", *DIRECTIONS),
                   help=f"attribution direction (default: {RunConfig.direction})")
    p.add_argument("--steps", type=int,
                   help=f"at least 8, and echoed; the integral is exact, so it changes no value "
                        f"(default: {RunConfig.steps})")
    p.add_argument("--baseline", choices=BASELINE_KINDS, help=f"baseline kind (default: {RunConfig.baseline})")
    p.add_argument("--out", help="write JSON here instead of stdout")
    return parser


# Keys a --config file may set, with the type of the field each one fills.
_CONFIG_FILE_TYPES = typing.get_type_hints(TrainConfig) | {"dim": int, "n_ctx": int, "max_len": int}


def _fits(hint, value) -> bool:
    """Whether a JSON value has a field's declared type; a bool is no number here."""
    if hint is float:
        return is_number(value, finite=False)
    if hint in (int, bool, str):
        return type(value) is hint
    # curriculum_order: list[str] | None
    return value is None or (isinstance(value, list) and all(isinstance(v, str) for v in value))


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """Built-in defaults, overridden by the --config file, overridden by the flags given."""
    values = vars(args)
    path = values.pop("config", None)
    if path:
        file_values = read_json(path, ConfigError)
        if not isinstance(file_values, dict):
            raise ConfigError(f"{path}: expected a JSON object")
        unknown = set(file_values) - set(_CONFIG_FILE_TYPES)
        if unknown:
            raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
        for key, value in file_values.items():
            hint = _CONFIG_FILE_TYPES[key]
            if not _fits(hint, value):
                raise ConfigError(
                    f"{path}: key {key!r} must be {getattr(hint, '__name__', hint)}, "
                    f"got {json.dumps(value)}"
                )
        values = file_values | values
    # A loaded checkpoint brings its own D, N_c and length cap.
    pinned = [key for key in ("dim", "n_ctx", "max_len") if key in values]
    if values.get("init_ckpt") and pinned:
        raise ConfigError(
            f"--init-ckpt takes dim, n_ctx and max_len from the checkpoint; cannot set {', '.join(pinned)}"
        )
    train_keys = {f.name for f in fields(TrainConfig)}
    train = TrainConfig(**{k: v for k, v in values.items() if k in train_keys})
    return RunConfig(**{k: v for k, v in values.items() if k not in train_keys}, train=train)


_ERROR_CATEGORIES = [
    (ConfigError, "config error", 2),
    (MatchaError, "error", 1),
    (OSError, "file error", 3),
    (ValueError, "config error", 2),
]


def main(argv=None) -> int:
    try:
        return run(_config_from_args(_build_parser().parse_args(argv)))
    except tuple(cls for cls, _, _ in _ERROR_CATEGORIES) as exc:
        for cls, label, code in _ERROR_CATEGORIES:
            if isinstance(exc, cls):
                print(f"{label}: {exc}", file=sys.stderr)
                return code
        raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
