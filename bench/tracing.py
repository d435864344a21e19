"""Span recording around matcha's public functions, from outside the package.

`Tracer.install()` replaces every reference to a traced function that the
matcha modules hold in their globals (and the traced methods on their
classes) with a wrapper that records a span; `uninstall()` puts the
originals back.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager

import numpy as np

import matcha.attribution
import matcha.checkpoint
import matcha.data
import matcha.evaluation
import matcha.model
import matcha.tokenizer
import matcha.training


def _size(result, args) -> int:
    return len(result)


def _first_len(result, args) -> int:
    return len(args[1])


def _saved_bytes(result, args) -> int:
    return os.path.getsize(args[1])


def _active(result, args) -> int:
    return int(result > 0.0)


def _tokenized(result, args) -> int:
    return len(result.items)


def _steps(result, args) -> int:
    return result.steps


# (span name, owner, attribute, info taken from (result, args) or None)
TARGETS = [
    ("checkpoint.load", matcha.checkpoint, "load_checkpoint", None),
    ("checkpoint.save", matcha.checkpoint, "save_checkpoint", _saved_bytes),
    ("data.load_dataset", matcha.data, "load_dataset", _size),
    ("data.tokenize_records", matcha.data, "tokenize_records", _tokenized),
    ("tokenizer.load", matcha.tokenizer, "load_vocabulary", None),
    ("tokenizer.load", matcha.tokenizer.WordVocabulary, "load", None),
    ("tokenizer.encode", matcha.tokenizer.Vocabulary, "encode", _size),
    ("tokenizer.encode", matcha.tokenizer.WordVocabulary, "encode", _size),
    ("model.score", matcha.model, "score", None),
    ("model.represent", matcha.model, "represent", _first_len),
    ("training.train", matcha.training, "train", None),
    ("training.loss_and_grads", matcha.training, "loss_and_grads", None),
    ("training.adam_step", matcha.training, "adam_step", None),
    ("training.margin_loss", matcha.training, "margin_loss", _active),
    ("training.start_epoch", matcha.training.BatchSchedule, "start_epoch", None),
    ("training.next_batch", matcha.training.BatchSchedule, "next_batch", None),
    ("evaluation.rouge", matcha.evaluation, "rouge_n_f1", None),
    ("evaluation.rouge_l", matcha.evaluation, "rouge_l_f1", None),
    ("evaluation.separation_report", matcha.evaluation, "separation_report", None),
    ("attribution.ig", matcha.attribution, "integrated_gradients", _steps),
]


class Tracer:
    """Records spans as [name, start, end, parent index, info] rows."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index, None)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int, info) -> None:
        self._stack.pop()
        row = self.spans[index]
        row[2] = time.perf_counter()
        row[4] = info

    def _wrap(self, name: str, fn, info_fn):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            info = None
            try:
                result = fn(*args, **kwargs)
                if info_fn is not None:
                    info = info_fn(result, args)
                return result
            finally:
                tracer._close(index, info)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap each target wherever a matcha module or class refers to it."""
        modules = [m for n, m in sys.modules.items() if n == "matcha" or n.startswith("matcha.")]
        for name, owner, attr, info_fn in TARGETS:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, info_fn))
                self._patch(owner, attr, raw, wrapped)
                continue
            wrapped = self._wrap(name, raw, info_fn)
            if isinstance(owner, type):
                self._patch(owner, attr, raw, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._patch(module, key, raw, wrapped)

    def _patch(self, owner, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans: list[list], shape: dict) -> dict[str, tuple[float, str, int]]:
    """Per-layer figures as name -> (value, unit, sample count).

    Rates divide the work a layer reports by the inclusive time of its spans;
    `cli.*.self_s` is the CLI span minus the spans it directly contains.
    Counts are per call of the command that produces them, so they repeat
    exactly for a given seed however many chunks fit in the run.
    """
    child_time = [0.0] * len(spans)
    root = [""] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            root[i] = root[parent] or spans[parent][0]

    by_name: dict[str, list[int]] = {}
    for i, row in enumerate(spans):
        by_name.setdefault(row[0], []).append(i)

    def durations(name: str) -> list[float]:
        return [spans[i][2] - spans[i][1] for i in by_name.get(name, [])]

    def infos(name: str, under: str | None = None) -> list[int]:
        return [spans[i][4] for i in by_name.get(name, [])
                if spans[i][4] is not None and (under is None or root[i] == under)]

    def rate(name: str, work: list[int]) -> float:
        busy = sum(durations(name))
        return sum(work) / busy if busy else 0.0

    def per_call(counts: list[int], calls: int) -> float:
        return sum(counts) / calls if calls else 0.0

    out: dict[str, tuple[float, str, int]] = {}
    n_eval = len(by_name.get("cli.evaluate", []))
    n_train = len(by_name.get("cli.train", []))

    tokens = infos("tokenizer.encode")
    out["tokenizer.encode_tokens_per_s"] = (rate("tokenizer.encode", tokens), "tokens/s", len(tokens))
    loads = durations("tokenizer.load")
    out["tokenizer.load_s"] = (_pct(loads, 50), "s", len(loads))
    out["tokenizer.tokens_per_evaluate"] = (per_call(infos("tokenizer.encode", "cli.evaluate"), n_eval), "count", n_eval)

    rows = infos("data.load_dataset")
    out["data.load_jsonl_rows_per_s"] = (rate("data.load_dataset", rows), "rows/s", len(rows))
    triplets = infos("data.tokenize_records")
    out["data.tokenize_records_triplets_per_s"] = (rate("data.tokenize_records", triplets), "triplets/s", len(triplets))

    lengths = infos("model.represent")
    out["model.represent_docs_per_s"] = (rate("model.represent", [1] * len(lengths)), "docs/s", len(lengths))
    eval_lengths = infos("model.represent", "cli.evaluate")
    out["model.docs_per_evaluate"] = (len(eval_lengths) / n_eval if n_eval else 0.0, "count", n_eval)
    d, n_ctx = shape["dim"], shape["n_ctx"]
    # projection 2*L*D*(N_c*D) plus conversion 2*(N_c*L)*D*D, per forwarded document
    flops = [4 * length * n_ctx * d * d for length in eval_lengths]
    out["model.forward_flops_per_doc"] = (float(np.mean(flops)) if flops else 0.0, "flop", len(flops))
    scores_ms = [1e3 * t for t in durations("model.score")]
    out["model.score_ms_p50"] = (_pct(scores_ms, 50), "ms", len(scores_ms))
    out["model.score_ms_p99"] = (_pct(scores_ms, 99), "ms", len(scores_ms))

    lag = [1e3 * t for t in durations("training.loss_and_grads")]
    out["training.loss_and_grads_ms_p50"] = (_pct(lag, 50), "ms", len(lag))
    out["training.microbatches"] = (len(lag) / n_train if n_train else 0.0, "count", n_train)
    adam = [1e3 * t for t in durations("training.adam_step")]
    out["training.adam_step_ms_p50"] = (_pct(adam, 50), "ms", len(adam))
    out["training.optimizer_steps"] = (len(adam) / n_train if n_train else 0.0, "count", n_train)
    # parameter, gradient, first and second moment read; parameter and moments written
    out["training.adam_bytes_per_step"] = (float(7 * 8 * shape["trained_entries"]), "B", 1)
    epochs = len(by_name.get("training.start_epoch", []))
    schedule = sum(durations("training.start_epoch")) + sum(durations("training.next_batch"))
    out["training.schedule_s_per_epoch"] = (schedule / epochs if epochs else 0.0, "s", epochs)
    hinges = infos("training.margin_loss")
    out["training.active_hinge_ratio"] = (sum(hinges) / len(hinges) if hinges else 0.0, "ratio", len(hinges))

    saves = durations("checkpoint.save")
    out["checkpoint.save_s"] = (_pct(saves, 50), "s", len(saves))
    ckpt_loads = durations("checkpoint.load")
    out["checkpoint.load_s"] = (_pct(ckpt_loads, 50), "s", len(ckpt_loads))
    sizes = infos("checkpoint.save")
    out["checkpoint.bytes"] = (float(max(sizes)) if sizes else 0.0, "B", len(sizes))

    rouge_pairs = len(by_name.get("evaluation.rouge_l", []))
    rouge_busy = sum(durations("evaluation.rouge")) + sum(durations("evaluation.rouge_l"))
    out["evaluation.rouge_pairs_per_s"] = (rouge_pairs / rouge_busy if rouge_busy else 0.0, "pairs/s", rouge_pairs)
    seps = durations("evaluation.separation_report")
    out["evaluation.separation_report_s"] = (sum(seps) / n_eval if n_eval else 0.0, "s", n_eval)

    ig_ms = [1e3 * t for t in durations("attribution.ig")]
    out["attribution.ig_ms_p50"] = (_pct(ig_ms, 50), "ms", len(ig_ms))
    out["attribution.ig_ms_p90"] = (_pct(ig_ms, 90), "ms", len(ig_ms))
    evals = infos("attribution.ig")
    out["attribution.grad_evals_per_s"] = (rate("attribution.ig", evals), "1/s", len(evals))
    out["attribution.grad_evals_per_ig"] = (per_call(evals, len(evals)), "count", len(evals))

    for command in ("train", "evaluate"):
        ids = by_name.get(f"cli.{command}", [])
        selfs = [spans[i][2] - spans[i][1] - child_time[i] for i in ids]
        out[f"cli.{command}.self_s"] = (_pct(selfs, 50), "s", len(selfs))
    return out
