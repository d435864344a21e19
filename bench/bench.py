"""Closed-loop benchmark of matcha's four jobs: train, score, evaluate, attribute.

    python3 bench/bench.py --workload desk --seed 1 --seconds 30 --trace 0

One process and one caller; every call waits for the previous one.  Each
phase drives an entry point a user calls: `matcha.cli.main(["train", ...])`,
`matcha.score`, `main(["evaluate", ...])` and `attribution_gap`.  A phase
repeats an equal-sized chunk of work until its share of `--seconds` is
spent; its throughput is the median over chunks after one warm-up chunk,
which keeps a single slow chunk from moving the figure.  Every operation's
output is checked, and `ok_ops_ratio` counts the ones that passed.

On a shared 2-core VM the whole machine runs up to 1.5x slower for seconds
at a time, and for whole runs, and every phase slows with it.  So a fixed
kernel of the benchmark's own (`Reference`) is timed before every chunk and
after the last, and each chunk's time and each set-up time is scaled by the
readings around it to the machine's fast state.  The end-to-end figures are
these corrected values; each is printed with its uncorrected median beside
it, and the record keeps every raw time and reading.  Per-layer figures are
not corrected.

With `--trace 1` chunks alternate between untraced and traced (the wrappers
in tracing.py), the per-layer figures come from the traced chunks and
`trace.overhead_ratio` compares the two.  End-to-end figures come only from
`--trace 0` runs.

The last stdout line is the JSON result; the line before it records the
environment.  The full record, with per-chunk times, goes to
`.bench_out/<workload>-seed<seed>-trace<t>.json` and the spans of the last
traced run to `.bench_out/<workload>.spans.jsonl`.
"""

import os

# Pinned before numpy loads: with 2 OpenBLAS threads on a 2-core machine the
# same forward swings by up to 8x between runs; with 1 it stays within 2x.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
if not (SRC / "matcha" / "__init__.py").is_file():
    sys.exit(f"bench: no matcha package under {SRC}")
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np  # noqa: E402

import matcha  # noqa: E402
import matcha.cli  # noqa: E402
import matcha.evaluation  # noqa: E402
import matcha.training  # noqa: E402
import workloads  # noqa: E402
from matcha.attribution import attribution_gap, integrated_gradients  # noqa: E402
from matcha.checkpoint import load_checkpoint  # noqa: E402
from matcha.errors import MatchaError  # noqa: E402
from matcha.tokenizer import WordVocabulary, load_vocabulary  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

PHASES = (  # name, end-to-end metric, unit, share of --seconds
    ("train", "train_triplets_per_s", "triplets/s", 0.40),
    ("score", "score_pairs_per_s", "pairs/s", 0.15),
    ("evaluate", "evaluate_rows_per_s", "rows/s", 0.25),
    ("attribute", "attribute_pairs_per_s", "pairs/s", 0.20),
)
WARMUP_CHUNKS = 1
MIN_MEASURED_CHUNKS = 4
SETUP_REPEATS = 7
IG_STEPS = 64
IG_CHECK_STEPS = 256

# Runs in a fresh interpreter so `import matcha` is paid every time.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import matcha
from matcha.checkpoint import load_checkpoint
from matcha.tokenizer import WordVocabulary, load_vocabulary
vocab = load_vocabulary(sys.argv[3], sys.argv[4]) if len(sys.argv) > 4 else WordVocabulary.load(sys.argv[3])
params = load_checkpoint(sys.argv[2])
print(time.perf_counter() - t0)
"""


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


def _blas_name() -> str:
    try:
        return str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"])
    except (TypeError, KeyError):
        return "unknown"


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "git_sha": _git_sha(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


class Workload:
    """One workload's generated inputs, the four phases over them, and their checks."""

    def __init__(self, spec: workloads.Spec, seed: int, workdir: Path, tracer: Tracer | None) -> None:
        self.spec, self.seed, self.workdir, self.tracer = spec, seed, workdir, tracer
        self.inputs = workloads.build(spec, seed, str(workdir))
        self.ckpt = str(workdir / "model.ckpt")
        self.rng = np.random.default_rng(seed)
        self.pairs = [(r, c) for r, cor, inc in self.inputs.eval_records for c in (cor, inc)]
        self.pair_scores: dict[int, float] = {}
        self.params = self.vocab = None
        self.trained = None
        self.separation: dict | None = None
        self.failures: list[str] = []

        n_epochs = int(spec.train_flags[spec.train_flags.index("--epochs") + 1])
        self.work = {
            "train": spec.train_records * n_epochs,
            "score": len(self.pairs),
            "evaluate": len(self.inputs.eval_records),  # JSONL rows, one triplet each
            "attribute": 2 * spec.attribute_triplets,
        }
        # `matcha train` builds the trained params in memory; keep them to
        # compare with the checkpoint it saves.  The lookup goes through the
        # module so a traced chunk still reaches the traced `train`.
        def capture_train(*args, **kwargs):
            self.trained, report = matcha.training.train(*args, **kwargs)
            return self.trained, report

        matcha.cli.train = capture_train

    def close(self) -> None:
        matcha.cli.train = matcha.training.train

    # --- helpers ---------------------------------------------------------

    def _fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)

    def _main(self, command: str, argv: list[str]) -> int:
        traced = self.tracer is not None and self.tracer.installed
        span = self.tracer.span(f"cli.{command}") if traced else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(io.StringIO()):
            return matcha.cli.main([command, *argv])

    def load_model(self) -> None:
        inp = self.inputs
        self.params = load_checkpoint(self.ckpt)
        if inp.merges_path:
            self.vocab = load_vocabulary(inp.vocab_path, inp.merges_path)
        else:
            self.vocab = WordVocabulary.load(inp.vocab_path)

    def setup_args(self) -> list[str]:
        inp = self.inputs
        return [str(SRC), self.ckpt, inp.vocab_path] + ([inp.merges_path] if inp.merges_path else [])

    def shape(self) -> dict:
        p = self.params
        trained = p.proj_weight.size + p.proj_bias.size + p.conversion.size + p.embedding.size
        return {"dim": p.hyper.dim, "n_ctx": p.hyper.n_ctx, "trained_entries": trained}

    # --- train -------------------------------------------------------------

    def train_timed(self):
        inp = self.inputs
        argv = ["--data", inp.train_jsonl, "--out", self.ckpt, "--seed", str(self.seed),
                *inp.train_vocab_flags, *self.spec.train_flags]
        self.trained = None
        return self._main("train", argv)

    def train_check(self, code) -> tuple[int, int]:
        if code != 0 or self.trained is None:
            self._fail(f"train exited {code}")
            return 1, 1
        with open(self.ckpt + ".train.jsonl", encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh.read().splitlines()[1:]]
        losses = [row["mean_loss"] for row in rows]
        if not losses or not all(math.isfinite(x) for x in losses):
            self._fail(f"train losses not finite: {losses}")
            return 1, 1
        if self.spec.loss_must_fall and not losses[-1] < losses[0]:
            self._fail(f"train loss did not fall: {losses}")
            return 1, 1
        loaded = load_checkpoint(self.ckpt)
        for name in ("embedding", "proj_weight", "proj_bias", "conversion"):
            in_memory = getattr(self.trained, name).astype(np.float32).astype(np.float64)
            if not np.array_equal(getattr(loaded, name), in_memory):
                self._fail(f"checkpoint tensor {name} differs from the trained one")
                return 1, 1
        return 1, 0

    # --- score ---------------------------------------------------------------

    def score_timed(self):
        params, vocab = self.params, self.vocab
        out = []
        for ref, cand in self.pairs:
            try:
                out.append(matcha.score(params, ref, cand, vocab))
            except MatchaError as exc:
                out.append(exc)
        return out

    def score_check(self, out) -> tuple[int, int]:
        failed = 0
        for index, value in enumerate(out):
            ok = isinstance(value, float) and math.isfinite(value) and -1.0 <= value <= 1.0
            if ok and index in self.pair_scores:
                ok = value == self.pair_scores[index]
            elif ok:
                self.pair_scores[index] = value
            if not ok:
                failed += 1
                self._fail(f"score of pair {index}: {value!r}")
        return len(out), failed

    # --- evaluate --------------------------------------------------------------

    def evaluate_timed(self):
        inp = self.inputs
        report = str(self.workdir / "report.json")
        argv = ["--data", inp.eval_jsonl, "--ckpt", self.ckpt, *inp.eval_vocab_flags,
                "--out", report, "--seed", str(self.seed)] + (["--rouge"] if self.spec.rouge else [])
        code = self._main("evaluate", argv)
        if code != 0:
            return None
        with open(report, encoding="utf-8") as fh:
            return json.load(fh)

    def evaluate_check(self, report) -> tuple[int, int]:
        if report is None:
            self._fail("evaluate exited non-zero")
            return 1, 1
        if len(self.pair_scores) < len(self.pairs):
            self._fail("evaluate check needs every pair scored first")
            return 1, 1
        scores = [self.pair_scores[i] for i in range(len(self.pairs))]
        correct, incorrect = scores[0::2], scores[1::2]
        try:
            stats = report["separation"]["held"]["matcha"]
        except KeyError:
            self._fail("evaluate report lacks held/matcha separation")
            return 1, 1
        for key, values in (("mean_correct", correct), ("mean_incorrect", incorrect)):
            if abs(stats[key] / 100.0 - float(np.mean(values))) > 1e-9:
                self._fail(f"evaluate {key} {stats[key]} != mean of score() x100")
                return 1, 1
        if self.spec.separation_gate:
            gaps = np.asarray(correct) - np.asarray(incorrect)
            self.separation = {
                "n_delta": stats["n_delta"],
                "rouge1_n_delta": report["separation"]["held"]["rouge1"]["n_delta"],
                "strict_rate": float(np.mean(gaps > 0)),
                "margin_rate": float(np.mean(gaps >= self.params.hyper.margin * 0.5)),
            }
            # Acceptance criterion 5 also asks for margin_rate >= 0.80.  That
            # holds for the acceptance suite's seed but not for every seed
            # (0.765 and 0.775 on 2 of 15 probed), so it is recorded, not gated.
            sep = self.separation
            if not (sep["n_delta"] >= 2 * sep["rouge1_n_delta"] and sep["strict_rate"] >= 0.90):
                self._fail(f"separation: {sep}")
                return 1, 1
        return 1, 0

    # --- attribute -------------------------------------------------------------

    def attribute_timed(self):
        batch = self.inputs.eval_records[: self.spec.attribute_triplets]
        try:
            result = attribution_gap(self.params, batch, self.vocab, steps=IG_STEPS, baseline_kind="zero")
        except MatchaError as exc:
            result = exc
        return batch, result

    def attribute_check(self, out) -> tuple[int, int]:
        batch, result = out
        ops = 2 * len(batch)
        if isinstance(result, Exception):
            self._fail(f"attribution_gap raised {result!r}")
            return ops, ops
        mean_c, mean_i, gap = result
        if not all(math.isfinite(x) for x in result) or gap != mean_c - mean_i:
            self._fail(f"attribution_gap returned {result}")
            return ops, ops
        ref, cor, inc = batch[int(self.rng.integers(len(batch)))]
        cand = cor if self.rng.random() < 0.5 else inc
        try:
            ig = integrated_gradients(self.params, ref, cand, self.vocab, "toward_candidate", IG_CHECK_STEPS, "zero")
        except MatchaError as exc:
            self._fail(f"{IG_CHECK_STEPS}-step IG raised {exc!r}")
            return ops, ops
        if not ig.completeness_residual <= 1e-3 * abs(ig.score - ig.baseline_score) + 1e-6:
            self._fail(f"IG residual {ig.completeness_residual:.3g} for delta {ig.score - ig.baseline_score:.3g}")
            return ops, ops
        return ops, 0


class Reference:
    """Fixed work owned by the benchmark, timed between chunks to track machine speed.

    A reading times the same mix of interpreter loops, small NumPy calls, a
    GEMM and a memory-bound pass over 16 MB, about 10 ms in all.  Nothing in
    it calls matcha, so a change to the program leaves it alone.  Of several
    kernels probed against the phases of all three workloads, this mix
    tracked them best (correlation 0.85-0.93, slope 1.0-1.2 in log time).
    `factor` scales a chunk to the speed at which one reading takes
    NOMINAL_S, about the 5th percentile of readings on that VM.
    """

    NOMINAL_S = 0.010

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.words = ("the door is open and the light is on " * 4).split()
        self.vectors = rng.random((64, 64))
        self.square = rng.random((192, 192))
        self.big = rng.random(2_000_000)
        self.spare = np.empty_like(self.big)
        self.readings: list[float] = []

    def sample(self) -> int:
        """Take one reading; returns its index."""
        started = time.perf_counter()
        counts: dict[str, int] = {}
        for _ in range(800):
            for word in self.words:
                counts[word] = counts.get(word, 0) + 1
        total = 0.0
        for i in range(600):
            v = self.vectors[i & 63]
            total += float(np.dot(v, v) / np.linalg.norm(v))
        for _ in range(9):
            self.square @ self.square
        np.multiply(self.big, 1.0000001, out=self.spare)
        np.add(self.spare, self.big, out=self.spare)
        self.readings.append(time.perf_counter() - started)
        return len(self.readings) - 1

    def factor(self, index: int) -> float:
        """Speed correction for the work between readings `index` and `index + 1`."""
        return (self.readings[index] + self.readings[index + 1]) / (2 * self.NOMINAL_S)


class Phase:
    """Chunk times and operation counts of one phase."""

    def __init__(self, workload: Workload, name: str, share: float) -> None:
        self.timed = getattr(workload, f"{name}_timed")
        self.check = getattr(workload, f"{name}_check")
        self.work = workload.work[name]
        self.share = share
        self.chunks = 0
        self.spent = 0.0
        self.samples: list[tuple[float, int, bool]] = []  # (seconds, reading before it, traced)
        self.attempted = self.failed = 0

    def run_chunk(self, tracer: Tracer | None, reference: Reference) -> None:
        gc.collect()  # garbage of earlier chunks must not be collected inside this one
        # After the warm-up chunk, every other chunk of a traced run is traced.
        trace_this = tracer is not None and self.chunks % 2 == 0 and self.chunks > 0
        ref_index = reference.sample()
        if trace_this:
            tracer.install()
        try:
            started = time.perf_counter()
            out = self.timed()
            elapsed = time.perf_counter() - started
        finally:
            if trace_this:
                tracer.uninstall()
        attempted, failed = self.check(out)
        self.attempted += attempted
        self.failed += failed
        if self.chunks >= WARMUP_CHUNKS:
            self.samples.append((elapsed, ref_index, trace_this))
        self.chunks += 1
        self.spent += elapsed

    def seconds(self, reference: Reference, traced: bool, corrected: bool = True) -> list[float]:
        """Measured chunk times, scaled to the reference speed unless `corrected` is false."""
        return [t / reference.factor(i) if corrected else t
                for t, i, was_traced in self.samples if was_traced == traced]


def run_phases(phases: dict[str, Phase], seconds: float, tracer: Tracer | None, reference: Reference) -> None:
    """Interleave chunks of all phases until `seconds` have passed.

    The next chunk always goes to the phase furthest below its share of the
    time spent so far, so each phase's samples spread over the whole run and
    a slow spell of the machine hits every phase alike.
    """
    deadline = time.perf_counter() + seconds
    min_chunks = WARMUP_CHUNKS + MIN_MEASURED_CHUNKS
    while True:
        short = [p for p in phases.values() if p.chunks < min_chunks]
        if time.perf_counter() >= deadline:
            if not short:
                break
            candidates = short
        else:
            candidates = list(phases.values())
        min(candidates, key=lambda p: p.spent / p.share).run_chunk(tracer, reference)
    reference.sample()  # closes the last chunk


def measure_setup(workload: Workload, reference: Reference) -> list[tuple[float, int]]:
    """Set-up times of fresh interpreters, each with the reading taken before it."""
    samples = []
    for _ in range(SETUP_REPEATS):
        ref_index = reference.sample()
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, *workload.setup_args()],
                              capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            workload._fail(f"setup child exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        samples.append((float(proc.stdout.strip().splitlines()[-1]), ref_index))
    reference.sample()
    return samples


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "q3": q3}


def run(workload_name: str, seed: int, seconds: int, trace: bool, spec: workloads.Spec | None = None) -> dict:
    """Run one workload; returns the result record (metrics with units and sample counts)."""
    spec = spec or workloads.SPECS[workload_name]
    tracer = Tracer() if trace else None
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload_name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    wl = Workload(spec, seed, workdir, tracer)
    reference = Reference()
    try:
        phases = {name: Phase(wl, name, share) for name, _, _, share in PHASES}
        # Warm-up in dependency order: train writes the checkpoint the others
        # load, and score fixes the per-pair values the evaluate check uses.
        phases["train"].run_chunk(tracer, reference)
        wl.load_model()
        setup = [] if trace else measure_setup(wl, reference)
        for name in ("score", "evaluate", "attribute"):
            phases[name].run_chunk(tracer, reference)
        run_phases(phases, seconds, tracer, reference)
        attempted = sum(p.attempted for p in phases.values()) + (0 if trace else SETUP_REPEATS)
        failed = sum(p.failed for p in phases.values()) + (0 if trace else SETUP_REPEATS - len(setup))
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    metrics: dict[str, dict] = {}

    def put(name: str, value: float, unit: str, samples: int, **extra) -> None:
        metrics[name] = {"value": value, "unit": unit, "samples": samples, **extra}

    if trace:
        for name, (value, unit, samples) in layer_metrics(tracer.spans, wl.shape()).items():
            put(name, value, unit, samples)
        if metrics["evaluation.rouge_pairs_per_s"]["samples"] == 0:
            # evaluate runs without --rouge here; time the layer directly on the same pairs
            tracer.install()
            try:
                for ref, cand in wl.pairs:
                    matcha.evaluation.rouge_n_f1(ref, cand, 1)
                    matcha.evaluation.rouge_n_f1(ref, cand, 2)
                    matcha.evaluation.rouge_l_f1(ref, cand)
            finally:
                tracer.uninstall()
            rouge = layer_metrics(tracer.spans, wl.shape())["evaluation.rouge_pairs_per_s"]
            put("evaluation.rouge_pairs_per_s", rouge[0], rouge[1], rouge[2], direct=True)
        plain = sum(statistics.median(p.seconds(reference, traced=False)) for p in phases.values())
        traced = sum(statistics.median(p.seconds(reference, traced=True)) for p in phases.values())
        put("trace.overhead_ratio", traced / plain, "ratio", len(phases))
    else:
        for phase, metric, unit, _ in PHASES:
            p = phases[phase]
            rates = [p.work / t for t in p.seconds(reference, traced=False)]
            raw = [p.work / t for t in p.seconds(reference, traced=False, corrected=False)]
            put(metric, statistics.median(rates), unit, len(rates), **_quartiles(rates), raw=statistics.median(raw))
        if not setup:
            raise RuntimeError(f"every set-up run failed: {wl.failures}")
        setup_s = [t / reference.factor(i) for t, i in setup]
        put("setup_s", statistics.median(setup_s), "s", len(setup_s), **_quartiles(setup_s),
            raw=statistics.median(t for t, _ in setup))
        put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
        put("ok_ops_ratio", (attempted - failed) / attempted, "ratio", attempted)

    return {
        "env": {**environment(workload_name, seed, seconds, int(trace)),
                "reference_median_s": statistics.median(reference.readings)},
        "attempted": attempted,
        "failed": failed,
        "failures": wl.failures,
        "separation": wl.separation,
        "metrics": metrics,
        "chunks": {name: {"work": p.work, "samples": p.samples} for name, p in phases.items()},
        "setup": setup,
        "readings": reference.readings,
        "spans": tracer.spans if tracer else None,
    }


def format_lines(record: dict) -> list[str]:
    """Human-readable metric lines, the environment line, and the JSON result line last."""
    lines = [f"check failed: {message}" for message in record["failures"]]
    for name, m in record["metrics"].items():
        raw = f" uncorrected={m['raw']:.6g}" if "raw" in m else ""
        lines.append(f"{name:40s} {m['value']:>14.6g} {m['unit']:<11s} samples={m['samples']}{raw}")
    if record["separation"]:
        lines.append("held-out separation: " + ", ".join(f"{k} {v:.3f}" for k, v in record["separation"].items()))
    lines.append(json.dumps({"env": record["env"]}))
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in record["metrics"].items()},
    }
    lines.append(json.dumps(result))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("desk", "gpt2-table", "bpe-long"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:  # report and fail the run without a result line
        traceback.print_exc()
        return 1

    spans = record.pop("spans")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        with open(OUT / f"{args.workload}.spans.jsonl", "w", encoding="utf-8") as fh:
            for name, start, end, parent, info in spans:
                fh.write(json.dumps([name, start, end, parent, info]) + "\n")

    print("\n".join(format_lines(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
