"""Corpus ingestion: JSONL records, dataset registry, triplet completion, sampling."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import InsufficientCorpusError, SchemaError, is_number, read_json, read_jsonl, refuse_lone_surrogate
from .training import TokenizedDataset

REROLL_LIMIT = 100


@dataclass(frozen=True)
class Record:
    """One corpus line: a reference, a correct candidate, optionally an incorrect one."""

    reference: str
    correct: str
    incorrect: str | None = None
    dataset: str = ""
    human_score: float | None = None
    id: str = ""


@dataclass
class DatasetManifest:
    name: str
    path: str
    has_contrastive: bool = False
    rating_scale: tuple[float, float] | None = None
    sample_cap: int | None = None


def _parse_line(obj, path: str, lineno: int, default_dataset: str) -> Record:
    where = f"{path}: line {lineno}"
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected a JSON object")
    for key in ("reference", "correct"):
        value = obj.get(key)
        if not isinstance(value, str) or not value.strip():
            raise SchemaError(f"{where}: missing or empty {key!r}")
    incorrect = obj.get("incorrect")
    if incorrect is not None and (not isinstance(incorrect, str) or not incorrect.strip()):
        raise SchemaError(f"{where}: 'incorrect' must be a non-empty string or null")
    human = obj.get("human_score")
    if human is not None and not is_number(human, finite=False):
        raise SchemaError(f"{where}: 'human_score' must be a number or null")
    rec_id = obj.get("id")
    if rec_id is not None and not isinstance(rec_id, str):
        raise SchemaError(f"{where}: 'id' must be a string or null")
    for key in ("reference", "correct", "incorrect", "dataset", "id"):
        refuse_lone_surrogate(obj.get(key), where, key)
    return Record(
        reference=obj["reference"],
        correct=obj["correct"],
        incorrect=incorrect,
        dataset=obj.get("dataset") or default_dataset,
        human_score=None if human is None else float(human),
        id=rec_id or f"line{lineno}",
    )


def load_jsonl(path: str, *, default_dataset: str = "") -> list[Record]:
    """Load records in file order; ids default to their line numbers.  The first bad line
    (bytes, JSON or schema) raises SchemaError naming the file and line."""
    return [_parse_line(obj, path, lineno, default_dataset) for lineno, obj in read_jsonl(path, SchemaError)]


def make_triplets(
    records: list[Record], rng: np.random.Generator, has_contrastive: bool
) -> list[Record]:
    """Complete every record with an incorrect candidate.

    Records that already carry one pass through untouched.  For the rest a
    random other record's correct text is sampled, rerolling on string
    equality with the record's own correct or reference (at most
    REROLL_LIMIT attempts).  A dataset declared contrastive must not have
    gaps to fill.
    """
    missing = [i for i, r in enumerate(records) if r.incorrect is None]
    if has_contrastive and missing:
        raise SchemaError(
            f"dataset declared contrastive but {len(missing)} records lack 'incorrect'"
        )
    if missing and len(records) < 2:
        raise InsufficientCorpusError("need at least 2 records to sample negatives")
    out: list[Record] = []
    for i, rec in enumerate(records):
        if rec.incorrect is not None:
            out.append(rec)
            continue
        for _ in range(REROLL_LIMIT):
            j = int(rng.integers(len(records)))
            candidate = records[j].correct
            if j != i and candidate != rec.correct and candidate != rec.reference:
                out.append(replace(rec, incorrect=candidate))
                break
        else:
            raise InsufficientCorpusError(
                f"record {rec.id}: no distinct negative found in {REROLL_LIMIT} draws"
            )
    return out


def cap_and_shuffle(records: list[Record], cap: int, rng: np.random.Generator) -> list[Record]:
    """Uniform sample without replacement of min(cap, n) records, in shuffled order."""
    take = min(cap, len(records))
    order = rng.permutation(len(records))[:take]
    return [records[int(i)] for i in order]


def load_registry(path: str) -> list[DatasetManifest]:
    """Read a JSON list of dataset manifests; paths are relative to the registry file."""
    raw = read_json(path, SchemaError)
    if not isinstance(raw, list):
        raise SchemaError(f"{path}: expected a JSON list of manifests")
    base = os.path.dirname(os.path.abspath(path))
    manifests: list[DatasetManifest] = []
    seen: set[str] = set()
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or not all(isinstance(entry.get(k), str) for k in ("name", "path")):
            raise SchemaError(f"{path}: manifest {i} must carry string 'name' and 'path'")
        name = entry["name"]
        if name in seen:
            raise SchemaError(f"{path}: duplicate dataset name {name!r}")
        seen.add(name)
        scale = entry.get("rating_scale")
        if scale is not None:
            if not (isinstance(scale, list) and len(scale) == 2 and all(map(is_number, scale)) and scale[0] < scale[1]):
                raise SchemaError(f"{path}: manifest {name!r} rating_scale must be [min, max], got {scale!r}")
            scale = (float(scale[0]), float(scale[1]))
        cap = entry.get("sample_cap")
        if cap is not None and (type(cap) is not int or cap < 1):  # a bool is no count
            raise SchemaError(f"{path}: manifest {name!r} sample_cap must be an integer >= 1, got {cap!r}")
        contrastive = entry.get("has_contrastive", False)
        if not isinstance(contrastive, bool):
            raise SchemaError(f"{path}: manifest {name!r} has_contrastive must be true or false, got {contrastive!r}")
        manifests.append(
            DatasetManifest(
                name=name,
                path=os.path.join(base, entry["path"]),
                has_contrastive=contrastive,
                rating_scale=scale,
                sample_cap=cap,
            )
        )
    return manifests


def load_dataset(
    manifest: DatasetManifest,
    rng: np.random.Generator,
    *,
    complete_triplets: bool = True,
) -> list[Record]:
    """Load, validate against the manifest, apply the sample cap, complete triplets.

    Evaluation callers pass complete_triplets=False to score only the pairs
    the corpus actually provides.
    """
    records = load_jsonl(manifest.path, default_dataset=manifest.name)
    if manifest.rating_scale is not None:
        lo, hi = manifest.rating_scale
        for rec in records:
            if rec.human_score is not None and not lo <= rec.human_score <= hi:
                raise SchemaError(
                    f"{manifest.path}: record {rec.id} human_score {rec.human_score} "
                    f"outside scale [{lo}, {hi}]"
                )
    if manifest.sample_cap is not None:
        records = cap_and_shuffle(records, manifest.sample_cap, rng)
    if not complete_triplets:
        return records
    return make_triplets(records, rng, manifest.has_contrastive)


def tokenize_records(
    name: str, records: list[Record], vocab, max_len: int, has_contrastive: bool = True
) -> TokenizedDataset:
    """Encode completed triplets into a dataset the trainer can batch."""
    items = []
    for rec in records:
        if rec.incorrect is None:
            raise SchemaError(f"record {rec.id} has no incorrect candidate; run make_triplets first")
        items.append(
            (
                vocab.encode(rec.reference, max_len),
                vocab.encode(rec.correct, max_len),
                vocab.encode(rec.incorrect, max_len),
            )
        )
    return TokenizedDataset(name=name, items=items, has_contrastive=has_contrastive)
