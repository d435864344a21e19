import json
import re

import numpy as np
import pytest

from matcha.data import (
    DatasetManifest,
    Record,
    cap_and_shuffle,
    load_dataset,
    load_jsonl,
    load_registry,
    make_triplets,
    tokenize_records,
)
from matcha.errors import InsufficientCorpusError, SchemaError, read_lines
from matcha.synthetic import make_synthetic_corpus
from matcha.tokenizer import build_word_vocabulary
from oracles import load_jsonl_binary


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return str(path)


class TestLoadJsonl:
    def test_empty_file(self, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", [])
        assert load_jsonl(path) == []

    def test_three_lines_in_order(self, tmp_path):
        rows = [{"reference": f"r{i}", "correct": f"c{i}"} for i in range(3)]
        path = write_jsonl(tmp_path / "d.jsonl", rows)
        records = load_jsonl(path)
        assert [r.reference for r in records] == ["r0", "r1", "r2"]
        assert [r.id for r in records] == ["line1", "line2", "line3"]
        assert load_jsonl(path) == records  # idempotent

    def test_missing_reference_names_line(self, tmp_path):
        rows = [{"reference": "r", "correct": "c"}, {"correct": "c"}]
        path = write_jsonl(tmp_path / "d.jsonl", rows)
        with pytest.raises(SchemaError, match="line 2"):
            load_jsonl(path)

    @pytest.mark.parametrize("lineno, bad_line, message", [
        (2, b"not json", "line 2: invalid JSON (Expecting value)"),
        (3, b'{"reference": "", "correct": "c"}', "line 3: missing or empty 'reference'"),
        (4, b'{"reference": "\xff", "correct": "c"}', "line 4: not UTF-8 at byte 123"),
        (2, b'{"reference": "r", "correct": "the \\ud800 door"}', "line 2: 'correct' holds a lone surrogate at character 4"),
        (3, b'{"reference": "r", "correct": "c", "incorrect": "\\udfff"}',
         "line 3: 'incorrect' holds a lone surrogate at character 0"),
        (5, b'{"reference": "r", "correct": "c", "id": "x\\udc80"}', "line 5: 'id' holds a lone surrogate at character 1"),
    ], ids=["invalid_json", "empty_reference", "not_utf8", "surrogate_correct", "surrogate_incorrect", "surrogate_id"])
    def test_first_bad_line_raises_naming_file_and_line(self, tmp_path, lineno, bad_line, message):
        lines = [b'{"reference": "r%d", "correct": "c"}' % k for k in range(1, 6)]
        lines[lineno - 1] = bad_line
        path = tmp_path / "d.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(SchemaError) as caught:
            load_jsonl(str(path))
        assert str(caught.value) == f"{path}: {message}"

    @pytest.mark.parametrize("value", [True, False, "4.5"])
    def test_human_score_must_be_a_number(self, tmp_path, value):
        rows = [{"reference": "r", "correct": "c", "human_score": 3}, {"reference": "r", "correct": "c",
                                                                        "human_score": value}]
        path = write_jsonl(tmp_path / "d.jsonl", rows)
        with pytest.raises(SchemaError) as caught:
            load_jsonl(path)
        assert str(caught.value) == f"{path}: line 2: 'human_score' must be a number or null"

    def test_full_schema_fields(self, tmp_path):
        rows = [
            {
                "reference": "r",
                "correct": "c",
                "incorrect": "i",
                "dataset": "nli",
                "human_score": 4.5,
                "id": "x1",
            }
        ]
        path = write_jsonl(tmp_path / "d.jsonl", rows)
        (rec,) = load_jsonl(path)
        assert rec == Record(
            reference="r", correct="c", incorrect="i", dataset="nli", human_score=4.5, id="x1"
        )


def desk_corpus_lines() -> list[bytes]:
    """The README walkthrough's corpus (2,000 synthetic triplets, seed 3) and a few rated,
    non-ASCII records, one JSON object per line without its newline."""
    rows = [{"reference": r.reference, "correct": r.correct, "incorrect": r.incorrect, "dataset": r.dataset,
             "id": r.id} for r in make_synthetic_corpus(2000, seed=3)]
    rows += [{"reference": "caf\u00e9 \u2615 open", "correct": "caf\u00e9 open", "human_score": score,
              "id": None, "incorrect": None} for score in (1, 2.5, -0.0, 10**300)]
    rows.append({"reference": "\u2028 line separator", "correct": "\u00e9t\u00e9", "dataset": ""})
    return [json.dumps(row, ensure_ascii=False).encode() for row in rows]


class TestOneReader:
    """`load_jsonl` reads through `errors.read_jsonl`, as every JSONL file is read.  Where lines
    end in "\n" or "\r\n" it gives the records of the binary loop it replaced."""

    @pytest.mark.parametrize("layout", ["lf", "crlf", "blank_lines", "trailing_whitespace", "no_final_newline"])
    def test_records_equal_the_binary_reader(self, tmp_path, layout):
        lines = desk_corpus_lines()
        data = {
            "lf": b"\n".join(lines) + b"\n",
            "crlf": b"\r\n".join(lines) + b"\r\n",
            "blank_lines": b"\n \t\n\n" + b"\n\r\n  \n".join(lines) + b"\n\n\t \n",
            "trailing_whitespace": b"".join(line + b" \t \r\n" for line in lines),
            "no_final_newline": b"\n".join(lines),
        }[layout]
        path = tmp_path / "d.jsonl"
        path.write_bytes(data)
        records = load_jsonl(str(path), default_dataset="desk")
        assert len(records) == 2005
        assert records == load_jsonl_binary(str(path), default_dataset="desk")

    def test_a_lone_cr_ends_a_line(self, tmp_path):
        """"\n", "\r\n" and a lone "\r" each end a line of every file read by lines.  The
        binary loop split at "\n" only, so it read the first two records as one line, and it
        loaded a record with a bare "\r" as JSON whitespace, which now ends the line."""
        path = tmp_path / "d.jsonl"
        path.write_bytes(b'{"reference": "a", "correct": "b"}\r{"reference": "c", "correct": "d"}\r\n'
                         b'\r{"reference": "e", "correct": "f"}\n')
        assert [lineno for lineno, _ in read_lines(str(path), SchemaError)] == [1, 2, 3, 4]
        assert [(r.reference, r.id) for r in load_jsonl(str(path))] == [("a", "line1"), ("c", "line2"), ("e", "line4")]
        with pytest.raises(SchemaError, match=r"line 1: invalid JSON \(Extra data\)"):
            load_jsonl_binary(str(path))
        path.write_bytes(b'{"reference": "a",\r"correct": "b"}\n')
        assert load_jsonl_binary(str(path))[0].correct == "b"
        with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: line 1: invalid JSON \("):
            load_jsonl(str(path))

    def test_a_bad_byte_is_named_by_line_and_file_offset(self, tmp_path):
        """Thousands of lines in, behind multi-byte characters and "\r\n" endings."""
        data = ("caf\u00e9 \u2615\r\n" * 3000 + "x\r").encode() + b"ab\xffc\n"
        path = tmp_path / "m.txt"
        path.write_bytes(data)
        read = []
        with pytest.raises(SchemaError) as caught:
            read.extend(read_lines(str(path), SchemaError))
        bad = data.index(b"\xff")
        assert str(caught.value) == f"{path}: line 3002: not UTF-8 at byte {bad}"
        assert len(read) == 3001 and read[-1] == (3001, "x")


class TestMakeTriplets:
    def test_contrastive_records_pass_through(self):
        records = [Record("r1", "c1", "i1", id="a"), Record("r2", "c2", "i2", id="b")]
        out = make_triplets(records, np.random.default_rng(0), has_contrastive=True)
        assert out == records

    def test_two_records_swap_corrects(self):
        records = [Record("r1", "c1"), Record("r2", "c2")]
        out = make_triplets(records, np.random.default_rng(0), has_contrastive=False)
        assert out[0].incorrect == "c2"
        assert out[1].incorrect == "c1"

    def test_deterministic_under_seed(self):
        records = [Record(f"r{i}", f"c{i}") for i in range(100)]
        a = make_triplets(records, np.random.default_rng(42), False)
        b = make_triplets(records, np.random.default_rng(42), False)
        assert a == b

    def test_single_record_without_incorrect(self):
        with pytest.raises(InsufficientCorpusError):
            make_triplets([Record("r", "c")], np.random.default_rng(0), False)

    def test_reroll_exhaustion_on_duplicates(self):
        records = [Record("r", "same") for _ in range(5)]
        with pytest.raises(InsufficientCorpusError):
            make_triplets(records, np.random.default_rng(0), False)

    def test_contrastive_flag_rejects_gaps(self):
        records = [Record("r1", "c1", "i1"), Record("r2", "c2")]
        with pytest.raises(SchemaError):
            make_triplets(records, np.random.default_rng(0), True)

    def test_negative_never_equals_correct_or_reference(self):
        rng = np.random.default_rng(7)
        records = [Record(f"ref {i % 7}", f"cand {i % 11}") for i in range(200)]
        out = make_triplets(records, rng, False)
        for rec in out:
            assert rec.incorrect != rec.correct
            assert rec.incorrect != rec.reference


class TestCapAndShuffle:
    def test_cap_at_least_n_is_permutation(self):
        records = [Record(f"r{i}", f"c{i}") for i in range(10)]
        out = cap_and_shuffle(records, 50, np.random.default_rng(0))
        assert sorted(r.reference for r in out) == sorted(r.reference for r in records)

    def test_cap_one_uniform(self):
        records = [Record(f"r{i}", f"c{i}") for i in range(4)]
        rng = np.random.default_rng(42)
        counts = {f"r{i}": 0 for i in range(4)}
        trials = 10_000
        for _ in range(trials):
            (chosen,) = cap_and_shuffle(records, 1, rng)
            counts[chosen.reference] += 1
        expected = trials / 4
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 16.27  # 99.9th percentile, 3 degrees of freedom
        for c in counts.values():
            assert abs(c - expected) / expected <= 0.05

    def test_empty(self):
        assert cap_and_shuffle([], 0, np.random.default_rng(0)) == []


class TestRegistry:
    def make_registry(self, tmp_path):
        write_jsonl(tmp_path / "a.jsonl", [{"reference": "r", "correct": "c", "incorrect": "i"}])
        write_jsonl(
            tmp_path / "b.jsonl",
            [
                {"reference": "r1", "correct": "c1", "human_score": 3.0},
                {"reference": "r2", "correct": "c2", "human_score": 5.0},
            ],
        )
        registry = tmp_path / "registry.json"
        registry.write_text(
            json.dumps(
                [
                    {"name": "alpha", "path": "a.jsonl", "has_contrastive": True},
                    {"name": "beta", "path": "b.jsonl", "rating_scale": [1, 5], "sample_cap": 2},
                ]
            ),
            encoding="utf-8",
        )
        return str(registry)

    def test_load_registry(self, tmp_path):
        manifests = load_registry(self.make_registry(tmp_path))
        assert [m.name for m in manifests] == ["alpha", "beta"]
        assert manifests[1].rating_scale == (1.0, 5.0)
        assert manifests[0].has_contrastive

    def test_duplicate_names_rejected(self, tmp_path):
        registry = tmp_path / "registry.json"
        registry.write_text(
            json.dumps([{"name": "x", "path": "a"}, {"name": "x", "path": "b"}]),
            encoding="utf-8",
        )
        with pytest.raises(SchemaError, match="duplicate"):
            load_registry(str(registry))

    @pytest.mark.parametrize("key, value, message", [
        ("sample_cap", True, "sample_cap must be an integer >= 1, got True"),
        ("sample_cap", "2", "sample_cap must be an integer >= 1, got '2'"),
        ("has_contrastive", "no", "has_contrastive must be true or false, got 'no'"),
        ("has_contrastive", 1, "has_contrastive must be true or false, got 1"),
    ])
    def test_flags_and_counts_are_not_coerced(self, tmp_path, key, value, message):
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps([{"name": "x", "path": "a.jsonl", key: value}]), encoding="utf-8")
        with pytest.raises(SchemaError) as caught:
            load_registry(str(registry))
        assert str(caught.value) == f"{registry}: manifest 'x' {message}"

    def test_load_dataset_completes_triplets(self, tmp_path):
        manifests = load_registry(self.make_registry(tmp_path))
        beta = manifests[1]
        records = load_dataset(beta, np.random.default_rng(0))
        assert all(r.incorrect is not None for r in records)

    def test_load_dataset_rating_scale_violation(self, tmp_path):
        write_jsonl(tmp_path / "c.jsonl", [{"reference": "r", "correct": "c", "human_score": 9}])
        manifest = DatasetManifest(
            name="c", path=str(tmp_path / "c.jsonl"), rating_scale=(1.0, 5.0)
        )
        with pytest.raises(SchemaError, match="outside scale"):
            load_dataset(manifest, np.random.default_rng(0))

    def test_load_dataset_eval_mode_keeps_gaps(self, tmp_path):
        manifests = load_registry(self.make_registry(tmp_path))
        records = load_dataset(manifests[1], np.random.default_rng(0), complete_triplets=False)
        assert all(r.incorrect is None for r in records)


class TestTokenizeRecords:
    def test_encodes_all_sides(self):
        records = [Record("a b", "b c", "c d", id="1")]
        vocab = build_word_vocabulary(["a b c d"])
        ds = tokenize_records("t", records, vocab, 8)
        assert len(ds.items) == 1
        ref, cor, inc = ds.items[0]
        assert vocab.decode(ref) == "a b"
        assert vocab.decode(cor) == "b c"
        assert vocab.decode(inc) == "c d"

    def test_requires_complete_triplets(self):
        vocab = build_word_vocabulary(["a"])
        with pytest.raises(SchemaError):
            tokenize_records("t", [Record("a", "a")], vocab, 8)
