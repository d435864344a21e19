import csv
import dataclasses
import gc
import json
import os
import stat
import sys
import weakref

import numpy as np
import pytest

import matcha.cli
import matcha.evaluation
import matcha.training
from matcha import __version__
from matcha.checkpoint import load_checkpoint, save_checkpoint
from matcha.cli import RunConfig, main, run
from matcha.errors import ConfigError
from matcha.model import init_params
from matcha.synthetic import make_synthetic_corpus
from matcha.tokenizer import WordVocabulary, build_word_vocabulary
from conftest import OUTSIDE_INPUTS, maps_the_file, write_outside_input
from oracles import score_pairwise


def write_corpus(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(
                json.dumps(
                    {
                        "reference": rec.reference,
                        "correct": rec.correct,
                        "incorrect": rec.incorrect,
                        "dataset": rec.dataset,
                        "human_score": rec.human_score,
                        "id": rec.id,
                    }
                )
                + "\n"
            )
    return str(path)


@pytest.fixture()
def word_vocab_file(tmp_path):
    records = make_synthetic_corpus(24, seed=5)
    vocab = build_word_vocabulary(
        [t for r in records for t in (r.reference, r.correct, r.incorrect)]
    )
    path = str(tmp_path / "words.vocab.json")
    vocab.save(path)
    return path, vocab, records


@pytest.fixture()
def tiny_ckpt(tmp_path, word_vocab_file):
    path, vocab, _ = word_vocab_file
    params = init_params(vocab.vocab_size, 8, 2, max_len=16, seed=0)
    ckpt = str(tmp_path / "tiny.ckpt")
    save_checkpoint(params, ckpt)
    return ckpt


class TestTokenizeCommand:
    def test_bpe_files(self, bpe_files, capsys):
        code = main(
            ["tokenize", "--vocab", bpe_files.vocab_path, "--merges", bpe_files.merges_path, "the cat"]
        )
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert all(tok.isdigit() for tok in out.split())

    def test_word_vocab(self, word_vocab_file, capsys):
        path, vocab, _ = word_vocab_file
        code = main(["tokenize", "--vocab", path, "the door is open"])
        assert code == 0
        ids = [int(t) for t in capsys.readouterr().out.split()]
        assert vocab.decode(ids) == "the door is open"

    def test_missing_vocab(self, capsys):
        code = main(["tokenize", "hello"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_lone_surrogate_is_one_error_line(self, bpe_files, capsys):
        # Python hands a command-line byte that is not UTF-8 to `main` as a lone surrogate.
        argv = ["tokenize", "--vocab", bpe_files.vocab_path, "--merges", bpe_files.merges_path,
                b"a\xffb".decode("utf-8", "surrogateescape")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: character 1 of the text is a lone surrogate '\\udcff', which UTF-8 cannot encode\n"


class TestScoreCommand:
    def test_identical_pair_prints_one(self, word_vocab_file, tiny_ckpt, capsys):
        path, _, _ = word_vocab_file
        code = main(
            [
                "score", "--ckpt", tiny_ckpt, "--vocab", path,
                "--ref", "the door is open", "--cand", "the door is open",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "1.0"

    def test_missing_ckpt_is_config_error(self, word_vocab_file, capsys):
        path, _, _ = word_vocab_file
        code = main(["score", "--vocab", path, "--ref", "a", "--cand", "b"])
        assert code == 2
        assert "config error: the following arguments are required: --ckpt" in capsys.readouterr().err


class TestTrainCommand:
    def test_end_to_end(self, tmp_path, capsys):
        records = make_synthetic_corpus(48, seed=5)
        corpus = write_corpus(tmp_path / "corpus.jsonl", records)
        out = str(tmp_path / "model.ckpt")
        code = main(
            [
                "train", "--data", corpus, "--out", out,
                "--epochs", "2", "--batch-size", "8", "--grad-accum", "1",
                "--dim", "16", "--n-ctx", "2", "--seed", "7",
            ]
        )
        assert code == 0
        report_lines = open(out + ".train.jsonl", encoding="utf-8").read().splitlines()
        header = json.loads(report_lines[0])
        assert header["seed"] == 7
        assert header["version"] == __version__
        assert "config_hash" in header
        epochs = [json.loads(line) for line in report_lines[1:]]
        assert [row["epoch"] for row in epochs] == [0, 1]
        assert all(set(row) == {"epoch", "mean_loss", "lr", "batches"} for row in epochs)
        # the word vocabulary was persisted next to the checkpoint
        assert json.load(open(out + ".vocab.json"))["kind"] == "word"

    def test_config_file_with_flag_override(self, tmp_path):
        records = make_synthetic_corpus(16, seed=5)
        corpus = write_corpus(tmp_path / "corpus.jsonl", records)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"epochs": 3, "batch_size": 8, "seed": 9, "dim": 12}))
        out = str(tmp_path / "model.ckpt")
        code = main(
            ["train", "--config", str(config), "--data", corpus, "--out", out, "--epochs", "1",
             "--grad-accum", "1", "--n-ctx", "2"]
        )
        assert code == 0
        lines = open(out + ".train.jsonl", encoding="utf-8").read().splitlines()
        assert json.loads(lines[0])["seed"] == 9  # from file
        assert len(lines) == 1 + 1  # provenance + one epoch (flag beat file)

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("key, flag, value", [("dim", "--dim", 8), ("n_ctx", "--n-ctx", 2),
                                                  ("max_len", "--max-len", 16)])
    def test_init_ckpt_rejects_model_shape(self, tmp_path, capsys, word_vocab_file, tiny_ckpt,
                                           source, key, flag, value):
        # The checkpoint's own D, N_c and max_len would win, so setting any of them is an error.
        path, _, records = word_vocab_file
        corpus = write_corpus(tmp_path / "corpus.jsonl", records)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        out = tmp_path / "again.ckpt"
        given = [flag, str(value)] if source == "flag" else ["--config", str(config)]
        assert main(["train", "--data", corpus, "--init-ckpt", tiny_ckpt, "--vocab", path, "--epochs", "1",
                     "--batch-size", "8", "--out", str(out), *given]) == 2
        err = capsys.readouterr().err
        assert err == ("config error: --init-ckpt takes dim, n_ctx and max_len from the checkpoint; "
                       f"cannot set {key}\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags, expected", [([], 4), (["--max-len", "6"], 6)])
    def test_config_file_max_len_reaches_checkpoint(self, tmp_path, flags, expected):
        corpus = write_corpus(tmp_path / "corpus.jsonl", make_synthetic_corpus(16, seed=5))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_len": 4, "dim": 8, "n_ctx": 2, "epochs": 1, "batch_size": 8}))
        out = str(tmp_path / "model.ckpt")
        code = main(["train", "--config", str(config), "--data", corpus, "--out", out, *flags])
        assert code == 0
        assert load_checkpoint(out).hyper.max_len == expected

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"learning_rate": 1}))
        code = main(["train", "--config", str(config), "--data", "x", "--out", "y"])
        assert code == 2
        assert "unknown keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "values",
        [{"epochs": "5"}, {"batch_size": True}, {"lr": False}, {"epochs": 5.0},
         {"train_embeddings": 1}, {"curriculum_order": "A,B"}, {"dim": "12"}],
    )
    def test_mistyped_config_value(self, tmp_path, capsys, values):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        code = main(["train", "--config", str(config), "--data", "x", "--out", "y"])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert str(config) in err and repr(next(iter(values))) in err


class TestWrittenFiles:
    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_modes_follow_the_umask(self, tmp_path, umask):
        # Each file gets the mode `open` would give it: 0o666 less the umask.
        records = make_synthetic_corpus(24, seed=5)
        corpus = write_corpus(tmp_path / "corpus.jsonl", records)
        ckpt, vocab = str(tmp_path / "m.ckpt"), str(tmp_path / "m.ckpt.vocab.json")
        previous = os.umask(umask)
        try:
            assert main(["train", "--data", corpus, "--out", ckpt, "--epochs", "1", "--batch-size", "8",
                         "--dim", "8", "--n-ctx", "2"]) == 0
            assert main(["evaluate", "--data", corpus, "--ckpt", ckpt, "--vocab", vocab,
                         "--out", str(tmp_path / "r.json"), "--csv", str(tmp_path / "c.csv")]) == 0
            assert main(["attribute", "--ckpt", ckpt, "--vocab", vocab, "--ref", records[0].reference,
                         "--cand", records[0].correct, "--out", str(tmp_path / "a.json")]) == 0
        finally:
            os.umask(previous)
        written = ["a.json", "c.csv", "m.ckpt", "m.ckpt.train.jsonl", "m.ckpt.vocab.json", "r.json"]
        modes = {name: oct(stat.S_IMODE(os.stat(tmp_path / name).st_mode)) for name in written}
        assert modes == {name: oct(0o666 & ~umask) for name in written}
        # No temporary file is left beside them.
        assert sorted(os.listdir(tmp_path)) == sorted(written + ["corpus.jsonl"])

    def test_lone_surrogate_in_the_corpus_writes_nothing(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        good = json.dumps({"reference": "the door", "correct": "the gate", "incorrect": "a cat"})
        corpus.write_text(good + "\n" + good.replace("gate", "\\ud800 gate") + "\n", encoding="utf-8")
        out = str(tmp_path / "m.ckpt")
        assert main(["train", "--data", str(corpus), "--out", out, "--epochs", "1", "--batch-size", "2",
                     "--dim", "4", "--n-ctx", "2", "--max-len", "8"]) == 1
        assert capsys.readouterr().err == f"error: {corpus}: line 2: 'correct' holds a lone surrogate at character 4\n"
        assert os.listdir(tmp_path) == ["c.jsonl"]

    def test_rejected_train_keeps_the_vocabulary(self, tmp_path, capsys, tiny_ckpt):
        # A run that fails after the corpus is read leaves the checkpoint and vocabulary of the last good run.
        out = str(tmp_path / "m.ckpt")
        first = write_corpus(tmp_path / "first.jsonl", make_synthetic_corpus(24, seed=5))
        assert main(["train", "--data", first, "--out", out, "--epochs", "1", "--batch-size", "8",
                     "--dim", "8", "--n-ctx", "2"]) == 0
        before = {name: open(name, "rb").read() for name in (out, out + ".vocab.json")}
        other = write_corpus(tmp_path / "other.jsonl", make_synthetic_corpus(6, seed=1))
        capsys.readouterr()
        assert main(["train", "--data", other, "--init-ckpt", tiny_ckpt, "--out", out, "--epochs", "1"]) == 2
        assert capsys.readouterr().err.startswith("config error: checkpoint vocab_size ")
        assert {name: open(name, "rb").read() for name in before} == before

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="before 3.11 the caller's stack holds the call's arguments until it returns")
    def test_init_ckpt_table_is_freed_after_the_first_step(self, tmp_path, word_vocab_file, tiny_ckpt, monkeypatch):
        path, _, records = word_vocab_file
        corpus = write_corpus(tmp_path / "corpus.jsonl", records)
        loaded, alive = [], []

        def load(ckpt):
            params = load_checkpoint(ckpt)
            assert maps_the_file(params.embedding)
            loaded.append(weakref.ref(params.embedding))
            return params

        def step(*args):
            result = adam_step(*args)
            gc.collect()
            alive.append(loaded[0]() is not None)
            return result

        adam_step = matcha.training.adam_step
        monkeypatch.setattr(matcha.cli, "load_checkpoint", load)
        monkeypatch.setattr(matcha.training, "adam_step", step)
        assert main(["train", "--data", corpus, "--init-ckpt", tiny_ckpt, "--vocab", path, "--epochs", "1",
                     "--batch-size", "8", "--grad-accum", "1", "--out", str(tmp_path / "t.ckpt")]) == 0
        assert len(alive) == 3 and not any(alive)


class TestEvaluateCommand:
    def test_six_row_fixture_matches_oracle(self, tmp_path):
        records = make_synthetic_corpus(3, seed=1)
        corpus = write_corpus(tmp_path / "eval.jsonl", records)
        scores = tmp_path / "scores.jsonl"
        rows = []
        toy = {"line1": (0.9, 0.1), "line2": (0.8, 0.2), "line3": (0.7, 0.3)}
        for rid, (c, i) in toy.items():
            rows.append({"id": rid, "metric": "toy", "score": c, "dataset": "eval"})
            rows.append({"id": rid, "metric": "toy", "score": i, "dataset": "eval", "label": "incorrect"})
        scores.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
        out = str(tmp_path / "report.json")
        csv_out = str(tmp_path / "curves.csv")
        code = main(
            ["evaluate", "--data", corpus, "--scores", str(scores),
             "--metrics", "toy=unit", "--out", out, "--csv", csv_out]
        )
        assert code == 0
        report = json.load(open(out))
        stats = report["separation"]["eval"]["toy"]
        assert stats["pairs"] == 3
        assert stats["mean_correct"] == pytest.approx(80.0)
        assert stats["mean_incorrect"] == pytest.approx(20.0)
        assert stats["n_delta"] == pytest.approx(60.0)
        assert stats["macro_f1"] == pytest.approx(100.0)
        assert stats["wasserstein"] == pytest.approx(60.0)
        curve = dict(tuple(pair) for pair in stats["threshold_curve"])
        assert curve[0.0] == 100.0
        assert curve[0.5] == pytest.approx(100 * 2 / 3)  # gaps 0.8, 0.6, 0.4
        assert curve[0.9] == 0.0
        assert report["provenance"]["version"] == __version__
        header = open(csv_out).readline().strip()
        assert header == "dataset,metric,threshold,percentage"
        # Plain names need no quotes, so the file has the bytes of the rows joined by hand.
        expected = ["dataset,metric,threshold,percentage"] + [
            f"{ds},{metric},{threshold},{pct}" for ds, per_metric in report["separation"].items()
            for metric, rep in per_metric.items() for threshold, pct in rep["threshold_curve"]]
        assert open(csv_out, "rb").read() == ("\n".join(expected) + "\n").encode()

    def test_csv_quotes_names_with_commas_quotes_and_newlines(self, tmp_path):
        # Written unquoted, the metric 'bleu,4 "x"' would give the row t,bleu,4 "x",0.0,100.0: five fields.
        corpus = write_corpus(tmp_path / "eval.jsonl", make_synthetic_corpus(3, seed=1))
        scores = tmp_path / "scores.jsonl"
        names = [("eval", 'bleu,4 "x"'), ('news, "daily"\nmail', "toy")]
        rows = [{"id": rid, "metric": metric, "score": score, "dataset": dataset, "label": label}
                for dataset, metric in names for rid in ("line1", "line2")
                for label, score in (("correct", 0.9), ("incorrect", 0.2))]
        scores.write_text("\n".join(map(json.dumps, rows)), encoding="utf-8")
        csv_out = tmp_path / "curves.csv"
        assert main(["evaluate", "--data", corpus, "--scores", str(scores), "--metrics", 'bleu,4 "x"=unit',
                     "--metrics", "toy=unit", "--out", str(tmp_path / "r.json"), "--csv", str(csv_out)]) == 0
        with open(csv_out, newline="", encoding="utf-8") as fh:
            header, *lines = csv.reader(fh)
        assert header == ["dataset", "metric", "threshold", "percentage"]
        assert {len(line) for line in lines} == {4}
        assert {tuple(line[:2]) for line in lines} == set(names)
        assert all(float(line[3]) in (0.0, 100.0) for line in lines)

    def test_one_rated_row_reports_a_null_ccc(self, tmp_path):
        # CCC needs two rated rows; Rank@1 and DCG do not, and the report is still written.
        records = make_synthetic_corpus(3, seed=1)
        records[0] = dataclasses.replace(records[0], human_score=0.5)
        corpus = write_corpus(tmp_path / "eval.jsonl", records)
        out = tmp_path / "report.json"
        assert main(["evaluate", "--data", corpus, "--rouge", "--out", str(out)]) == 0
        agreement = json.load(open(out))["agreement"]
        assert agreement["ccc"] == {"rouge1": None, "rouge2": None, "rougeL": None}
        assert set(agreement["rank_at_1"]) == set(agreement["dcg"]) == {"rouge1", "rouge2", "rougeL"}

    def test_model_scoring_with_rouge(self, tmp_path, word_vocab_file, tiny_ckpt):
        vocab_path, _, records = word_vocab_file
        corpus = write_corpus(tmp_path / "eval.jsonl", records[:6])
        out = str(tmp_path / "report.json")
        code = main(
            ["evaluate", "--data", corpus, "--ckpt", tiny_ckpt, "--vocab", vocab_path,
             "--rouge", "--out", out]
        )
        assert code == 0
        report = json.load(open(out))
        per_metric = report["separation"]["eval"]
        assert {"matcha", "rouge1", "rouge2", "rougeL"} <= set(per_metric)

    def test_one_batched_score_per_dataset_matches_pairwise_oracle(self, tmp_path, word_vocab_file, tiny_ckpt,
                                                                   monkeypatch):
        vocab_path, _, records = word_vocab_file
        parts = {"a": records[:10], "b": records[10:]}
        for name, part in parts.items():
            write_corpus(tmp_path / f"{name}.jsonl", part)
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps([{"name": name, "path": f"{name}.jsonl"} for name in parts]))
        out = str(tmp_path / "report.json")
        argv = ["evaluate", "--data", str(registry), "--ckpt", tiny_ckpt, "--vocab", vocab_path, "--rouge",
                "--out", out]
        calls, encoded, tokenized = [], [], []
        batched = matcha.cli.score
        monkeypatch.setattr(matcha.cli, "score",
                            lambda params, refs, cands, vocab: calls.append(len(refs)) or batched(params, refs, cands, vocab))
        encode = WordVocabulary.encode
        monkeypatch.setattr(WordVocabulary, "encode",
                            lambda self, text, max_len: encoded.append(text) or encode(self, text, max_len))
        lex_tokens = matcha.evaluation._lex_tokens
        monkeypatch.setattr(matcha.evaluation, "_lex_tokens", lambda text: tokenized.append(text) or lex_tokens(text))
        assert main(argv) == 0
        report = json.load(open(out))
        assert calls == [2 * len(part) for part in parts.values()]
        distinct = [{t for r in part for t in (r.reference, r.correct, r.incorrect)} for part in parts.values()]
        assert sorted(encoded) == sorted(t for texts in distinct for t in texts)
        assert sorted(tokenized) == sorted(t for texts in distinct for t in texts)

        # The oracle sums embedding rows in the table's own dtype: give it float64 copies of the loaded params.
        monkeypatch.setattr(matcha.cli, "score", lambda params, refs, cands, vocab: np.array(
            [score_pairwise(p, r, c, vocab) for p in [params.copy()] for r, c in zip(refs, cands)]))
        assert main(argv) == 0
        oracle = json.load(open(out))
        assert set(report["separation"]) == set(parts)

        def assert_close(got, want, where=""):
            if isinstance(want, dict):
                assert got.keys() == want.keys(), where
                for key in want:
                    assert_close(got[key], want[key], f"{where}/{key}")
            elif isinstance(want, list):
                assert len(got) == len(want), where
                for k, (g, w) in enumerate(zip(got, want)):
                    assert_close(g, w, f"{where}/{k}")
            elif isinstance(want, float):
                assert abs(got - want) <= 1e-12, (where, got, want)
            else:
                assert got == want, where

        assert_close(report, oracle)

    def test_agreement_section(self, tmp_path):
        corpus = tmp_path / "sts.jsonl"
        lines = [
            {"reference": "a b", "correct": "a b", "human_score": 5.0, "id": "s1"},
            {"reference": "a b", "correct": "c d", "human_score": 1.0, "id": "s2"},
        ]
        corpus.write_text("\n".join(json.dumps(l) for l in lines), encoding="utf-8")
        registry = tmp_path / "registry.json"
        registry.write_text(
            json.dumps([{"name": "sts", "path": "sts.jsonl", "rating_scale": [1, 5]}])
        )
        out = str(tmp_path / "report.json")
        code = main(["evaluate", "--data", str(registry), "--rouge", "--out", out])
        assert code == 0
        agreement = json.load(open(out))["agreement"]
        # Every ROUGE score (1.0, then 0.0) matches the rescaled humans (1.0, 0.0)
        # exactly, so all three tie on every row and DCG ranks them by name.
        covered = ["rouge1", "rouge2", "rougeL"]
        assert agreement["rank_at_1"] == {m: 100.0 for m in covered}
        assert agreement["dcg"].keys() == agreement["ccc"].keys() == set(covered)
        for rank, metric in enumerate(covered, start=1):
            assert agreement["dcg"][metric] == pytest.approx(100.0 * (4 - rank) / (3 * np.log2(rank + 1)))
            assert agreement["ccc"][metric] == pytest.approx(100.0)

    @pytest.mark.parametrize("row", [
        {"id": "line1", "metric": "toy", "score": [1]},
        {"id": "line1", "metric": "toy", "score": "x"},
        {"id": "line1", "metric": "toy", "score": True},
        {"id": "line1", "metric": "toy", "score": float("nan")},
        {"id": "line1", "metric": "toy", "score": 0.5, "label": "maybe"},
    ])
    def test_bad_scores_row_exits_1_naming_line(self, tmp_path, capsys, row):
        corpus = write_corpus(tmp_path / "eval.jsonl", make_synthetic_corpus(2, seed=1))
        scores = tmp_path / "scores.jsonl"
        good = {"id": "line1", "metric": "toy", "score": 0.9, "dataset": "eval"}
        scores.write_text(json.dumps(good) + "\n" + json.dumps(row) + "\n", encoding="utf-8")
        code = main(["evaluate", "--data", corpus, "--scores", str(scores), "--out", str(tmp_path / "r.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"{scores}: line 2:" in err

    @pytest.mark.parametrize("key", ["metric", "dataset", "id"])
    def test_lone_surrogate_in_scores_writes_nothing(self, tmp_path, capsys, key):
        # UTF-8 cannot encode it, so the report or the CSV would fail half written.
        corpus = write_corpus(tmp_path / "eval.jsonl", make_synthetic_corpus(2, seed=1))
        scores = tmp_path / "scores.jsonl"
        good = {"id": "line1", "metric": "x", "score": 0.5, "dataset": "eval"}
        scores.write_text(json.dumps(good) + "\n" + json.dumps({**good, key: good[key] + "\ud800"}) + "\n",
                          encoding="utf-8")
        code = main(["evaluate", "--data", corpus, "--scores", str(scores), "--out", str(tmp_path / "r.json"),
                     "--csv", str(tmp_path / "c.csv")])
        assert code == 1
        where = f"{scores}: line 2: {key!r}"
        assert capsys.readouterr().err == f"error: {where} holds a lone surrogate at character {len(good[key])}\n"
        assert sorted(os.listdir(tmp_path)) == ["eval.jsonl", "scores.jsonl"]


class TestMalformedInputFiles:
    """Undecodable or mistyped input files fail through main with the file and place named."""

    def run_main(self, capsys, argv):
        code = main(argv)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return code, err

    def test_non_utf8_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "bad.jsonl"
        good = json.dumps({"reference": "a", "correct": "b"}).encode() + b"\n"
        corpus.write_bytes(good + b'{"reference": "\xff", "correct": "b"}\n')
        code, err = self.run_main(capsys, ["evaluate", "--data", str(corpus), "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert f"{corpus}: line 2: not UTF-8 at byte 50" in err

    def test_non_utf8_registry(self, tmp_path, capsys):
        registry = tmp_path / "registry.json"
        registry.write_bytes(b'[\n{"name": "caf\xe9", "path": "a.jsonl"}]')
        code, err = self.run_main(capsys, ["evaluate", "--data", str(registry), "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert f"{registry}: line 2: not UTF-8 at byte 15" in err

    def test_non_utf8_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"epochs": 1,\n "schedule_strategy": "\x80"}')
        code, err = self.run_main(capsys, ["train", "--config", str(config), "--data", "x", "--out", "y"])
        assert code == 2
        assert f"config error: {config}: line 2: not UTF-8 at byte 37" in err

    @pytest.mark.parametrize("scale", [["low", "high"], [1, "5"], [1, True], [1, float("nan")], [5, 1]])
    def test_bad_rating_scale(self, tmp_path, capsys, scale):
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps([{"name": "sts", "path": "sts.jsonl", "rating_scale": scale}]))
        code, err = self.run_main(capsys, ["evaluate", "--data", str(registry), "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert f"{registry}: manifest 'sts' rating_scale must be [min, max]" in err


    @pytest.mark.parametrize("entry", [{"name": "sts", "path": 3}, {"name": ["sts"], "path": "sts.jsonl"}])
    def test_registry_name_and_path_must_be_strings(self, tmp_path, capsys, entry):
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps([entry]))
        code, err = self.run_main(capsys, ["evaluate", "--data", str(registry), "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert f"{registry}: manifest 0 must carry string 'name' and 'path'" in err

    @pytest.mark.parametrize("argv", [
        ["score", "--ckpt", "{dir}", "--vocab", "{vocab}", "--ref", "a", "--cand", "b"],
        ["score", "--ckpt", "{ckpt}", "--vocab", "{dir}", "--ref", "a", "--cand", "b"],
        ["train", "--data", "{corpus}", "--out", "{dir}", "--epochs", "1", "--batch-size", "8", "--dim", "8",
         "--n-ctx", "2"],
        ["evaluate", "--data", "{corpus}", "--ckpt", "{ckpt}", "--vocab", "{vocab}", "--out", "{dir}"],
        ["evaluate", "--data", "{corpus}", "--ckpt", "{ckpt}", "--vocab", "{vocab}", "--out", "{out}",
         "--scores", "{dir}"],
    ], ids=["score-ckpt", "score-vocab", "train-out", "evaluate-out", "evaluate-scores"])
    def test_directory_where_a_file_belongs(self, tmp_path, capsys, word_vocab_file, tiny_ckpt, argv):
        vocab, _, records = word_vocab_file
        directory = tmp_path / "d"
        directory.mkdir()
        paths = {"dir": str(directory), "vocab": vocab, "ckpt": tiny_ckpt, "out": str(tmp_path / "r.json"),
                 "corpus": write_corpus(tmp_path / "corpus.jsonl", records)}
        code, err = self.run_main(capsys, [arg.format(**paths) for arg in argv])
        assert code == 3 and err.count("\n") == 1 and err.startswith("file error: "), err
        assert repr(str(directory)) in err
        assert not [name for name in os.listdir(tmp_path) if name.startswith(".matcha-")]
        assert os.listdir(directory) == []

    @pytest.mark.parametrize("argv, directory", [
        (["train", "--data", "{missing}", "--out", "{dir}"], "d"),
        (["train", "--data", "{missing}", "--out", "{out}", "--report", "{dir}"], "d"),
        (["train", "--data", "{missing}", "--out", "{out}"], "m.ckpt.train.jsonl"),
        (["train", "--data", "{missing}", "--out", "{out}"], "m.ckpt.vocab.json"),
        (["evaluate", "--data", "{missing}", "--out", "{dir}"], "d"),
        (["evaluate", "--data", "{missing}", "--out", "{out}", "--csv", "{dir}"], "d"),
        (["attribute", "--ckpt", "{missing}", "--vocab", "{missing}", "--ref", "a", "--cand", "b", "--out", "{dir}"],
         "d"),
    ], ids=["train-out", "train-report", "train-default-report", "train-vocab", "evaluate-out", "evaluate-csv",
            "attribute-out"])
    def test_output_directory_fails_before_any_input_is_read(self, tmp_path, capsys, argv, directory):
        # Every input path is missing, so reading one first would name it instead.
        directory = tmp_path / directory
        directory.mkdir()
        paths = {"dir": str(directory), "out": str(tmp_path / "m.ckpt"), "missing": str(tmp_path / "missing")}
        code, err = self.run_main(capsys, [arg.format(**paths) for arg in argv])
        assert code == 3 and err == f"file error: [Errno 21] Is a directory: {str(directory)!r}\n", err
        assert sorted(os.listdir(tmp_path)) == [directory.name] and os.listdir(directory) == []


HUGE = "1" + "0" * 400  # 10**400, beyond the float range
OUTSIDE_PROBES = (
    [pytest.param(kind, "9" * 5000, id=f"{kind}-5000-digits") for kind in OUTSIDE_INPUTS]
    + [pytest.param(kind, "[" * 100_000, id=f"{kind}-nested") for kind in ("corpus", "registry", "scores", "vocab",
                                                                            "manifest")]
    + [pytest.param(kind, literal, id=f"{kind}-1e400")
       for kind, literal in (("corpus", HUGE), ("registry", f"[1, {HUGE}]"), ("config", HUGE), ("manifest", HUGE))]
)


@pytest.mark.parametrize("kind, literal", OUTSIDE_PROBES)
def test_outside_json_fails_with_one_line_naming_the_file(tmp_path, capsys, kind, literal):
    """A 5,000-digit integer, 100,000 nested lists or 10**400 where a float goes: one error line, no traceback."""
    path, argv = write_outside_input(tmp_path, kind, OUTSIDE_INPUTS[kind][1].replace("@", literal).encode())
    code = main(argv)
    err = capsys.readouterr().err
    assert (code, err.count("\n")) in ((1, 1), (2, 1)), err
    assert err.startswith("error: " if code == 1 else "config error: ") and path in err and "Traceback" not in err


class TestAttributeCommand:
    def test_both_directions_json(self, tmp_path, word_vocab_file, capsys):
        vocab_path, vocab, _ = word_vocab_file
        # random bias so the zero baseline is non-degenerate
        params = init_params(vocab.vocab_size, 8, 2, max_len=16, seed=0)
        params.proj_bias = np.random.default_rng(1).normal(0, 0.2, params.proj_bias.shape)
        ckpt = str(tmp_path / "biased.ckpt")
        save_checkpoint(params, ckpt)
        code = main(
            ["attribute", "--ckpt", ckpt, "--vocab", vocab_path,
             "--ref", "the door is open", "--cand", "the door is closed",
             "--steps", "16"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert [r["direction"] for r in doc["results"]] == ["toward_candidate", "toward_reference"]
        assert len(doc["results"][0]["per_token"]) == 4

    def test_steps_validation(self, word_vocab_file, capsys):
        vocab_path, _, _ = word_vocab_file
        code = main(
            ["attribute", "--ckpt", "x", "--vocab", vocab_path,
             "--ref", "a", "--cand", "b", "--steps", "2"]
        )
        assert code == 2
        assert "--steps" in capsys.readouterr().err

    def test_baseline_validated_before_any_file_is_opened(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.ckpt")
        code = main(
            ["attribute", "--ckpt", missing, "--vocab", str(tmp_path / "missing.vocab.json"),
             "--ref", "a", "--cand", "b", "--baseline", "bogus"]
        )
        assert code == 2
        assert "config error: argument --baseline: invalid choice: 'bogus'" in capsys.readouterr().err


class TestBadCommandLine:
    """Every malformed command line exits 2 with one `config error:` line and no usage text."""

    PAIR = ["--ckpt", "m.ckpt", "--vocab", "v.json", "--ref", "a", "--cand", "b"]
    TRAIN = ["train", "--data", "c.jsonl", "--out", "m.ckpt"]

    @pytest.mark.parametrize("argv, message", [
        (["train", "--data", "c.jsonl", "--out", "m.ckpt", "--epochs", "x"],
         "argument --epochs: invalid int value: 'x'"),
        (["attribute", *PAIR, "--direction", "sideways"], "argument --direction: invalid choice: 'sideways'"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        (["train", "--data", "c.jsonl"], "the following arguments are required: --out"),
        (["score", "--ckpt", "m.ckpt", "--vocab", "v.json", "--ref", "", "--cand", "b"],
         "argument --ref: must not be empty"),
        ([*TRAIN, "--epochs", "-1"], "epochs must be >= 0"),
        ([*TRAIN, "--batch-size", "0"], "batch_size must be >= 1"),
        ([*TRAIN, "--gamma", "2"], "lr_decay must be in (0, 1]"),
        ([*TRAIN, "--margin", "0"], "margin must be > 0"),
        ([*TRAIN, "--schedule", "curriculum"], "curriculum schedule requires curriculum_order"),
        ([*TRAIN, "--lr", "inf"], "lr must be finite"),
        ([*TRAIN, "--lr", "nan"], "lr must be finite"),
        ([*TRAIN, "--weight-decay", "inf"], "weight_decay must be finite"),
        (["evaluate", "--data", "c.jsonl", "--out", "r.json", "--metrics", "x=bogus"],
         "kind must be one of ('cosine_like', 'unit', 'percent'), got 'bogus'"),
    ], ids=["bad-int", "bad-choice", "unknown-command", "missing-flag", "empty-ref", "negative-epochs",
            "zero-batch", "gamma-above-1", "zero-margin", "curriculum-without-order", "lr-inf", "lr-nan",
            "weight-decay-inf", "bogus-metric-kind"])
    def test_one_config_error_line(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {message}") and captured.err.count("\n") == 1
        assert "usage:" not in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("text, message", [('{"lr": Infinity}', "lr must be finite"),
                                               ('{"lr": NaN}', "lr must be finite"),
                                               ('{"weight_decay": -Infinity}', "weight_decay must be finite")])
    def test_non_finite_rate_in_config_file(self, tmp_path, capsys, text, message):
        config = tmp_path / "config.json"
        config.write_text(text)
        assert main([*self.TRAIN, "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("argv", [["score", *PAIR], ["attribute", *PAIR],
                                      ["evaluate", "--data", "c", "--out", "r"]], ids=["score", "attribute", "evaluate"])
    def test_max_len_only_where_it_is_used(self, capsys, argv):
        assert main([*argv, "--max-len", "4"]) == 2
        assert capsys.readouterr().err == "config error: unrecognized arguments: --max-len 4\n"

    # Every path named is missing: checked after a file was opened, each would be a file error instead.
    @pytest.mark.parametrize("argv, message", [
        (["tokenize", "--vocab", "v.json", "--max-len", "0", "a b"], "max_len must be >= 1, got 0"),
        ([*TRAIN, "--dim", "0"], "dim must be >= 1, got 0"),
        ([*TRAIN, "--n-ctx", "0"], "n_ctx must be >= 1, got 0"),
        ([*TRAIN, "--max-len", "0"], "max_len must be >= 1, got 0"),
        ([*TRAIN, "--margin", "inf"], "margin must be finite"),
        ([*TRAIN, "--config", "settings.json"], "margin must be finite"),
        (["attribute", *PAIR, "--steps", "7"], "--steps must be >= 8"),
        ([*TRAIN, "--schedule", "curriculum", "--curriculum-order", "A,B,A"],
         "curriculum_order names a dataset more than once"),
        (["evaluate", "--data", "c.jsonl", "--out", "r.json", "--metrics", "x"], "--metrics entry 'x' must be name=kind"),
    ], ids=["tokenize-max-len-0", "dim-0", "n-ctx-0", "max-len-0", "margin-inf", "config-margin-infinity",
            "steps-7", "curriculum-names-a-dataset-twice", "metric-without-kind"])
    def test_settings_are_checked_before_any_file_is_opened(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "settings.json").write_text('{"margin": Infinity}')
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"config error: {message}\n"
        assert os.listdir(tmp_path) == ["settings.json"]

    @pytest.mark.parametrize("flags, message", [
        (["--schedule", "curriculum", "--curriculum-order", "nosuch"],
         "curriculum_order names unknown datasets: ['nosuch']"),
        (["--schedule", "contrastive_only"], "no non-empty dataset available for strategy 'contrastive_only'"),
    ], ids=["unknown-curriculum-dataset", "no-contrastive-dataset"])
    def test_schedule_the_corpus_cannot_fill(self, tmp_path, capsys, flags, message):
        # Only the corpus names its datasets, so these are found once it is read; still one config error line.
        corpus = write_corpus(tmp_path / "corpus.jsonl", make_synthetic_corpus(16, seed=5))
        out = tmp_path / "m.ckpt"
        assert main(["train", "--data", corpus, "--out", str(out), "--epochs", "1", "--batch-size", "8", *flags]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["train", "--out", "m.ckpt", "--report", "m.ckpt"], "--out and --report name the same file: m.ckpt"),
        (["train", "--out", "m.ckpt", "--report", "m.ckpt.vocab.json"],
         "--report and <out>.vocab.json name the same file: m.ckpt.vocab.json"),
        (["evaluate", "--out", "r.json", "--csv", "./r.json"], "--out and --csv name the same file: ./r.json"),
        (["evaluate", "--out", "r.json", "--csv", "link.json"], "--out and --csv name the same file: link.json"),
    ], ids=["train-report-is-out", "train-report-is-vocab", "evaluate-csv-is-out", "evaluate-csv-links-to-out"])
    def test_two_outputs_naming_one_file(self, tmp_path, monkeypatch, capsys, argv, message):
        # Each run would succeed with one output replacing the other; it fails before any file is read or written.
        monkeypatch.chdir(tmp_path)
        write_corpus(tmp_path / "c.jsonl", make_synthetic_corpus(16, seed=5))
        for name in ("m.ckpt", "m.ckpt.vocab.json", "r.json"):
            (tmp_path / name).write_bytes(b"old " + name.encode())
        os.symlink("r.json", tmp_path / "link.json")
        before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
        small = ["--epochs", "1", "--batch-size", "8", "--dim", "8", "--n-ctx", "2"] if argv[0] == "train" else []
        assert main([argv[0], "--data", "c.jsonl", *argv[1:], *small]) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")
        assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before

    @pytest.mark.parametrize("argv, message", [
        (["train", "--data", "c.jsonl", "--out", "m.ckpt", "--report", "c.jsonl"],
         "--report and --data name the same file: c.jsonl"),
        (["train", "--data", "c.jsonl", "--out", "c.jsonl"], "--out and --data name the same file: c.jsonl"),
        (["train", "--data", "reg.json", "--out", "m.ckpt", "--report", "./c.jsonl"],
         "--report and dataset 'c' of --data name the same file: ./c.jsonl"),
        (["train", "--data", "reg", "--out", "m.ckpt", "--report", "reg/registry.json"],
         "--report and --data name the same file: reg/registry.json"),
        (["train", "--data", "c.jsonl", "--vocab", "v.json", "--out", "m.ckpt", "--report", "v.json"],
         "--report and --vocab name the same file: v.json"),
        (["train", "--data", "c.jsonl", "--vocab", "v.json", "--merges", "merges.txt", "--out", "merges.txt"],
         "--out and --merges name the same file: merges.txt"),
        (["train", "--data", "c.jsonl", "--init-ckpt", "m.ckpt", "--out", "m.ckpt"],
         "--out and --init-ckpt name the same file: m.ckpt"),
        (["evaluate", "--data", "c.jsonl", "--ckpt", "m.ckpt", "--vocab", "v.json", "--out", "m.ckpt"],
         "--out and --ckpt name the same file: m.ckpt"),
        (["evaluate", "--data", "c.jsonl", "--scores", "s.jsonl", "--out", "r.json", "--csv", "link.jsonl"],
         "--csv and --scores name the same file: link.jsonl"),
        (["attribute", "--ckpt", "m.ckpt", "--vocab", "v.json", "--ref", "a", "--cand", "b", "--out", "v.json"],
         "--out and --vocab name the same file: v.json"),
    ], ids=["train-report-is-data", "train-out-is-data", "train-report-is-a-registry-dataset",
            "train-report-is-the-registry", "train-report-is-vocab", "train-out-is-merges", "train-out-is-init-ckpt",
            "evaluate-out-is-ckpt", "evaluate-csv-links-to-scores", "attribute-out-is-vocab"])
    def test_an_output_naming_an_input(self, tmp_path, monkeypatch, capsys, argv, message):
        # Each run would replace an input it reads; it fails before any file is written.
        monkeypatch.chdir(tmp_path)
        write_corpus(tmp_path / "c.jsonl", make_synthetic_corpus(16, seed=5))
        (tmp_path / "reg").mkdir()
        for registry in ("reg.json", "reg/registry.json"):
            (tmp_path / registry).write_text(json.dumps([{"name": "c", "path": os.path.abspath("c.jsonl")}]))
        for name in ("m.ckpt", "v.json", "merges.txt", "s.jsonl"):
            (tmp_path / name).write_bytes(b"old " + name.encode())
        os.symlink("s.jsonl", tmp_path / "link.jsonl")
        before = {name: (tmp_path / name).read_bytes() for name in ("c.jsonl", "reg.json", "reg/registry.json",
                                                                     "m.ckpt", "v.json", "merges.txt", "s.jsonl")}
        small = ["--epochs", "1", "--batch-size", "8"] if argv[0] == "train" else []
        assert main([*argv, *small]) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")
        assert {name: (tmp_path / name).read_bytes() for name in before} == before
        assert sorted(os.listdir(tmp_path)) == sorted(["c.jsonl", "reg", "reg.json", "m.ckpt", "v.json", "merges.txt",
                                                        "s.jsonl", "link.jsonl"])

    def test_report_may_name_the_vocabulary_path_when_none_is_written(self, tmp_path, monkeypatch, word_vocab_file):
        # With --vocab, train writes no <out>.vocab.json, so --report may take that name.
        vocab_path, _, records = word_vocab_file
        monkeypatch.chdir(tmp_path)
        write_corpus(tmp_path / "c.jsonl", records)
        assert main(["train", "--data", "c.jsonl", "--vocab", vocab_path, "--out", "m.ckpt",
                     "--report", "m.ckpt.vocab.json", "--epochs", "1", "--batch-size", "8", "--dim", "8",
                     "--n-ctx", "2"]) == 0
        assert load_checkpoint("m.ckpt").vocab_size == WordVocabulary.load(vocab_path).vocab_size
        assert json.loads(open("m.ckpt.vocab.json").readline())["seed"] == 42

    def test_run_checks_the_settings_of_a_library_caller(self, tmp_path):
        config = RunConfig(command="train", data=str(tmp_path / "c.jsonl"), out=str(tmp_path / "m.ckpt"), dim=0)
        with pytest.raises(ConfigError, match="^dim must be >= 1, got 0$"):
            run(config)
        assert list(tmp_path.iterdir()) == []


def run_config(monkeypatch, argv):
    """The RunConfig that `main(argv)` hands to `run`, without running the command."""
    captured = []
    monkeypatch.setattr(matcha.cli, "run", lambda config: captured.append(config) or 0)
    assert main(argv) == 0
    return captured[0]


class TestRunConfig:
    FILE = {"epochs": 2, "batch_size": 8, "grad_accum_steps": 1, "lr": 0.01, "weight_decay": 0, "margin": 2.0,
            "seed": 3, "schedule_strategy": "sequential", "lr_decay": 1.0, "train_embeddings": True,
            "curriculum_order": ["A"], "dim": 12, "n_ctx": 3, "max_len": 32}
    TRAIN = ["train", "--data", "c.jsonl", "--out", "m.ckpt"]
    PAIR = ["--ckpt", "m.ckpt", "--vocab", "v.json", "--ref", "a b", "--cand", "a c"]

    # config_hash of each argv, as the reports record it; CONFIG stands for a file holding FILE.
    @pytest.mark.parametrize("argv, config_hash", [
        (["tokenize", "--vocab", "v.json", "the door"], "76e6b4d4dce98504"),
        (["tokenize", "--vocab", "v.json", "--merges", "m.txt", "--max-len", "8", "x y"], "e848023c0a8607a8"),
        (TRAIN, "6eb89a5f3a992f85"),
        ([*TRAIN, "--vocab", "v.json", "--merges", "m.txt", "--report", "r.jsonl",
          "--init-ckpt", "i.ckpt", "--epochs", "3", "--batch-size", "16",
          "--grad-accum", "2", "--lr", "0.001", "--weight-decay", "0.01", "--margin", "0.5", "--seed", "7",
          "--schedule", "curriculum", "--gamma", "0.8", "--curriculum-order", "A,,B", "--freeze-embeddings"],
         "845511bce841ffc2"),
        ([*TRAIN, "--config", "CONFIG"], "06bf898b4d9152d3"),
        ([*TRAIN, "--config", "CONFIG", "--epochs", "5", "--grad-accum", "4", "--gamma", "0.5",
          "--schedule", "interleaved", "--dim", "16", "--max-len", "20", "--seed", "11",
          "--curriculum-order", "B,C", "--freeze-embeddings", "--lr", "1"], "d98a0238cca1cf35"),
        (["score", "--ckpt", "m.ckpt", "--vocab", "v.json", "--ref", "the door is open",
          "--cand", "the door is closed"], "b35a46231d5de6f3"),
        (["evaluate", "--data", "c.jsonl", "--out", "r.json"], "aa888b54eb5680ae"),
        (["evaluate", "--data", "reg.json", "--ckpt", "m.ckpt", "--vocab", "v.json", "--merges", "m.txt",
          "--scores", "s1.jsonl", "--scores", "s2.jsonl", "--metrics", "a=unit", "--metrics", "b=percent",
          "--rouge", "--out", "r.json", "--csv", "c.csv", "--seed", "5"], "adba6ee05e6ece1b"),
        (["attribute", *PAIR], "848f8d13e076a2c2"),
        (["attribute", *PAIR, "--merges", "m.txt", "--direction", "toward_reference", "--steps", "16",
          "--baseline", "input", "--out", "a.json"], "6cab0cc5d1516969"),
    ])
    def test_config_hash_is_pinned(self, tmp_path, monkeypatch, argv, config_hash):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(self.FILE))
        config = run_config(monkeypatch, [str(path) if arg == "CONFIG" else arg for arg in argv])
        assert matcha.cli._provenance(config.train.seed, config)["config_hash"] == config_hash

    # (key, file value, flags, value with those flags over the file)
    @pytest.mark.parametrize("key, file_value, flags, flag_value", [
        ("epochs", 2, ["--epochs", "3"], 3),
        ("batch_size", 8, ["--batch-size", "16"], 16),
        ("grad_accum_steps", 2, ["--grad-accum", "3"], 3),
        ("lr", 0.01, ["--lr", "0.02"], 0.02),
        ("weight_decay", 0.1, ["--weight-decay", "0.2"], 0.2),
        ("margin", 2.0, ["--margin", "3"], 3.0),
        ("seed", 1, ["--seed", "2"], 2),
        ("schedule_strategy", "sequential", ["--schedule", "curriculum"], "curriculum"),
        ("lr_decay", 0.5, ["--gamma", "0.6"], 0.6),
        ("train_embeddings", False, [], False),
        ("train_embeddings", True, ["--freeze-embeddings"], False),
        ("curriculum_order", ["A"], ["--curriculum-order", "B,C"], ["B", "C"]),
        ("curriculum_order", ["A"], ["--curriculum-order", ""], []),
        ("dim", 12, ["--dim", "16"], 16),
        ("n_ctx", 3, ["--n-ctx", "4"], 4),
        ("max_len", 32, ["--max-len", "20"], 20),
    ])
    def test_defaults_then_file_then_flags(self, tmp_path, monkeypatch, key, file_value, flags, flag_value):
        def field_value(config):
            return getattr(config.train if hasattr(config.train, key) else config, key)

        path = tmp_path / "config.json"
        path.write_text(json.dumps({key: file_value}))
        default = field_value(matcha.cli.RunConfig(command="train"))
        assert field_value(run_config(monkeypatch, self.TRAIN)) == default
        assert field_value(run_config(monkeypatch, [*self.TRAIN, "--config", str(path)])) == file_value
        assert field_value(run_config(monkeypatch, [*self.TRAIN, "--config", str(path), *flags])) == flag_value


class TestOneParserPerProcess:
    """`main` builds the parser once per process, and successive calls share no state."""

    EVALUATE = ["evaluate", "--data", "c.jsonl", "--out", "r.json"]
    TRAIN = ["train", "--data", "c.jsonl", "--out", "m.ckpt"]

    def test_parser_is_built_once(self):
        assert matcha.cli._build_parser() is matcha.cli._build_parser()

    def test_repeatable_flags_do_not_accumulate(self, monkeypatch):
        first = run_config(monkeypatch, [*self.EVALUATE, "--scores", "a.jsonl", "--metrics", "a=unit"])
        second = run_config(monkeypatch, [*self.EVALUATE, "--scores", "b.jsonl", "--metrics", "b=percent",
                                          "--metrics", "c=unit"])
        assert (first.scores, first.metrics) == (["a.jsonl"], ["a=unit"])
        assert (second.scores, second.metrics) == (["b.jsonl"], ["b=percent", "c=unit"])

    def test_a_flag_set_once_is_absent_from_the_next_call(self, monkeypatch):
        run_config(monkeypatch, [*self.EVALUATE, "--scores", "a.jsonl", "--metrics", "a=unit", "--rouge",
                                 "--csv", "c.csv", "--ckpt", "m.ckpt", "--vocab", "v.json", "--seed", "9"])
        assert run_config(monkeypatch, self.EVALUATE) == matcha.cli.RunConfig(
            command="evaluate", data="c.jsonl", out="r.json")

    def test_freeze_embeddings_does_not_stick(self, monkeypatch):
        frozen = run_config(monkeypatch, [*self.TRAIN, "--freeze-embeddings", "--epochs", "3"])
        assert not frozen.train.train_embeddings and frozen.train.epochs == 3
        assert run_config(monkeypatch, self.TRAIN) == matcha.cli.RunConfig(
            command="train", data="c.jsonl", out="m.ckpt")


class TestIgnoredVocabularyFlags:
    """Vocabulary flags a command would not use are a config error, raised before any file is opened."""

    EVALUATE = ["evaluate", "--data", "missing.jsonl", "--out", "r.json"]
    EVALUATE_MESSAGE = "evaluate with --vocab or --merges requires --ckpt"

    @pytest.mark.parametrize("argv, message", [
        (["train", "--data", "missing.jsonl", "--out", "m.ckpt", "--merges", "m.txt"],
         "train with --merges requires --vocab"),
        ([*EVALUATE, "--vocab", "v.json"], EVALUATE_MESSAGE),
        ([*EVALUATE, "--merges", "m.txt"], EVALUATE_MESSAGE),
        ([*EVALUATE, "--vocab", "v.json", "--merges", "m.txt"], EVALUATE_MESSAGE),
    ], ids=["train-merges", "evaluate-vocab", "evaluate-merges", "evaluate-both"])
    def test_config_error_before_any_file_is_opened(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_train_with_vocab_and_merges_still_runs(self, tmp_path, bpe_files):
        corpus = write_corpus(tmp_path / "corpus.jsonl", make_synthetic_corpus(16, seed=5))
        out = str(tmp_path / "bpe.ckpt")
        assert main(["train", "--data", corpus, "--out", out, "--vocab", bpe_files.vocab_path,
                     "--merges", bpe_files.merges_path, "--epochs", "1", "--batch-size", "8",
                     "--dim", "8", "--n-ctx", "2"]) == 0
        assert load_checkpoint(out).vocab_size == len(bpe_files.token_to_id)
