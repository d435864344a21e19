"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 bench/selftest.py

For every workload, in both modes, it checks that each metric BENCHMARK.json
names is printed with its unit and a sample count, and that the last line
is the JSON result.  It then corrupts one output (evaluate's scores drift
by 1e-6) and checks that `ok_ops_ratio` drops below 1.
"""

import dataclasses
import json
import sys

import bench  # pins the BLAS threads and puts matcha on the path before numpy loads
import matcha.cli
import workloads

TINY = {
    "desk": dict(train_records=200, eval_records=40, attribute_triplets=4, separation_gate=False,
                 sizes={"corpus": 240}),
    "gpt2-table": dict(train_records=16, eval_records=4, attribute_triplets=1,
                       sizes={"vocab": 3000, "dim": 64, "n_ctx": 8, "max_len": 64, "min_words": 16, "max_words": 64}),
    "bpe-long": dict(train_records=8, eval_records=2, attribute_triplets=1,
                     sizes={"merges": 100, "min_sentences": 3, "max_sentences": 6, "merge_corpus": 100}),
}


def tiny(name: str):
    spec = workloads.SPECS[name]
    flags = list(spec.train_flags)
    if "--batch-size" in flags:
        flags[flags.index("--batch-size") + 1] = "8"
    return dataclasses.replace(spec, train_flags=tuple(flags), **TINY[name])


def check_lines(lines: list[str], expected: dict[str, str]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert set(result["metrics"]) == set(expected), set(result["metrics"]) ^ set(expected)
    for name, unit in expected.items():
        printed = [line.split() for line in lines[:-2] if line.split()[:1] == [name]]
        assert printed, f"{name} not printed"
        _, value, shown_unit, samples = printed[0][:4]
        assert shown_unit == unit, (name, shown_unit, unit)
        assert samples.startswith("samples=") and int(samples[8:]) >= 1, (name, samples)
        assert result["metrics"][name]["unit"] == unit
    return result


def main() -> int:
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    for name in workloads.SPECS:
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            record = bench.run(name, seed=3, seconds=1, trace=trace, spec=tiny(name))
            result = check_lines(bench.format_lines(record), expected)
            assert result["correct"] and result["failed"] == 0, record["failures"]
            print(f"selftest: {name} trace={int(trace)}: {len(expected)} metrics printed, all checks passed")

    original = matcha.cli.score
    matcha.cli.score = lambda *args: original(*args) + 1e-6
    try:
        record = bench.run("desk", seed=3, seconds=1, trace=False, spec=tiny("desk"))
    finally:
        matcha.cli.score = original
    result = check_lines(bench.format_lines(record), end_to_end)
    ratio = result["metrics"]["ok_ops_ratio"]["value"]
    assert not result["correct"] and ratio < 1.0, (result["correct"], ratio)
    print(f"selftest: corrupted evaluate scores give ok_ops_ratio {ratio:.4f} < 1")
    return 0


if __name__ == "__main__":
    sys.exit(main())
