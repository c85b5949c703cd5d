"""The `BENCH_*.json` records at the root of the repository.

Each must parse, name a workload of `BENCHMARK.json`, and report only
metrics that `BENCHMARK.json` lists (end-to-end or per-layer), wherever
it holds a `metrics` table or a `ratio_change_over_parent` table.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def _metric_names(node):
    """Every key of a `metrics` or `ratio_change_over_parent` table, at any depth."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in ("metrics", "ratio_change_over_parent") and isinstance(value, dict):
                yield from value
            else:
                yield from _metric_names(value)
    elif isinstance(node, list):
        for value in node:
            yield from _metric_names(value)


def test_there_are_bench_files():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_matches_benchmark_definition(path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    allowed = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    record = json.loads(path.read_text())
    assert record["workload"] in {w["name"] for w in spec["workloads"]}
    names = set(_metric_names(record))
    assert names, "no metrics table"
    assert names <= allowed, f"metrics not in BENCHMARK.json: {sorted(names - allowed)}"
