"""Tests of the benchmark itself, at the tiny "smoke" size of every workload.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def smoke(name: str, trace: bool, tamper=None):
    return harness.run_workload(name, seed=7, seconds=0, trace=trace, size="smoke", tamper=tamper)


def test_benchmark_json_names_every_workload():
    assert sorted(WORKLOADS) == sorted(harness.WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(name):
    metrics, report = smoke(name, trace=False)
    assert report["failures"] == []
    assert report["failed"] == 0 and report["attempted"] > 0
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_smoke_run_reports_every_layer_metric_with_repeatable_counts(name):
    first, report = smoke(name, trace=True)
    assert report["failures"] == []
    assert report["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(declared) <= set(first)
    second, _ = smoke(name, trace=True)
    counts = [n for n, unit in declared.items() if unit in ("count", "bytes")]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_traced_table_counts_its_recursion_and_no_trees():
    metrics, _ = smoke("table-cold", trace=True)
    assert metrics["cutjoin.recursion_terms.calls"] > 0
    assert metrics["cutjoin.states"] == metrics["cutjoin.states_added"] > 0
    assert metrics["hodge.hodge_integral.calls"] == 9  # rows of g <= 3
    assert metrics["trees.trees"] == 0


def test_corrupted_memo_entry_is_an_error_not_a_pass():
    # A half-written last line of the memo file: 91/5760 cut to 91/576.
    # The CLI loads such a file without complaint; the benchmark must not.
    def truncate_entry(workload):
        text = workload.pristine.read_text(encoding="ascii")
        assert "\t91/5760\n" in text
        workload.pristine.write_text(text.replace("\t91/5760\n", "\t91/576\n"), encoding="ascii")

    _, report = smoke("cli-cache-session", trace=False, tamper=truncate_entry)
    assert report["error_rate"] > 0
    assert any("memo file after the session" in f for f in report["failures"])


def test_without_sources_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "table-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
