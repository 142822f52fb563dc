"""Tests of the benchmark itself: its smoke mode runs clean, its checks bite,
its metric names match BENCHMARK.json, and its traced counters repeat.

    python -m pytest bench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import free_count  # noqa: E402
from reference import count_extensions  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(workload: str, *extra: str) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def test_benchmark_json_names_what_the_benchmark_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    traced = set(Tracer().metrics()) | {"process.cpu_s", "process.import_s", "trace.overhead_s"}
    assert {m["name"] for m in SPEC["per_layer"]} == traced


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct(workload):
    result, stderr = smoke(workload, "--trace", "0")
    assert result["correct"] is True, stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_dropped_container_element_fails_the_coverage_check():
    # the family reader gets an export with one element removed from container 0
    result, stderr = smoke("containers", "--trace", "0", "--inject-fault")
    assert result["failed"] == 1 and result["correct"] is True
    assert "failed operation: read-family-c3: coverage:" in stderr


def test_traced_counters_repeat_exactly():
    first, _ = smoke("containers", "--trace", "1")
    second, _ = smoke("containers", "--trace", "1")
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [k for k, v in first["metrics"].items() if v["unit"] == "count"]
    assert counts
    for k in counts:
        assert first["metrics"][k]["value"] == second["metrics"][k]["value"], k


@pytest.mark.parametrize("name", ["c3", "dk3"])
def test_extension_route_matches_brute_force(name):
    assert count_extensions(name, 4) == free_count(name, 5)
