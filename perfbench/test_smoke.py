"""Smoke check of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs its shortest possible run (one operation untraced, one
pass over the counted inputs traced) and must come out correct, with exactly
the metrics and units BENCHMARK.json lists.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import NullTracer  # noqa: E402


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_is_correct_and_reports_the_listed_metrics(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == listed
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_gate_counts_a_changed_plan_as_failed():
    r = run.Runner("plan_fixtures", 0, run.load_program(), run.make_inputs("plan_fixtures", 0))
    assert r.run_one(0, NullTracer()) is not None and r.gate.failed == 0
    r.gate.recorded = [[entry[0], entry[1] * 2, *entry[2:]] for entry in r.gate.recorded]
    assert r.run_one(0, NullTracer()) is None and r.gate.failed == 1


def test_sort_checks_catch_disorder_and_lost_rows():
    p = run.load_program()
    sizes = run.make_inputs("sort_segmented", 0)[0]
    out = run.sort_op(p, NullTracer(), "sort_segmented", 0, 0, sizes)
    assert run.check_sort(out, sizes) == []
    out.unsorted, out.rows = 1, out.rows - 1
    assert len(run.check_sort(out, sizes)) == 2


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "sort_segmented", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
