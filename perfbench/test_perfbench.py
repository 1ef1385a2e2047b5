"""Smoke tests of the campaign benchmark itself.

Run from the root of the repository::

    python3 -m pytest perfbench -q

Every workload runs at ``--smoke`` size (a few dozen tasks), so the whole
file takes well under a minute.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from repro.runtime import run_campaign  # noqa: E402
from repro.runtime.store import open_store  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

#: The per-layer metrics the benchmark is required to report.
REQUIRED_LAYER_METRICS = {
    "scheduler.self_s", "scheduler.wait_s",
    "tasks.instance_build_s", "tasks.instance_digest_s", "tasks.cache_hit_ratio",
    "conflict_graph.build_s", "conflict_graph.builds_per_instance",
    "conflict_graph.remove_s", "conflict_graph.frozen_sorted_s",
    "maxis.solve_s", "maxis.solves",
    "happiness.commit_s", "happiness.init_s", "correspondence.to_coloring_s",
    "reduction.self_s", "reduction.phases_per_task",
    "hypergraph.copy_s", "hypergraph.remove_edges_s", "io.result_to_dict_s", "io.row_bytes",
    "store.append_s", "store.flushes", "store.bytes_written",
    "store.latest_rows_s", "store.summaries_s", "store.bytes_read",
    "aggregate.records_s", "aggregate.digest_s",
    "obs.snapshot_s", "trace.overhead_ratio",
}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _smoke(workload: str, trace: int) -> tuple:
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_code_and_benchmark_json_declare_the_same_metrics():
    assert _declared("end_to_end") == wl.END_TO_END_UNITS
    assert _declared("per_layer") == layers.PER_LAYER_UNITS
    assert set(WORKLOADS) == set(wl.WORKLOADS)
    assert REQUIRED_LAYER_METRICS <= set(layers.PER_LAYER_UNITS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    lines, result = _smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    text = "\n".join(lines[:-1])
    for name, unit in wl.END_TO_END_UNITS.items():
        assert any(line.split()[:1] == [name] and f" {unit}" in line for line in lines), (name, text)
    assert "error_rate 0 fraction" in text


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    _lines, result = _smoke(workload, 1)
    assert result["correct"] is True
    assert {name: m["unit"] for name, m in result["metrics"].items()} == _declared("per_layer")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["trace.overhead_ratio"] > 0
    assert metrics["store.append_s"] > 0 and metrics["store.summaries_s"] > 0
    if workload == "sweep-pool2":
        assert metrics["scheduler.wait_s"] > 0
        assert metrics["conflict_graph.build_s"] == 0  # worker-side: not visible
    else:
        assert metrics["conflict_graph.build_s"] > 0 and metrics["maxis.solves"] > 0


def test_all_runs_every_workload_and_checks_pool_against_serial():
    proc = _run("--workload", "all", "--seed", "3", "--seconds", "0.2", "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and set(result["metrics"]) == set(WORKLOADS)
    digests = {line for line in proc.stdout.splitlines() if line.startswith("campaign digest:")}
    assert len(digests) == 3  # sweep-shared and sweep-pool2 agree


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("--workload", "sweep-shared", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def smoke_rows(tmp_path_factory):
    spec = wl.WORKLOADS["sweep-shared"].spec(seed=5, smoke=True)
    directory = tmp_path_factory.mktemp("campaign")
    run_campaign(spec, directory)
    return spec, list(open_store(directory).latest_rows().values())


def _corruptions(row: dict):
    bad = copy.deepcopy(row)
    bad["result"]["multicoloring"] = [[v, [[1, 1]]] for v, _ in bad["result"]["multicoloring"]]
    yield "one color everywhere: not conflict-free", bad
    bad = copy.deepcopy(row)
    bad["instance_digest"] = "0" * 64
    yield "wrong instance digest", bad
    bad = copy.deepcopy(row)
    bad["result"]["phases"][0]["edges_after"] += 1
    yield "inconsistent phase accounting", bad
    bad = copy.deepcopy(row)
    bad["result"]["color_bound"] = 0
    yield "colors over budget", bad
    bad = dict(row, status="failed", error="boom")
    yield "failed row", bad


def test_certification_accepts_real_rows_and_rejects_corrupted_ones(smoke_rows):
    spec, rows = smoke_rows
    payloads = {p["task_key"]: p for p in spec.task_payloads()}
    assert len(rows) == spec.num_tasks()
    for row in rows:
        assert wl.certify_row(row, payloads[row["task_key"]]) is None
    row = rows[0]
    for what, bad in _corruptions(row):
        assert wl.certify_row(bad, payloads[row["task_key"]]) is not None, what


def test_certifier_rejects_a_row_that_differs_from_its_certified_twin(smoke_rows):
    spec, rows = smoke_rows
    certifier = wl.Certifier(spec)
    assert all(certifier.check(row) is None for row in rows)
    assert certifier.check(dict(rows[0], wall_time_s=9.9, attempt=2)) is None
    drifted = copy.deepcopy(rows[0])
    drifted["result"]["phases"][0]["conflict_graph_edges"] += 1
    assert certifier.check(drifted) is not None
    assert certifier.check(dict(rows[0], task_key="no such task")) is not None
