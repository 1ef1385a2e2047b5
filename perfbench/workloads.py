"""The campaign benchmark's workloads: grids, set-up, timed passes, certification.

Every workload is a closed loop driven by this one client process: a
*pass* brings one fresh campaign directory to completion with
``run_campaign`` (the timed campaign), then runs ``repro campaign
status`` and a cold ``repro campaign report`` on it, each timed on its
own.  Rows are certified between passes, outside the timed regions.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro import cli, obs
from repro.core.certificates import verify_reduction_result
from repro.exceptions import ReproError
from repro.hypergraph.io import reduction_result_from_dict
from repro.runtime import CampaignSpec, aggregate, scheduler, tasks
from repro.runtime.store import AGGREGATES_FILENAME, RESULTS_FILENAME, open_store

#: End-to-end metrics with their units, as every untraced run prints them.
END_TO_END_UNITS = {
    "tasks_per_s": "tasks/s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "resume_s": "s",
    "status_s": "s",
    "report_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Task-latency percentiles need ten samples beyond them: p90 needs 100.
P90_MIN_SAMPLES = 100
#: Set-up is repeated this many times per run and reported as the median.
SETUP_REPEATS = 3
#: Fewest timed passes a run makes, whatever its ``--seconds``.
MIN_PASSES = 3
#: A run stops after this many times its ``--seconds`` even if short of samples.
MAX_RUN_FACTOR = 6
#: Share of a finished resume-report campaign's rows cut to simulate a kill.
KILL_FRACTION = 0.05
#: Seconds :func:`calibration_s` takes on the reference machine (a 2-vCPU
#: Xeon VM in its uncontended state); timings are scaled to that speed.
CALIBRATION_NOMINAL_S = 0.014

#: Row fields that vary between executions of one task (timing, cache
#: order, retry count); every other field must repeat byte for byte.
VOLATILE_FIELDS = ("wall_time_s", "happy_check_wall_time_s", "instance_cache_hit", "attempt")

_SWEEP_ORACLES = [
    "greedy-first-fit",
    "greedy-min-degree",
    "capped:greedy-first-fit",
    "capped:greedy-min-degree",
]
_SWEEP = {
    "families": ["colorable", "uniform"],
    "sizes": [[30, 20], [60, 40]],
    "ks": [2, 3],
    "oracles": _SWEEP_ORACLES,
    "lams": [2.0, 4.0],
    "replicates": 4,
    "epsilon": 0.5,
}
_DEEP = {
    "families": ["colorable"],
    "sizes": [[120, 80]],
    "ks": [4],
    "oracles": ["capped:greedy-min-degree"],
    "lams": [16.0],
    "replicates": 8,
    "epsilon": 0.5,
}
_RESUME = {
    "families": ["colorable", "uniform"],
    "sizes": [[20, 12]],
    "ks": [2, 3],
    "oracles": ["greedy-first-fit", "greedy-min-degree"],
    "lams": [2.0],
    "replicates": 500,
    "epsilon": 0.5,
}
#: Tiny grids for ``--smoke``: same shapes, a few dozen tasks each.
_SMOKE = {
    "sweep": dict(_SWEEP, sizes=[[12, 8]], replicates=1),
    "deep": dict(_DEEP, sizes=[[30, 20]], ks=[3], lams=[4.0], replicates=2),
    "resume": dict(_RESUME, sizes=[[12, 8]], replicates=8),
}


@dataclass(frozen=True)
class Workload:
    """One named workload: which grid, how it is executed, and why it exists."""

    name: str
    grid_name: str
    grid: dict
    why: str
    workers: int = 0
    resume: bool = False

    def spec(self, seed: int, smoke: bool) -> CampaignSpec:
        # The spec name is the grid's, not the workload's: sweep-shared and
        # sweep-pool2 run one spec and so must agree on one digest.
        grid = _SMOKE[self.grid_name] if smoke else self.grid
        return CampaignSpec.from_dict(
            dict(grid, name=f"perfbench-{self.grid_name}", seed=seed)
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-shared",
            "sweep",
            _SWEEP,
            "usual campaign shape: each instance serves 8 oracle x lambda tasks, "
            "so per-task conflict-graph builds are redundant",
        ),
        Workload(
            "deep-phase",
            "deep",
            _DEEP,
            "worst-case lambda=16 regime, one task per instance: the oracle "
            "dominates and instance sharing and the store barely matter",
        ),
        Workload(
            "resume-report",
            "resume",
            _RESUME,
            "resume of a killed 4000-row campaign, then status and a cold report: "
            "the store's read path",
            resume=True,
        ),
        Workload(
            "sweep-pool2",
            "sweep",
            _SWEEP,
            "the sweep spec on a 2-worker per-call pool: dispatch, IPC and "
            "per-worker instance-cache locality",
            workers=2,
        ),
    )
}


class BenchError(Exception):
    """The program produced something the benchmark cannot accept."""


def _calibration_work() -> list:
    table: Dict[tuple, int] = {}
    for i in range(20000):
        key = (i % 997, i & 15)
        table[key] = table.get(key, 0) + 1
    return sorted(table.items())


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop that uses no ``repro`` code.

    Other tenants of the machine slow every process on it by up to 1.6x
    for seconds at a time.  This loop slows by the same factor, so timing
    it around each timed step measures the machine's current speed, and
    scaling the step by ``CALIBRATION_NOMINAL_S / calibration_s()`` takes
    that factor out.  See README.md, "Noise".
    """
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        _calibration_work()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


# ----------------------------------------------------------------------
# certification
# ----------------------------------------------------------------------
def content_hash(row: dict) -> str:
    """Hash of a row without its volatile fields: equal for equal task output."""
    stable = {key: value for key, value in row.items() if key not in VOLATILE_FIELDS}
    return hashlib.sha256(json.dumps(stable, sort_keys=True).encode("utf-8")).hexdigest()


def certify_row(row: dict, payload: dict) -> Optional[str]:
    """Re-derive a ``done`` row's instance and re-certify its result.

    Returns a description of the first problem found, or None.  The
    instance is regenerated from the task's seed and must match the
    stored ``instance_digest``; the stored result is decoded and must
    pass :func:`verify_reduction_result` (conflict-free, consistent phase
    accounting) and stay within the ``k·ρ`` color budget.
    """
    key = payload["task_key"]
    if row.get("status") != "done":
        return f"{key}: status {row.get('status')!r} ({row.get('error')})"
    if row.get("instance_seed") != payload["instance_seed"]:
        return f"{key}: instance seed {row.get('instance_seed')} != {payload['instance_seed']}"
    hypergraph = tasks.build_instance(
        family=payload["family"],
        n=payload["n"],
        m=payload["m"],
        k=payload["k"],
        epsilon=payload["epsilon"],
        seed=payload["instance_seed"],
    )
    if tasks.instance_digest(hypergraph) != row.get("instance_digest"):
        return f"{key}: stored instance_digest does not match the regenerated instance"
    try:
        result = reduction_result_from_dict(row["result"])
        report = verify_reduction_result(hypergraph, result)
    except (ReproError, KeyError, TypeError, ValueError) as exc:
        return f"{key}: certificate failed: {exc}"
    if not report.within_color_budget:
        return f"{key}: {result.total_colors} colors exceed k*rho = {result.color_bound}"
    if result.k != payload["k"] or result.lam != payload["lam"]:
        return f"{key}: result is for k={result.k}, lam={result.lam}"
    return None


class Certifier:
    """Certifies each task once; later rows of the task must repeat it exactly."""

    def __init__(self, spec: CampaignSpec) -> None:
        self.payloads = {p["task_key"]: p for p in spec.task_payloads()}
        self.certified: Dict[str, str] = {}

    def check(self, row: dict) -> Optional[str]:
        payload = self.payloads.get(row.get("task_key"))
        if payload is None:
            return f"row for unknown task {row.get('task_key')!r}"
        digest = content_hash(row)
        known = self.certified.get(payload["task_key"])
        if known is not None:
            if known == digest:
                return None
            return f"{payload['task_key']}: row differs from the certified row of this task"
        problem = certify_row(row, payload)
        if problem is None:
            self.certified[payload["task_key"]] = digest
        return problem


def full_row_digest(spec: CampaignSpec, directory: Path) -> str:
    """Aggregate digest through the retained full-row reference path."""
    rows = open_store(directory).rows()
    return aggregate.campaign_digest(aggregate.campaign_records(spec, rows))


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
@dataclass
class Prepared:
    """What set-up leaves for the timed passes."""

    workload: Workload
    spec: CampaignSpec
    reference: Path
    template: Optional[Path]
    expected_executed: int


def make_killed_copy(source: Path, destination: Path) -> int:
    """Copy a finished campaign as a kill would have left it; return the rows cut.

    The last :data:`KILL_FRACTION` of rows are dropped and the first of
    them is left half written, without its newline, like an append the
    kill interrupted.
    """
    lines = (source / RESULTS_FILENAME).read_bytes().splitlines(keepends=True)
    cut = max(1, round(len(lines) * KILL_FRACTION))
    kept = lines[: len(lines) - cut]
    torn = lines[len(lines) - cut]
    destination.mkdir(parents=True)
    shutil.copy2(source / "spec.json", destination / "spec.json")
    (destination / RESULTS_FILENAME).write_bytes(b"".join(kept) + torn[: len(torn) // 2])
    return cut


def set_up(workload: Workload, seed: int, smoke: bool, workdir: Path, index: int):
    """One timed set-up: build the spec, run it uninterrupted, make the kill copy.

    The uninterrupted serial run warms the process (imports, allocator,
    registry children) and is the digest reference for every timed pass:
    a pooled pass and a resumed pass must both reproduce it.
    """
    reference = workdir / f"setup-{index}"
    template = workdir / f"template-{index}" if workload.resume else None
    tasks.INSTANCE_CACHE.clear()
    gc.collect()
    before = calibration_s()
    start = time.perf_counter()
    spec = workload.spec(seed, smoke)
    scheduler.run_campaign(spec, reference)
    expected = spec.num_tasks()
    if template is not None:
        expected = make_killed_copy(reference, template)
    elapsed = time.perf_counter() - start
    scale = 2 * CALIBRATION_NOMINAL_S / (before + calibration_s())
    return Prepared(workload, spec, reference, template, expected), elapsed * scale


# ----------------------------------------------------------------------
# timed passes
# ----------------------------------------------------------------------
def registry_total(name: str, **labels: str) -> float:
    """Sum of a registry family's children whose labels match ``labels``."""
    for family in obs.get_registry().families():
        if family.name == name:
            total = 0.0
            for values, child in family.children():
                named = dict(zip(family.label_names, values))
                if all(named.get(k) == v for k, v in labels.items()):
                    total += child.value
            return total
    return 0.0


def _counters(campaign: str) -> Dict[str, float]:
    return {
        "cache_hits": registry_total("repro_instance_cache_total", campaign=campaign, outcome="hit"),
        "cache_misses": registry_total("repro_instance_cache_total", campaign=campaign, outcome="miss"),
        "flushes": registry_total("repro_store_flushes_total", backend="jsonl"),
        "phases": registry_total("repro_reduction_phases_total"),
    }


@dataclass
class PassResult:
    """What one pass measured and produced."""

    run_s: float
    status_s: float
    report_s: float
    executed: int
    latencies_s: List[float]
    rows: List[dict]
    digest: str
    counters: Dict[str, float]
    bytes_written: int
    #: Machine-speed correction of this pass's times (see calibration_s).
    scale: float = 1.0
    traced: bool = False
    spans: tuple = field(default=(0, 0))

    @property
    def wall_s(self) -> float:
        """Corrected time of the pass's three timed steps."""
        return (self.run_s + self.status_s + self.report_s) * self.scale


def _cli(argv: List[str], tracer, span_name: str):
    """Run one ``repro`` CLI command in-process; return (seconds, stdout)."""
    out = io.StringIO()
    scope = tracer.span(span_name) if tracer is not None else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        start = time.perf_counter()
        with scope:
            code = cli.main(argv)
        elapsed = time.perf_counter() - start
    if code != 0:
        raise BenchError(f"repro {' '.join(argv)} exited {code}: {out.getvalue()[-500:]}")
    return elapsed, out.getvalue()


def _size(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


def run_pass(prepared: Prepared, directory: Path, tracer=None) -> PassResult:
    """One pass: campaign to completion, ``status``, cold ``report``.

    Each pass starts like a new ``repro campaign run``: a fresh directory
    (or a fresh copy of the killed campaign) and an empty instance cache.
    With a tracer, its spans are recorded for the timed steps only.
    """
    workload = prepared.workload
    if directory.exists():
        shutil.rmtree(directory)
    if prepared.template is not None:
        shutil.copytree(prepared.template, directory)
    tasks.INSTANCE_CACHE.clear()
    gc.collect()
    rows: List[dict] = []
    stamps: List[float] = []

    def on_row(row: dict) -> None:
        stamps.append(time.perf_counter())
        rows.append(row)

    results = directory / RESULTS_FILENAME
    size_before = _size(results)
    before = _counters(prepared.spec.name)
    first_span = len(tracer.spans) if tracer is not None else 0
    calibration = calibration_s()
    if tracer is not None:
        tracer.active = True
    try:
        start = time.perf_counter()
        scheduler.run_campaign(prepared.spec, directory, workers=workload.workers, on_row=on_row)
        run_s = time.perf_counter() - start
        after = _counters(prepared.spec.name)
        status_s, _ = _cli(["campaign", "status", "--out", str(directory)], tracer, "campaign.status")
        # Cold report: the aggregates sidecar status just wrote is removed.
        (directory / AGGREGATES_FILENAME).unlink(missing_ok=True)
        report_s, report = _cli(["campaign", "report", "--out", str(directory)], tracer, "campaign.report")
    finally:
        if tracer is not None:
            tracer.active = False
    scale = 2 * CALIBRATION_NOMINAL_S / (calibration + calibration_s())
    if workload.workers > 1:
        # Pool rows reach the parent in chunk bursts, so their arrival
        # gaps are not task latencies; the worker-side task time is.
        latencies = [row.get("wall_time_s", 0.0) for row in rows]
    else:
        latencies = [b - a for a, b in zip([start] + stamps, stamps)]
    digest = ""
    for line in report.splitlines():
        if line.startswith("aggregate digest:"):
            digest = line.split(":", 1)[1].strip()
    return PassResult(
        run_s=run_s,
        status_s=status_s,
        report_s=report_s,
        executed=len(rows),
        latencies_s=latencies,
        rows=rows,
        digest=digest,
        counters={key: after[key] - before[key] for key in after},
        bytes_written=_size(results) - size_before,
        scale=scale,
        traced=tracer is not None,
        spans=(first_span, len(tracer.spans) if tracer is not None else 0),
    )


def check_pass(prepared: Prepared, result: PassResult, certifier: Certifier, reference_digest: str) -> List[str]:
    """Every problem with one pass's output (empty when it is correct)."""
    problems = [p for p in map(certifier.check, result.rows) if p is not None]
    if result.executed != prepared.expected_executed:
        problems.append(
            f"pass executed {result.executed} tasks, expected {prepared.expected_executed}"
        )
    if result.digest != reference_digest:
        problems.append(
            f"aggregate digest {result.digest!r} != uninterrupted serial reference {reference_digest!r}"
        )
    return problems


# ----------------------------------------------------------------------
# end-to-end metrics
# ----------------------------------------------------------------------
def peak_rss_mb(include_children: bool) -> float:
    """Peak resident set of this process (or of it and its reaped children)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def latency_samples(passes: List[PassResult]) -> int:
    """How many task latencies :func:`end_to_end` pools for its percentiles."""
    return sum(len(p.latencies_s) for p in passes)


def end_to_end(workload: Workload, passes: List[PassResult], setups: List[float]) -> Dict[str, float]:
    """The end-to-end metrics of a run: medians of speed-corrected pass timings."""
    latencies_ms = [s * p.scale * 1e3 for p in passes for s in p.latencies_s]
    deciles = statistics.quantiles(latencies_ms, n=10) if len(latencies_ms) > 1 else latencies_ms * 9
    return {
        "tasks_per_s": statistics.median(p.executed / (p.run_s * p.scale) for p in passes),
        "task_p50_ms": statistics.median(latencies_ms),
        "task_p90_ms": deciles[8],
        "resume_s": statistics.median(p.run_s * p.scale for p in passes),
        "status_s": statistics.median(p.status_s * p.scale for p in passes),
        "report_s": statistics.median(p.report_s * p.scale for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(workload.workers > 1),
    }
