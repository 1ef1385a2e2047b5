#!/usr/bin/env python
"""Smoke gate: one serial reference, four legs that must reproduce its digest.

Runs the tiny committed 8-task spec (``examples/campaign_smoke.json``)
once through the serial reference executor, then drives four legs
against that run's aggregate digest:

* **obs** — the same spec with tracing on: the traced digest equals the
  reference (instrumentation must never perturb results); the
  ``trace.jsonl`` sidecar is schema-valid with zero skipped lines and
  holds one ``campaign_run`` span, one ``task`` span per task and nested
  ``phase`` spans, and fewer ``oracle_solve`` spans than ``phase`` spans
  (the spec pairs each oracle with its capped variant, so every task
  group's first phase is one shared kernel solve: the memo is live);
  ``repro campaign metrics --json`` projects all four campaign families
  from the traced store, with the reference's content.
* **campaign** — both halves of a 2-shard split fused by
  ``merge_shards`` cover the task set; a persistent 2-worker
  ``WorkerPool`` reused for two runs reports a warm start on the second;
  the merged store resumed after a simulated kill (last row cut to half
  a line) executes exactly the lost task.  Every store reaches the
  reference digest, and its ``campaign metrics`` projection reports the
  reference's task, attempt and phase counts.
* **store** — the reference store read through the summary index
  (``records_from_summaries``) reaches the full-row digest; a copy of
  its log cut to the first half, with a warm summary sidecar, two more
  rows and a half-written tail (the kill), resumes by executing exactly
  the missing tasks; a planted superseded duplicate is dropped by
  ``compact`` and the digest is untouched.  Both read paths are checked
  after each step.
* **chaos** — the :class:`ShardCoordinator` supervises a 2-shard split
  under a deterministic fault plan (a kill in one shard, watchdog-tripping
  hangs in the other); every shard lands, at least one restart and one
  timeout row are observed, and the supervised digest equals the
  reference.  ``REPRO_CHAOS=1`` is set for this leg only — the gate
  exists to stop *accidental* fault injection, and this leg is
  deliberate.

Usage: ``python scripts/smoke.py`` (from the repository root; run by
``make smoke``).  Prints one line per leg and exits non-zero on the
first failed check.  Scratch output goes to ``.smoke/`` (wiped on entry).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path
from unittest import mock

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import obs  # noqa: E402
from repro.cli import main as repro_main  # noqa: E402
from repro.runtime import (  # noqa: E402
    CHAOS_ENV_VAR,
    CampaignSpec,
    FaultPlan,
    LocalProcessExecutor,
    ShardCoordinator,
    WorkerPool,
    campaign_digest,
    campaign_records,
    completed_of,
    merge_shards,
    open_store,
    records_from_summaries,
    run_campaign,
)

SPEC_PATH = REPO_ROOT / "examples" / "campaign_smoke.json"
SCRATCH = REPO_ROOT / ".smoke"
N_SHARDS = 2

#: The families describing the rows themselves: every execution shape of
#: the spec must project the serial reference's values for them.
CONTENT_FAMILIES = (
    "repro_tasks_total",
    "repro_task_attempts_total",
    "repro_reduction_phases_total",
)

#: Every family ``repro campaign metrics`` projects from a store.
PROJECTED_FAMILIES = CONTENT_FAMILIES + ("repro_instance_cache_total",)

#: Seed 15 of this plan shape puts two hangs in shard 0 (before any kill)
#: and two kills in shard 1 on the first dispatch — both recovery paths
#: fire on every run, deterministically.
CHAOS_PLAN = FaultPlan(p_kill=0.25, p_hang=0.25, seed=15, max_salt=1, hang_s=60.0)


class SmokeFailure(Exception):
    """A failed smoke check; the message is printed after ``FAIL —``."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise SmokeFailure(message)


def digest_of(spec: CampaignSpec, directory: Path) -> str:
    return campaign_digest(campaign_records(spec, open_store(directory).rows()))


def digests_of(spec: CampaignSpec, directory: Path) -> tuple:
    """(full-row digest, summary-index digest) for one store."""
    store = open_store(directory)
    full = campaign_digest(campaign_records(spec, store.rows()))
    incremental = campaign_digest(records_from_summaries(spec, store.summaries()))
    return full, incremental


def metrics_of(directory: Path) -> dict:
    """``repro campaign metrics <directory> --json`` as ``{family: {labels: value}}``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = repro_main(["campaign", "metrics", str(directory), "--json"])
    check(code == 0, f"campaign metrics on {directory.name} exited {code}")
    return {
        metric["name"]: {
            json.dumps(sample["labels"], sort_keys=True): sample["value"]
            for sample in metric["samples"]
        }
        for metric in json.loads(out.getvalue())["metrics"]
    }


def content_of(directory: Path) -> dict:
    """The content families of one store's metrics projection."""
    metrics = metrics_of(directory)
    return {name: metrics.get(name) for name in CONTENT_FAMILIES}


def reference_leg(spec: CampaignSpec) -> str:
    stats = run_campaign(spec, SCRATCH / "serial", workers=0)
    check(not stats.failed, f"{stats.failed} serial reference tasks failed")
    reference = digest_of(spec, SCRATCH / "serial")
    print(
        f"serial:    {stats.executed} tasks in {stats.wall_time_s:.3f}s "
        f"({stats.tasks_per_s:.1f}/s, {stats.cache_hits} cache hits)  "
        f"digest {reference[:12]}"
    )
    return reference


def obs_leg(spec: CampaignSpec, reference: str) -> str:
    traced_dir = SCRATCH / "traced"
    traced = run_campaign(spec, traced_dir, workers=0, trace=True)
    check(not traced.failed, "smoke campaign had failing tasks")
    traced_digest = digest_of(spec, traced_dir)
    print(f"traced:    {traced.executed} tasks  digest {traced_digest[:12]}")
    check(traced_digest == reference, "tracing perturbed the aggregate digest")

    sidecar = traced_dir / obs.TRACE_FILENAME
    valid, skipped = obs.validate_trace(sidecar)
    names = [r["name"] for r in obs.read_trace(sidecar) if r["type"] == "span"]
    print(f"trace:     {valid} valid record(s), {skipped} skipped, {len(names)} span(s)")
    check(skipped == 0, "clean traced run left skipped sidecar lines")
    check(
        names.count("campaign_run") == 1 and names.count("task") == spec.num_tasks(),
        f"expected 1 campaign_run + {spec.num_tasks()} task spans, "
        f"got {names.count('campaign_run')} + {names.count('task')}",
    )
    check("phase" in names, "no reduction phase spans in the sidecar")
    solves, phases = names.count("oracle_solve"), names.count("phase")
    print(f"solves:    {solves} kernel solve(s) for {phases} phase(s)")
    check(
        0 < solves < phases,
        f"expected 0 < oracle_solve spans < phase spans, got {solves} vs {phases}: "
        "the task groups' solve memo is not shared",
    )

    metrics = metrics_of(traced_dir)
    print(f"metrics:   {len(metrics)} famil(ies) projected from the traced store")
    missing = [name for name in PROJECTED_FAMILIES if not metrics.get(name)]
    check(not missing, f"projection lacks families: {missing}")
    check(
        content_of(traced_dir) == content_of(SCRATCH / "serial"),
        "traced projection differs from the serial reference",
    )
    return "traced ≡ serial, sidecar well-formed, projection covered"


def campaign_leg(spec: CampaignSpec, reference: str) -> str:
    reference_content = content_of(SCRATCH / "serial")
    shard_dirs = [SCRATCH / f"shard{i}" for i in range(N_SHARDS)]
    executed = sum(
        run_campaign(spec, shard_dir, shard=(index, N_SHARDS)).executed
        for index, shard_dir in enumerate(shard_dirs)
    )
    merge_shards(SCRATCH / "merged", shard_dirs)
    merged_digest = digest_of(spec, SCRATCH / "merged")
    print(
        f"shards={N_SHARDS}:  {executed} tasks across {N_SHARDS} shard stores  "
        f"digest {merged_digest[:12]}"
    )
    check(executed == spec.num_tasks(), "shards did not cover the full task set")
    check(merged_digest == reference, "merged shard aggregate differs from serial")
    check(
        content_of(SCRATCH / "merged") == reference_content,
        "merged projection differs from the serial reference",
    )

    # Persistent pool: the second run through the same pool starts warm.
    with WorkerPool(2) as pool:
        run_campaign(spec, SCRATCH / "pool-cold", pool=pool)
        warm = run_campaign(spec, SCRATCH / "pool-warm", pool=pool)
    warm_digest = digest_of(spec, SCRATCH / "pool-warm")
    print(
        f"warm pool: {warm.executed} tasks in {warm.wall_time_s:.3f}s "
        f"({warm.tasks_per_s:.1f}/s, warm={warm.pool_warm}, "
        f"{warm.cache_hits} cache hits)  digest {warm_digest[:12]}"
    )
    check(warm.pool_warm, "second pool run did not report a warm start")
    check(
        warm_digest == reference and digest_of(spec, SCRATCH / "pool-cold") == reference,
        "pool aggregate differs from the serial reference",
    )
    check(
        content_of(SCRATCH / "pool-cold") == reference_content
        and content_of(SCRATCH / "pool-warm") == reference_content,
        "pool projection differs from the serial reference",
    )

    # Simulated kill: drop the final row mid-line, then resume.
    store = open_store(SCRATCH / "merged")
    lines = store.results_path.read_text(encoding="utf-8").splitlines(keepends=True)
    store.results_path.write_text("".join(lines[:-1]) + '{"task_key": "par', encoding="utf-8")
    resumed = run_campaign(spec, SCRATCH / "merged", workers=0)
    resumed_digest = digest_of(spec, SCRATCH / "merged")
    print(
        f"resume:    {resumed.executed} executed / {resumed.skipped} skipped  "
        f"digest {resumed_digest[:12]}"
    )
    check(
        resumed.executed == 1 and resumed.skipped == spec.num_tasks() - 1,
        "resume did not skip exactly the completed tasks",
    )
    check(resumed_digest == reference, "resumed aggregate differs from the serial reference")
    check(
        content_of(SCRATCH / "merged") == reference_content,
        "resumed projection differs from the serial reference",
    )
    return f"{N_SHARDS}-shard-merged ≡ warm-pool ≡ resumed ≡ serial (digest and metrics)"


def store_leg(spec: CampaignSpec, reference: str) -> str:
    serial = SCRATCH / "serial"
    full, incremental = digests_of(spec, serial)
    print(f"index:     full {full[:12]}  incremental {incremental[:12]}")
    check(incremental == reference, "incremental digest diverged")

    killed = SCRATCH / "killed"
    killed.mkdir(parents=True)
    shutil.copy2(serial / "spec.json", killed / "spec.json")
    store = open_store(killed)
    lines = open_store(serial).results_path.read_text(encoding="utf-8").splitlines(keepends=True)
    checkpoint = len(lines) // 2
    store.results_path.write_text("".join(lines[:checkpoint]), encoding="utf-8")
    store.summaries()  # warm sidecar at the checkpoint
    with open(store.results_path, "a", encoding="utf-8") as handle:
        handle.write("".join(lines[checkpoint : checkpoint + 2]) + '{"task_key": "killed-')
    survivors = len(completed_of(store.latest_rows()))  # leaves the sidecar as is
    resumed = run_campaign(spec, killed, workers=0)
    full, incremental = digests_of(spec, killed)
    print(
        f"resume:    {resumed.skipped} skipped, {resumed.executed} executed from a "
        f"sidecar warm at row {checkpoint}  full {full[:12]}"
    )
    check(
        resumed.executed == spec.num_tasks() - survivors,
        "warm-sidecar resume executed the wrong tasks",
    )
    check(full == reference and incremental == reference, "warm-sidecar resume digest diverged")

    compacted = SCRATCH / "compacted"
    shutil.copytree(serial, compacted)
    store = open_store(compacted)
    store.append(store.rows()[0])  # superseded duplicate, as a retry leaves
    stats = store.compact()
    full, incremental = digests_of(spec, compacted)
    print(
        f"compact:   {stats.rows_before} -> {stats.rows_after} rows, "
        f"{stats.bytes_before} -> {stats.bytes_after} bytes  full {full[:12]}"
    )
    check(stats.rows_dropped >= 1, "compaction dropped nothing")
    check(full == reference and incremental == reference, "compacted digest diverged")
    return "warm-sidecar resume ≡ compacted ≡ serial, full ≡ incremental"


def chaos_leg(spec: CampaignSpec, reference: str) -> str:
    supervised = SCRATCH / "supervised"
    with mock.patch.dict(os.environ, {CHAOS_ENV_VAR: "1"}):
        report = ShardCoordinator(
            spec,
            supervised,
            LocalProcessExecutor(),
            n_shards=2,
            heartbeat_timeout_s=15.0,
            max_restarts=4,
            base_backoff_s=0.01,
            poll_interval_s=0.01,
            task_timeout_s=0.5,
            retry=None,  # chaos faults are transient; nothing may be written off
            chaos=CHAOS_PLAN,
            restart_failed_shards=True,
            max_wall_clock_s=90.0,
        ).run()
    timeouts = sum(row["status"] == "timeout" for row in open_store(supervised).rows())
    for shard in report.shards:
        print(
            f"shard {shard.index}/2: {shard.status}  dispatches={shard.dispatches} "
            f"restarts={shard.restarts} stale_kills={shard.stale_kills} "
            f"exit_codes={shard.exit_codes}"
        )
    print(
        f"supervised: {report.status_counts.get('done', 0)}/{spec.num_tasks()} done, "
        f"{report.restarts} restart(s), {timeouts} watchdog timeout(s) "
        f"in {report.wall_time_s:.2f}s  digest {report.digest[:12]}"
    )
    check(not report.poisoned, f"shards poisoned under chaos: {report.poisoned}")
    check(
        report.status_counts == {"done": spec.num_tasks()},
        f"unfinished rows: {report.status_counts}",
    )
    check(report.restarts >= 1, "the injected kill never forced a restart")
    check(timeouts >= 1, "the injected hang never tripped the watchdog")
    check(report.digest == reference, "supervised digest differs from the serial reference")
    return "kill→restart, hang→watchdog timeout, digest ≡ serial"


LEGS = (("obs", obs_leg), ("campaign", campaign_leg), ("store", store_leg), ("chaos", chaos_leg))


def main() -> int:
    spec = CampaignSpec.from_json(SPEC_PATH.read_text(encoding="utf-8"))
    shutil.rmtree(SCRATCH, ignore_errors=True)
    leg = "reference"
    try:
        reference = reference_leg(spec)
        for leg, run in LEGS:
            print(f"smoke/{leg}: OK ({run(spec, reference)})")
    except SmokeFailure as exc:
        print(f"smoke/{leg}: FAIL — {exc}")
        return 1
    print(f"smoke: OK (obs, campaign, store and chaos legs ≡ serial {reference[:12]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
