#!/usr/bin/env python
"""Store smoke gate: JSONL ≡ compacted ≡ incremental, plus a warm-sidecar resume.

Runs the tiny committed 8-task spec (``examples/campaign_smoke.json``)
and asserts every read path of the store lands on one byte-identical
digest:

1. the serial reference, digested from the full row log;
2. the same store digested through the summary index
   (``store.summaries()`` + ``records_from_summaries``);
3. a kill+resume from a warm sidecar: a copy of the log is cut to its
   first half, its summaries are cached (as a ``status`` call would),
   two more rows and a half-written tail land on top (the kill), and the
   resumed run must execute exactly the missing tasks and reach the
   serial digest;
4. the store compacted after a superseded duplicate row is planted —
   compaction must drop the row and leave the digest untouched.

Usage: ``python scripts/store_smoke.py`` (from the repository root; run
by ``make store-smoke`` and ``scripts/check.sh``).  Scratch output goes
to ``.store-smoke/`` (wiped on entry).
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.runtime import (  # noqa: E402
    CampaignSpec,
    campaign_digest,
    campaign_records,
    completed_of,
    open_store,
    records_from_summaries,
    run_campaign,
)

SPEC_PATH = REPO_ROOT / "examples" / "campaign_smoke.json"
SCRATCH = REPO_ROOT / ".store-smoke"


def digests_of(spec: CampaignSpec, directory: Path) -> tuple:
    """(full-row digest, incremental-aggregate digest) for one store."""
    store = open_store(directory)
    full = campaign_digest(campaign_records(spec, store.rows()))
    incremental = campaign_digest(records_from_summaries(spec, store.summaries()))
    return full, incremental


def main() -> int:
    spec = CampaignSpec.from_json(SPEC_PATH.read_text(encoding="utf-8"))
    shutil.rmtree(SCRATCH, ignore_errors=True)

    serial = SCRATCH / "serial"
    stats = run_campaign(spec, serial, workers=0)
    if stats.failed:
        print(f"store-smoke: FAIL — {stats.failed} tasks failed")
        return 1
    reference, incremental = digests_of(spec, serial)
    print(
        f"serial:  {stats.executed} tasks in {stats.wall_time_s:.3f}s  "
        f"full {reference[:12]}  incremental {incremental[:12]}"
    )
    if incremental != reference:
        print("store-smoke: FAIL — incremental digest diverged")
        return 1

    killed = SCRATCH / "killed"
    killed.mkdir(parents=True)
    shutil.copy2(serial / "spec.json", killed / "spec.json")
    store = open_store(killed)
    reference_log = open_store(serial).results_path.read_text(encoding="utf-8")
    lines = reference_log.splitlines(keepends=True)
    checkpoint = len(lines) // 2
    store.results_path.write_text("".join(lines[:checkpoint]), encoding="utf-8")
    store.summaries()  # warm sidecar at the checkpoint
    with open(store.results_path, "a", encoding="utf-8") as handle:
        handle.write("".join(lines[checkpoint : checkpoint + 2]) + '{"task_key": "killed-')
    survivors = len(completed_of(store.latest_rows()))  # leaves the sidecar as is
    resumed = run_campaign(spec, killed, workers=0)
    full, incremental = digests_of(spec, killed)
    print(
        f"resume:  {resumed.skipped} skipped, {resumed.executed} executed from a "
        f"sidecar warm at row {checkpoint}  full {full[:12]}"
    )
    if resumed.executed != spec.num_tasks() - survivors:
        print("store-smoke: FAIL — warm-sidecar resume executed the wrong tasks")
        return 1
    if full != reference or incremental != reference:
        print("store-smoke: FAIL — warm-sidecar resume digest diverged")
        return 1

    store = open_store(serial)
    store.append(store.rows()[0])  # superseded duplicate, as a retry leaves
    stats = store.compact()
    full, incremental = digests_of(spec, serial)
    print(
        f"compact: {stats.rows_before} -> {stats.rows_after} rows, "
        f"{stats.bytes_before} -> {stats.bytes_after} bytes  full {full[:12]}"
    )
    if stats.rows_dropped < 1:
        print("store-smoke: FAIL — compaction dropped nothing")
        return 1
    if full != reference or incremental != reference:
        print("store-smoke: FAIL — compacted digest diverged")
        return 1

    print("store-smoke: OK (serial ≡ warm-sidecar resume ≡ compacted, full ≡ incremental)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
