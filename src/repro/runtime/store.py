"""The campaign result store: an append-only JSONL log plus its summary index.

A campaign directory holds ``spec.json`` — the
:class:`~repro.runtime.spec.CampaignSpec` that owns the directory
(written on first use; later runs must present a spec with the same
content digest, so two campaigns can never interleave rows) — and
``results.jsonl``, one JSON object per line, appended and flushed as each
task completes.  The append-and-flush discipline is what makes campaigns
resumable: if the process is killed mid-run, every fully written line
survives, at most the final line is truncated, and :meth:`~CampaignStore.rows`
simply skips lines that do not parse.  With ``durability="fsync"`` every
append is also fsynced, so even a *machine* crash loses at most one row.

The store has one read path, :meth:`~CampaignStore.summaries`: the
latest per-task summary (:func:`repro.runtime.summary.summarize_row`) of
every task key, persisted in the ``aggregates.json`` sidecar with a byte
cursor into ``results.jsonl``, so each read summarizes only rows
appended since the last one — O(new rows), not O(all rows).  Resume,
status, report, merge and the shard coordinator all read that mapping
and derive their views with the ``*_of`` helpers below.  The sidecar is
a pure cache: delete or corrupt it and the next read rebuilds it.

A resumed run skips the tasks whose latest summary is ``"done"`` for
the instance seed the spec derives today; failed and timed-out rows are
retried up to the retry policy's attempt budget (:func:`retry_exhausted_of`
names the rows that used it up), and a re-completed key supersedes older
rows (last write wins).  Two maintenance operations sit on top:

* **Compaction** (:meth:`~CampaignStore.compact`, ``repro campaign
  compact``): drops superseded and duplicate rows, keeping exactly the
  latest row per task key — digest-identical by construction, crash-safe
  via write-to-temp + fsync + atomic rename.
* **Merging** (:func:`merge_shards`): fuses shard directories into one
  store with batched, durability-honoring writes, and combines the
  shards' summaries instead of re-scanning the merged rows.

:meth:`~CampaignStore.latest_rows` and :meth:`~CampaignStore.rows` read
full rows; they serve compaction, merging and the full-row reference
checks, never a campaign command.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro import obs
from repro.exceptions import CampaignError
from repro.runtime.spec import DURABILITY_LEVELS, CampaignSpec
from repro.runtime.summary import SUMMARY_VERSION, summarize_row

# Store metrics.  "Flush" counts write barriers, one per write call;
# fsyncs count only under durability="fsync".  Compaction counters mirror
# CompactionStats so a scraper sees reclamation without parsing CLI
# output.  The ``backend`` label is always "jsonl"; it stays so existing
# scrapers and dashboards that filter on it keep matching.
_M_ROWS_APPENDED = obs.counter(
    "repro_store_rows_appended_total",
    "Result rows appended to campaign stores.",
    labels=("backend",),
)
_M_FLUSHES = obs.counter(
    "repro_store_flushes_total",
    "Write barriers issued (flushed JSONL writes).",
    labels=("backend",),
)
_M_FSYNCS = obs.counter(
    "repro_store_fsyncs_total",
    "Durable syncs issued under durability=fsync.",
    labels=("backend",),
)
_M_COMPACTIONS = obs.counter(
    "repro_store_compactions_total",
    "Store compactions performed.",
    labels=("backend",),
)
_M_COMPACTION_ROWS_DROPPED = obs.counter(
    "repro_store_compaction_rows_dropped_total",
    "Superseded/duplicate rows dropped by compactions.",
    labels=("backend",),
)

SPEC_FILENAME = "spec.json"
RESULTS_FILENAME = "results.jsonl"
AGGREGATES_FILENAME = "aggregates.json"

#: The value of the stores' ``backend`` metric label.
_BACKEND = "jsonl"

#: Terminal row statuses a retry policy re-executes (everything but "done").
RETRYABLE_STATUSES = ("failed", "timeout")


# ----------------------------------------------------------------------
# query helpers over a latest-per-key mapping
# ----------------------------------------------------------------------
# These accept either a summaries mapping or a latest-rows mapping (both
# carry "status" / "attempt" / "instance_cache_hit"), so a caller reads
# the store once and derives every view from that single read.

def completed_of(latest: Mapping[str, Mapping[str, Any]]) -> Set[str]:
    """Task keys whose latest entry is ``"done"`` — the resume skip-set."""
    return {key for key, entry in latest.items() if entry["status"] == "done"}


def status_counts_of(latest: Mapping[str, Mapping[str, Any]]) -> Dict[str, int]:
    """Count latest entries per status (``done`` / ``failed`` / ``timeout`` / …)."""
    counts: Dict[str, int] = {}
    for entry in latest.values():
        counts[entry["status"]] = counts.get(entry["status"], 0) + 1
    return counts


def retry_exhausted_of(
    latest: Mapping[str, Mapping[str, Any]], max_attempts: int
) -> Set[str]:
    """Task keys whose latest entry burned the whole retry budget."""
    if max_attempts < 1:
        raise CampaignError(f"max_attempts must be >= 1, got {max_attempts}")
    return {
        key
        for key, entry in latest.items()
        if entry["status"] in RETRYABLE_STATUSES
        and entry.get("attempt", 1) >= max_attempts
    }


def cache_counts_of(latest: Mapping[str, Mapping[str, Any]]) -> Dict[str, int]:
    """Instance-cache hits/misses over the latest entries.

    Entries without the flag (failed rows, stores written before the
    cache existed) count toward neither bucket.
    """
    counts = {"cache_hits": 0, "cache_misses": 0}
    for entry in latest.values():
        if "instance_cache_hit" in entry:
            counts["cache_hits" if entry["instance_cache_hit"] else "cache_misses"] += 1
    return counts


def _parse_row(raw) -> Optional[Dict[str, Any]]:
    """Parse one JSONL line (str or bytes) into a row, or None when malformed.

    Blank lines, the truncated tail of a killed run, and objects without
    a ``task_key``/``status`` all return None — resuming re-executes
    those tasks, which is always safe because tasks are pure.
    """
    raw = raw.strip()
    if not raw:
        return None
    try:
        row = json.loads(raw)
    except ValueError:
        return None
    if isinstance(row, dict) and "task_key" in row and "status" in row:
        return row
    return None


@dataclass(frozen=True)
class CompactionStats:
    """What one :meth:`compact` call did: row and byte counts before/after."""

    rows_before: int
    rows_after: int
    bytes_before: int
    bytes_after: int

    @property
    def rows_dropped(self) -> int:
        return self.rows_before - self.rows_after


class CampaignStore:
    """Append-only JSONL store rooted at one campaign directory.

    ``durability`` selects the write discipline of :meth:`append`:
    ``"flush"`` (default) flushes each row so a process kill loses at
    most one line; ``"fsync"`` additionally fsyncs so a machine crash
    loses at most one line.
    """

    def __init__(self, directory, durability: str = "flush") -> None:
        if durability not in DURABILITY_LEVELS:
            raise CampaignError(
                f"durability must be one of {DURABILITY_LEVELS}, got {durability!r}"
            )
        self.directory = Path(directory)
        self.durability = durability
        # Byte size of results.jsonl after our last write, or None when we
        # have not looked yet.  While the size matches, the file still ends
        # with the newline we wrote, so append can skip the tail check; any
        # external change (kill truncation, test tampering) shows up as a
        # size mismatch and re-triggers it.
        self._known_size: Optional[int] = None

    @property
    def spec_path(self) -> Path:
        return self.directory / SPEC_FILENAME

    @property
    def results_path(self) -> Path:
        return self.directory / RESULTS_FILENAME

    @property
    def aggregates_path(self) -> Path:
        return self.directory / AGGREGATES_FILENAME

    # ------------------------------------------------------------------
    # spec identity
    # ------------------------------------------------------------------
    def initialize(self, spec: CampaignSpec) -> None:
        """Create the directory and bind it to ``spec`` (or verify the binding).

        First use writes ``spec.json``; later use re-reads it and raises
        :class:`CampaignError` when the content digest differs, so a
        directory can never accumulate rows from two different campaigns.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        if self.spec_path.exists():
            existing = self.load_spec()
            if existing.digest() != spec.digest():
                raise CampaignError(
                    f"campaign directory {self.directory} already belongs to campaign "
                    f"{existing.name!r} (spec digest {existing.digest()[:12]}); refusing "
                    f"to mix in results for {spec.name!r} ({spec.digest()[:12]})"
                )
            return
        self.spec_path.write_text(spec.to_json() + "\n", encoding="utf-8")

    def load_spec(self) -> CampaignSpec:
        """Read the spec bound to this directory."""
        if not self.spec_path.exists():
            raise CampaignError(
                f"{self.spec_path} does not exist; is {self.directory} a campaign directory?"
            )
        return CampaignSpec.from_json(self.spec_path.read_text(encoding="utf-8"))

    @staticmethod
    def _check_row(row: Dict[str, Any]) -> None:
        if "task_key" not in row or "status" not in row:
            raise CampaignError(
                f"result rows need 'task_key' and 'status', got {sorted(row)!r}"
            )

    # ------------------------------------------------------------------
    # rows
    # ------------------------------------------------------------------
    def _needs_tail_newline(self) -> bool:
        """True when a kill left the file without a trailing newline.

        The next write must terminate that truncated line first, so a new
        row is not glued onto the partial one and lost with it.
        """
        if not self.results_path.exists():
            return False
        with open(self.results_path, "rb") as handle:
            handle.seek(0, 2)
            if handle.tell() == 0:
                return False
            handle.seek(-1, 2)
            return handle.read(1) != b"\n"

    def _tail_unknown(self) -> bool:
        """Whether the tail state must be re-checked before the next write.

        One stat call per append replaces the old open+seek+read: while
        the file size still matches what we last wrote, our own trailing
        newline is necessarily intact.
        """
        if self._known_size is None:
            return True
        try:
            return os.path.getsize(self.results_path) != self._known_size
        except OSError:
            return True

    def _write_lines(self, lines: List[str]) -> None:
        needs_newline = False
        if self._tail_unknown():
            self.directory.mkdir(parents=True, exist_ok=True)
            needs_newline = self._needs_tail_newline()
        payload = "".join(line + "\n" for line in lines).encode("utf-8")
        with open(self.results_path, "ab") as handle:
            if needs_newline:
                handle.write(b"\n")
            handle.write(payload)
            handle.flush()
            if self.durability == "fsync":
                os.fsync(handle.fileno())
                _M_FSYNCS.labels(_BACKEND).inc()
            self._known_size = handle.tell()
        _M_ROWS_APPENDED.labels(_BACKEND).inc(len(lines))
        _M_FLUSHES.labels(_BACKEND).inc()

    def append(self, row: Dict[str, Any]) -> None:
        """Append one result row, flushed so a kill loses at most this line.

        Under ``durability="fsync"`` the row is also fsynced to disk, so
        at most this line is lost even if the whole machine dies before
        the page cache is written back.
        """
        self._check_row(row)
        self._write_lines([json.dumps(row, sort_keys=True)])

    def append_many(self, rows: Iterable[Dict[str, Any]]) -> None:
        """Append a batch of rows through one handle: one flush, one fsync.

        Same durability contract as :meth:`append`, amortized — the whole
        batch is written, flushed, and (under ``"fsync"``) fsynced once.
        """
        rows = list(rows)
        for row in rows:
            self._check_row(row)
        if rows:
            self._write_lines([json.dumps(row, sort_keys=True) for row in rows])

    def rows(self) -> List[Dict[str, Any]]:
        """Read every well-formed result row, in file order.

        Lines that fail to parse (the truncated tail of a killed run) and
        lines without a ``task_key`` are skipped — resuming re-executes
        those tasks, which is always safe because tasks are pure.
        """
        if not self.results_path.exists():
            return []
        rows: List[Dict[str, Any]] = []
        with open(self.results_path, "r", encoding="utf-8") as handle:
            for line in handle:
                row = _parse_row(line)
                if row is not None:
                    rows.append(row)
        return rows

    def latest_rows(self) -> Dict[str, Dict[str, Any]]:
        """Map each task key to its most recent full row (last write wins).

        The full-row counterpart of :meth:`summaries`, kept for the
        reference checks that compare the two.
        """
        latest: Dict[str, Dict[str, Any]] = {}
        for row in self.rows():
            latest[row["task_key"]] = row
        return latest

    # ------------------------------------------------------------------
    # incremental aggregation
    # ------------------------------------------------------------------
    def _load_aggregate_state(self) -> Tuple[int, Dict[str, Dict[str, Any]]]:
        try:
            payload = json.loads(self.aggregates_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return 0, {}
        if not isinstance(payload, dict) or payload.get("version") != SUMMARY_VERSION:
            return 0, {}
        offset = payload.get("byte_offset")
        summaries = payload.get("summaries")
        # A cursor at 0 covers no rows, so any entries it carries are
        # stale; an entry without a string status is not a summary.
        # Either way the sidecar is rebuilt from the log.
        if (
            not isinstance(offset, int)
            or offset <= 0
            or not isinstance(summaries, dict)
            or not all(
                isinstance(entry, dict) and isinstance(entry.get("status"), str)
                for entry in summaries.values()
            )
        ):
            return 0, {}
        return offset, summaries

    def _store_aggregate_state(
        self, offset: int, summaries: Dict[str, Dict[str, Any]]
    ) -> None:
        payload = {
            "version": SUMMARY_VERSION,
            "byte_offset": offset,
            "summaries": summaries,
        }
        tmp = self.aggregates_path.with_name(AGGREGATES_FILENAME + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
            handle.flush()
            if self.durability == "fsync":
                os.fsync(handle.fileno())
        os.replace(tmp, self.aggregates_path)

    def _replace_summaries(self, summaries: Dict[str, Dict[str, Any]]) -> None:
        """Persist ``summaries`` as covering the results file as it stands."""
        try:
            size = os.path.getsize(self.results_path)
        except OSError:
            size = 0
        self._store_aggregate_state(size, summaries)

    def summaries(self) -> Dict[str, Dict[str, Any]]:
        """Latest-per-key sufficient statistics, maintained incrementally.

        The mapping is persisted in ``aggregates.json`` together with the
        byte offset of the last fully scanned line, so each call
        summarizes only rows appended since the previous one (O(new
        rows)) before merging them in (last write per key wins, exactly
        like the row log).  The sidecar is rebuilt from scratch whenever
        the cursor no longer lands on a line boundary of the current file
        (kill truncation below the cursor, external rewrites, format
        changes) or its content is malformed — it is a pure cache of
        ``results.jsonl``, never a source of truth.  A valid-but-unterminated tail row (the write a
        kill interrupted) is folded into the *returned* mapping, matching
        :meth:`rows`, but the persisted cursor never advances past it.
        """
        try:
            size = os.path.getsize(self.results_path)
        except OSError:
            size = 0
        offset, summaries = self._load_aggregate_state()
        dirty = False
        if offset > size:
            offset, summaries, dirty = 0, {}, True
        tail_entry: Optional[Tuple[str, Dict[str, Any]]] = None
        if size > offset:
            with open(self.results_path, "rb") as handle:
                if offset:
                    handle.seek(offset - 1)
                    if handle.read(1) != b"\n":
                        offset, summaries, dirty = 0, {}, True
                        handle.seek(0)
                chunk = handle.read()
            lines = chunk.split(b"\n")
            for raw in lines[:-1]:
                offset += len(raw) + 1
                dirty = True
                row = _parse_row(raw)
                if row is not None:
                    summaries[row["task_key"]] = summarize_row(row)
            tail_row = _parse_row(lines[-1]) if lines[-1] else None
            if tail_row is not None:
                tail_entry = (tail_row["task_key"], summarize_row(tail_row))
        if dirty:
            try:
                self._store_aggregate_state(offset, summaries)
            except OSError:
                pass  # read-only directory: serve the scan, skip the cache refresh
        result = dict(summaries)
        if tail_entry is not None:
            result[tail_entry[0]] = tail_entry[1]
        return result

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def compact(self) -> CompactionStats:
        """Rewrite the log keeping only the latest row per task key.

        Digest-identical by construction (exactly the rows
        :meth:`latest_rows` selects, in file order of their final
        occurrence) and crash-safe: the survivors are written to a
        temporary file, fsynced, and atomically renamed over
        ``results.jsonl``, so a kill at any point leaves either the old
        or the new log — never a mix.  The aggregate sidecar is refreshed
        to cover the compacted file.
        """
        try:
            bytes_before = os.path.getsize(self.results_path)
        except OSError:
            return CompactionStats(0, 0, 0, 0)
        rows = self.rows()
        final_index = {row["task_key"]: i for i, row in enumerate(rows)}
        kept = [row for i, row in enumerate(rows) if final_index[row["task_key"]] == i]
        tmp = self.results_path.with_name(RESULTS_FILENAME + ".tmp")
        with open(tmp, "wb") as handle:
            for row in kept:
                handle.write((json.dumps(row, sort_keys=True) + "\n").encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.results_path)
        bytes_after = os.path.getsize(self.results_path)
        self._known_size = bytes_after
        self._store_aggregate_state(
            bytes_after, {row["task_key"]: summarize_row(row) for row in kept}
        )
        _M_COMPACTIONS.labels(_BACKEND).inc()
        _M_COMPACTION_ROWS_DROPPED.labels(_BACKEND).inc(len(rows) - len(kept))
        return CompactionStats(len(rows), len(kept), bytes_before, bytes_after)


def open_store(directory, durability: str = "flush") -> CampaignStore:
    """Open the campaign store rooted at ``directory``."""
    return CampaignStore(directory, durability=durability)


def merge_shards(destination, shard_dirs, durability: Optional[str] = None) -> CampaignStore:
    """Fuse shard campaign directories into one store and return it.

    Every shard directory must be bound to the *same* spec (content
    digest); a foreign spec is refused, because its rows would poison the
    merged aggregate.  Rows are appended in argument order (file order
    within each shard), so overlapping stores resolve exactly like a
    single store does: last write wins per task key.  The destination may
    already hold rows for the same spec (merging into a partially
    complete store is an ordinary resume) but must not be one of the
    shard directories being merged.

    Writes honor the spec's ``durability`` (or an explicit ``durability``
    override): each shard's rows go through one batched
    :meth:`~CampaignStore.append_many` — one flush, and under ``"fsync"``
    one fsync, per shard.  Instead of re-scanning the merged log, the
    shards' summaries are combined into the destination's (shard order =
    append order, so last write per key wins identically).
    """
    shard_dirs = [Path(d) for d in shard_dirs]
    if not shard_dirs:
        raise CampaignError("merge_shards needs at least one shard directory")
    destination = Path(destination)
    for shard_dir in shard_dirs:
        if shard_dir.resolve() == destination.resolve():
            raise CampaignError(
                f"merge destination {destination} is itself one of the shard "
                f"directories; merge into a fresh directory"
            )
    stores = [open_store(d) for d in shard_dirs]
    spec = stores[0].load_spec()
    for store in stores[1:]:
        other = store.load_spec()
        if other.digest() != spec.digest():
            raise CampaignError(
                f"shard store {store.directory} belongs to campaign {other.name!r} "
                f"(spec digest {other.digest()[:12]}), not {spec.name!r} "
                f"({spec.digest()[:12]}); refusing to merge foreign shards"
            )
    merged = open_store(
        destination,
        durability=durability if durability is not None else spec.durability,
    )
    merged.initialize(spec)
    # Catch the destination's own pre-existing rows up first, so the shard
    # summaries land on top of them in append order.
    combined = merged.summaries()
    for store in stores:
        merged.append_many(store.rows())
        combined.update(store.summaries())
    merged._replace_summaries(combined)
    return merged
