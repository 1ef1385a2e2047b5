"""Per-layer tracing for the campaign benchmark, applied from outside the program.

:class:`LayerTracer` wraps the public entry points of each ``repro``
module (the table in :func:`layer_targets`) with functions that record a
span — name, start, end, parent span, task key — into an in-memory list.
Nothing under ``src/`` knows about it: the wrappers are installed on the
module and class attributes the program looks up at call time, and
removed again when the traced run ends.

A layer's time is its *self* time: the span's duration minus the time
of the spans it directly contains, so the layers of one pass add up to
the pass's wall time without double counting.

Only the benchmark's own process records spans.  Pool workers are forked
with the wrappers installed, but a wrapper called in another process
passes straight through, so on ``sweep-pool2`` the worker-side layers
(everything under ``tasks.execute``) read 0 — they are not visible from
the parent, and the benchmark says so instead of estimating them.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.pool
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Per-layer metrics with their units, as the traced run prints them.
#: Times are self seconds per timed pass (median over the traced passes).
PER_LAYER_UNITS = {
    "scheduler.self_s": "s",
    "scheduler.wait_s": "s",
    "tasks.self_s": "s",
    "tasks.instance_build_s": "s",
    "tasks.instance_digest_s": "s",
    "tasks.cache_hit_ratio": "ratio",
    "conflict_graph.build_s": "s",
    "conflict_graph.builds_per_instance": "ratio",
    "conflict_graph.remove_s": "s",
    "conflict_graph.frozen_sorted_s": "s",
    "maxis.solve_s": "s",
    "maxis.solves": "count",
    "happiness.init_s": "s",
    "happiness.commit_s": "s",
    "happiness.remove_s": "s",
    "correspondence.to_coloring_s": "s",
    "reduction.self_s": "s",
    "reduction.phases_per_task": "phases/task",
    "hypergraph.copy_s": "s",
    "hypergraph.remove_edges_s": "s",
    "io.result_to_dict_s": "s",
    "io.row_bytes": "bytes",
    "store.append_s": "s",
    "store.flushes": "count",
    "store.bytes_written": "bytes",
    "store.latest_rows_s": "s",
    "store.summaries_s": "s",
    "store.bytes_read": "bytes",
    "aggregate.records_s": "s",
    "aggregate.digest_s": "s",
    "obs.snapshot_s": "s",
    "trace.campaign_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.residue_share": "ratio",
    "conflict_graph.build_share": "ratio",
    "maxis.solve_share": "ratio",
    "store.read_share_of_status": "ratio",
}

#: Layers that run inside ``execute_task``, i.e. in the workers of a pool.
WORKER_SIDE = (
    "tasks.",
    "conflict_graph.",
    "maxis.",
    "happiness.",
    "correspondence.",
    "reduction.",
    "hypergraph.",
    "io.result_to_dict",
)

_MISSING = object()


def _results_size(store) -> int:
    try:
        return os.path.getsize(store.results_path)
    except OSError:
        return 0


def _summaries_bytes(store) -> int:
    """Bytes an incremental ``summaries`` call will scan: past its cursor."""
    offset, _ = store._load_aggregate_state()
    size = _results_size(store)
    return size - offset if offset <= size else size


def layer_targets() -> List[Tuple[object, str, str, Optional[Callable]]]:
    """``(owner, attribute, span name, byte probe)`` for every wrapped entry point.

    An owner is a module or a class; a byte probe, when given, is called
    with the entry point's arguments before the call and returns the
    bytes the call will read.
    """
    from repro import runtime
    from repro.core import reduction
    from repro.core.conflict_graph import ConflictGraph
    from repro.core.happiness import HappinessTracker
    from repro.hypergraph.hypergraph import Hypergraph
    from repro.maxis.approximators import MaxISApproximator
    from repro.obs.metrics import MetricsRegistry
    from repro.runtime import scheduler, tasks
    from repro.runtime.store import CampaignStore

    return [
        (scheduler, "run_campaign", "scheduler.run", None),
        (multiprocessing.pool.IMapIterator, "__next__", "scheduler.wait", None),
        (tasks, "execute_task", "tasks.execute", None),
        (scheduler, "execute_task", "tasks.execute", None),
        (tasks, "build_instance", "tasks.instance_build", None),
        (tasks, "instance_digest", "tasks.instance_digest", None),
        (reduction.ConflictFreeMulticoloringViaMaxIS, "run", "reduction.run", None),
        (Hypergraph, "copy", "hypergraph.copy", None),
        (Hypergraph, "remove_edges", "hypergraph.remove_edges", None),
        (ConflictGraph, "__init__", "conflict_graph.build", None),
        (ConflictGraph, "remove_hyperedges", "conflict_graph.remove", None),
        (ConflictGraph, "frozen_sorted", "conflict_graph.frozen_sorted", None),
        (MaxISApproximator, "__call__", "maxis.solve", None),
        (reduction, "independent_set_to_coloring", "correspondence.to_coloring", None),
        (HappinessTracker, "__init__", "happiness.init", None),
        (HappinessTracker, "commit", "happiness.commit", None),
        (HappinessTracker, "remove_edges", "happiness.remove", None),
        (tasks, "reduction_result_to_dict", "io.result_to_dict", None),
        (CampaignStore, "append", "store.append", None),
        (CampaignStore, "latest_rows", "store.latest_rows", _results_size),
        (CampaignStore, "summaries", "store.summaries", _summaries_bytes),
        # ``repro campaign report`` looks these two up on the package at call time.
        (runtime, "records_from_summaries", "aggregate.records", None),
        (runtime, "campaign_digest", "aggregate.digest", None),
        (MetricsRegistry, "write_snapshot", "obs.snapshot", None),
    ]


class LayerTracer:
    """Records spans around the wrapped layer entry points while installed.

    Spans are kept in memory as ``[name, start, end, parent, task, bytes]``
    lists (``parent`` indexes :attr:`spans`, ``-1`` for a root) and are
    written out once, by :meth:`write`, when the benchmark ends.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.active = False
        self._stack: List[int] = []
        self._task: Optional[str] = None
        self._pid = os.getpid()
        self._saved: List[Tuple[object, str, object]] = []
        self._wrappers: Dict[Tuple[str, int], Callable] = {}

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point of :func:`layer_targets` (recording starts paused)."""
        for owner, attribute, name, probe in layer_targets():
            original = getattr(owner, attribute)
            # One wrapper per original function, so a function exported by
            # two modules stays one object (pickle finds it by name).
            key = (name, id(original))
            if key not in self._wrappers:
                self._wrappers[key] = self._wrap(name, original, probe)
            self._saved.append((owner, attribute, owner.__dict__.get(attribute, _MISSING)))
            setattr(owner, attribute, self._wrappers[key])

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attribute, saved in reversed(self._saved):
            if saved is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, saved)
        self._saved.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def _wrap(self, name: str, fn: Callable, probe: Optional[Callable]) -> Callable:
        tracer = self
        is_task = name == "tasks.execute"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            read = probe(*args) if probe is not None else 0
            if is_task:
                tracer._task = args[0]["task_key"]
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer._task, read]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                if is_task:
                    tracer._task = None

        return wrapper

    def span(self, name: str):
        """A span opened by the benchmark itself (``campaign.status`` / ``campaign.report``)."""
        return _OwnSpan(self, name)

    # ------------------------------------------------------------------
    def write(self, path) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, task, read in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "task": task,
                            "bytes_read": read,
                        }
                    )
                    + "\n"
                )


class _OwnSpan:
    def __init__(self, tracer: LayerTracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        tracer = self._tracer
        parent = tracer._stack[-1] if tracer._stack else -1
        self._span = [self._name, 0.0, 0.0, parent, None, 0]
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(self._span)
        self._span[1] = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._span[2] = time.perf_counter()
        self._tracer._stack.pop()


def self_times(spans: List[list], base: int) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Self seconds and call counts per span name over ``spans``.

    ``spans`` is a contiguous slice of :attr:`LayerTracer.spans` starting
    at absolute index ``base``; a span whose parent lies before the slice
    counts as a root.
    """
    children = [0.0] * len(spans)
    for name, start, end, parent, _task, _read in spans:
        if parent >= base:
            children[parent - base] += end - start
    seconds: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    for (name, start, end, _parent, _task, _read), inner in zip(spans, children):
        seconds[name] += (end - start) - inner
        counts[name] += 1
    return seconds, counts


def status_read_share(spans: List[list], base: int) -> float:
    """Share of ``campaign.status`` time spent in the store reads it makes directly."""
    status_total = 0.0
    read_total = 0.0
    for index, (name, start, end, parent, _task, _read) in enumerate(spans):
        if name == "campaign.status":
            status_total += end - start
        elif name.startswith("store.") and parent >= base and spans[parent - base][0] == "campaign.status":
            read_total += end - start
    return read_total / status_total if status_total else 0.0


def _instance_groups(rows: List[dict], payloads: Dict[str, dict]) -> int:
    """Distinct (instance, k) pairs among the rows: the conflict graphs needed."""
    from repro.runtime.tasks import instance_cache_key

    groups = set()
    for row in rows:
        p = payloads[row["task_key"]]
        groups.add(instance_cache_key(p["family"], p["n"], p["m"], p["k"], p["epsilon"], p["instance_seed"]) + (p["k"],))
    return len(groups)


def pass_layers(tracer: LayerTracer, result, payloads: Dict[str, dict], pooled: bool) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (``result`` is a ``PassResult``)."""
    lo, hi = result.spans
    spans = tracer.spans[lo:hi]
    seconds, counts = self_times(spans, lo)
    executed = max(result.executed, 1)
    hits, misses = result.counters["cache_hits"], result.counters["cache_misses"]
    if pooled:
        # Phases run in the workers, whose registries the parent never sees;
        # the rows carry each task's phase records.
        phases = sum(len(row["result"]["phases"]) for row in result.rows if row.get("status") == "done")
    else:
        phases = result.counters["phases"]
    run_s = result.run_s
    return {
        "scheduler.self_s": seconds["scheduler.run"],
        "scheduler.wait_s": seconds["scheduler.wait"],
        "tasks.self_s": seconds["tasks.execute"],
        "tasks.instance_build_s": seconds["tasks.instance_build"],
        "tasks.instance_digest_s": seconds["tasks.instance_digest"],
        "tasks.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "conflict_graph.build_s": seconds["conflict_graph.build"],
        "conflict_graph.builds_per_instance": counts["conflict_graph.build"] / max(_instance_groups(result.rows, payloads), 1),
        "conflict_graph.remove_s": seconds["conflict_graph.remove"],
        "conflict_graph.frozen_sorted_s": seconds["conflict_graph.frozen_sorted"],
        "maxis.solve_s": seconds["maxis.solve"],
        "maxis.solves": counts["maxis.solve"],
        "happiness.init_s": seconds["happiness.init"],
        "happiness.commit_s": seconds["happiness.commit"],
        "happiness.remove_s": seconds["happiness.remove"],
        "correspondence.to_coloring_s": seconds["correspondence.to_coloring"],
        "reduction.self_s": seconds["reduction.run"],
        "reduction.phases_per_task": phases / executed,
        "hypergraph.copy_s": seconds["hypergraph.copy"],
        "hypergraph.remove_edges_s": seconds["hypergraph.remove_edges"],
        "io.result_to_dict_s": seconds["io.result_to_dict"],
        "io.row_bytes": result.bytes_written / executed,
        "store.append_s": seconds["store.append"],
        "store.flushes": result.counters["flushes"],
        "store.bytes_written": result.bytes_written,
        "store.latest_rows_s": seconds["store.latest_rows"],
        "store.summaries_s": seconds["store.summaries"],
        "store.bytes_read": sum(s[5] for s in spans if s[0] in ("store.latest_rows", "store.summaries")),
        "aggregate.records_s": seconds["aggregate.records"],
        "aggregate.digest_s": seconds["aggregate.digest"],
        "obs.snapshot_s": seconds["obs.snapshot"],
        "trace.campaign_s": run_s,
        "trace.residue_share": (seconds["scheduler.run"] + seconds["tasks.execute"]) / run_s,
        "conflict_graph.build_share": seconds["conflict_graph.build"] / run_s,
        "maxis.solve_share": seconds["maxis.solve"] / run_s,
        "store.read_share_of_status": status_read_share(spans, lo),
    }
