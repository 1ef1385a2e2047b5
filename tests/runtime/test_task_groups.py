"""Task groups: one instance, one digest, one ``G_k`` and shared solves per group.

A task group is the tasks sharing an instance-cache key and ``k``
(:func:`task_group_key`).  The scheduler runs each group contiguously —
serially in group order, in a pool as whole-group dispatches — and
:class:`InstanceCache` memoizes the group's digest and base conflict
graph, so the group builds each of them once.  Beside the base graph it
memoizes the group's registry-oracle solves, which live exactly as long
as the base graph's slot.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import time
import weakref

import pytest

from repro import obs
from repro.bench import _campaign_bench_spec
from repro.core.conflict_graph import ConflictGraph
from repro.exceptions import TaskTimeout
from repro.maxis import MaxISApproximator, approximators, get_approximator
from repro.runtime import (
    CampaignStore,
    WorkerPool,
    campaign_digest,
    campaign_records,
    execute_task,
    run_campaign,
    tasks,
)
from repro.runtime.scheduler import _default_chunk_size, _run_group, group_payloads
from repro.runtime.tasks import (
    INSTANCE_CACHE,
    InstanceCache,
    resolve_oracle,
    task_group_key,
)

from tests.runtime.test_spec import small_spec


def grouped_spec():
    """Groups of four (two oracles × two λ), with interval instances shared across k."""
    return small_spec(
        families=("colorable", "interval"),
        sizes=((12, 8),),
        ks=(2, 3),
        lams=(2.0, 4.0),
        replicates=2,
    )


def group_sequence(rows, spec):
    by_key = {p["task_key"]: p for p in spec.task_payloads()}
    return [task_group_key(by_key[row["task_key"]]) for row in rows]


def assert_contiguous(keys):
    runs = [key for key, _ in itertools.groupby(keys)]
    assert len(runs) == len(set(runs)), "a task group is split"
    return runs


class TestGrouping:
    def test_group_payloads_keeps_first_appearance_order(self):
        payloads = grouped_spec().task_payloads()
        groups = group_payloads(payloads)
        keys = [task_group_key(group[0]) for group in groups]
        assert keys == list(dict.fromkeys(task_group_key(p) for p in payloads))
        for group in groups:
            assert {task_group_key(p) for p in group} == {task_group_key(group[0])}
        order = {p["task_key"]: i for i, p in enumerate(payloads)}
        for group in groups:
            assert [order[p["task_key"]] for p in group] == sorted(
                order[p["task_key"]] for p in group
            )
        assert sorted(p["task_key"] for g in groups for p in g) == sorted(order)

    def test_interval_groups_split_by_k_but_share_the_instance(self):
        payloads = small_spec(families=("interval",), ks=(2, 3), replicates=1).task_payloads()
        groups = group_payloads(payloads)
        assert len(groups) == 2 * len({p["instance_seed"] for p in payloads})

    def test_serial_row_order_is_group_contiguous(self, tmp_path):
        spec = grouped_spec()
        run_campaign(spec, tmp_path, workers=0)
        keys = group_sequence(CampaignStore(tmp_path).rows(), spec)
        runs = assert_contiguous(keys)
        assert runs == [task_group_key(g[0]) for g in group_payloads(spec.task_payloads())]

    def test_pool_dispatches_whole_groups(self, tmp_path, monkeypatch):
        spec = grouped_spec()
        dispatched = []
        original = WorkerPool.imap_unordered

        def spy(self, fn, iterable, chunksize=1):
            items = list(iterable)
            dispatched.append((fn, items, chunksize))
            return original(self, fn, items, chunksize=chunksize)

        monkeypatch.setattr(WorkerPool, "imap_unordered", spy)
        run_campaign(spec, tmp_path, workers=2)
        [(fn, groups, chunksize)] = dispatched
        assert fn is _run_group
        keys = [task_group_key(group[0]) for group in groups]
        assert len(keys) == len(set(keys)) == len(group_payloads(spec.task_payloads()))
        for group in groups:
            assert {task_group_key(p) for p in group} == {task_group_key(group[0])}
        assert chunksize == _default_chunk_size(len(groups), 2)
        assert sum(len(g) for g in groups) == spec.num_tasks()

    def test_run_group_executes_in_order(self):
        group = group_payloads(grouped_spec().task_payloads())[0]
        rows = _run_group(group)
        assert [r["task_key"] for r in rows] == [p["task_key"] for p in group]
        assert all(r["status"] == "done" for r in rows)


class TestOneBuildPerGroup:
    def test_conflict_graph_builds_equal_groups(self, tmp_path, monkeypatch):
        spec = grouped_spec()
        builds = []
        original = ConflictGraph.__init__

        def counting_init(self, hypergraph, k):
            builds.append(k)
            original(self, hypergraph, k)

        monkeypatch.setattr(ConflictGraph, "__init__", counting_init)
        INSTANCE_CACHE.clear()
        stats = run_campaign(spec, tmp_path, workers=0)
        assert stats.failed == 0
        assert len(builds) == len(group_payloads(spec.task_payloads()))

    def test_digest_is_computed_once_per_instance(self, tmp_path, monkeypatch):
        spec = grouped_spec()
        digests = []
        original = tasks.instance_digest

        def counting_digest(hypergraph):
            digests.append(1)
            return original(hypergraph)

        monkeypatch.setattr(tasks, "instance_digest", counting_digest)
        INSTANCE_CACHE.clear()
        run_campaign(spec, tmp_path, workers=0)
        instances = {
            tasks.instance_cache_key(
                p["family"], p["n"], p["m"], p["k"], p["epsilon"], p["instance_seed"]
            )
            for p in spec.task_payloads()
        }
        assert len(digests) == len(instances)

    def test_pooled_cache_hits_equal_serial_on_the_bench_spec(self, tmp_path):
        spec = _campaign_bench_spec(smoke=False)
        INSTANCE_CACHE.clear()
        serial = run_campaign(spec, tmp_path / "serial", workers=0)
        INSTANCE_CACHE.clear()
        pooled = run_campaign(spec, tmp_path / "pooled", workers=2)
        assert serial.cache_hits == pooled.cache_hits == 48
        digests = {
            campaign_digest(campaign_records(spec, CampaignStore(tmp_path / d).rows()))
            for d in ("serial", "pooled")
        }
        assert len(digests) == 1

    def test_memo_never_holds_more_than_one_base_graph(self, tmp_path, monkeypatch):
        bases = []
        original = InstanceCache.base_graph

        def tracking(self, entry, k):
            base = original(self, entry, k)
            bases.append(weakref.ref(base))
            return base

        def at_most_one_alive(_row):
            gc.collect()
            assert sum(ref() is not None for ref in set(bases)) <= 1

        monkeypatch.setattr(InstanceCache, "base_graph", tracking)
        INSTANCE_CACHE.clear()
        run_campaign(grouped_spec(), tmp_path, workers=0, on_row=at_most_one_alive)
        # The end of the run releases the last group's base graph too.
        gc.collect()
        assert bases and all(ref() is None for ref in bases)


class TestBaseMemo:
    def test_same_group_reuses_the_base(self):
        cache = InstanceCache()
        entry, _ = cache.lookup("colorable", 12, 8, 2, 0.5, seed=3)
        first = cache.base_graph(entry, 2)
        assert cache.base_graph(entry, 2) is first
        assert first.hypergraph is entry.hypergraph and first.k == 2

    def test_new_group_replaces_the_slot(self):
        cache = InstanceCache()
        a, _ = cache.lookup("interval", 10, 6, 2, 0.5, seed=1)
        base_a = weakref.ref(cache.base_graph(a, 2))
        other_k = cache.base_graph(a, 3)
        assert other_k.k == 3
        gc.collect()
        assert base_a() is None
        b, _ = cache.lookup("interval", 10, 6, 2, 0.5, seed=2)
        gc.collect()
        # The miss on ``b`` already released ``a``'s graph.
        assert cache._base is None
        assert cache.base_graph(b, 2).hypergraph is b.hypergraph

    def test_clear_drops_the_memos(self):
        cache = InstanceCache()
        entry, _ = cache.lookup("colorable", 12, 8, 2, 0.5, seed=3)
        entry.digest()
        base = weakref.ref(cache.base_graph(entry, 2))
        cache.clear()
        gc.collect()
        assert base() is None and len(cache) == 0

    def test_digest_is_memoized_and_evicted_with_its_entry(self, monkeypatch):
        calls = []
        original = tasks.instance_digest
        monkeypatch.setattr(
            tasks, "instance_digest", lambda h: calls.append(1) or original(h)
        )
        cache = InstanceCache(maxsize=1)
        entry, _ = cache.lookup("interval", 8, 4, 1, 0.5, seed=1)
        assert entry.digest() == entry.digest() == original(entry.hypergraph)
        assert len(calls) == 1
        cache.lookup("interval", 8, 4, 1, 0.5, seed=2)  # evicts seed=1
        again, hit = cache.lookup("interval", 8, 4, 1, 0.5, seed=1)
        assert not hit and again is not entry
        again.digest()
        assert len(calls) == 2

    def test_timeout_mid_build_leaves_the_slot_unset(self, monkeypatch):
        def slow_build(hypergraph, k):
            time.sleep(5.0)
            raise AssertionError("the watchdog should have fired first")

        monkeypatch.setattr(tasks, "ConflictGraph", slow_build)
        INSTANCE_CACHE.clear()
        payload = dict(small_spec().task_payloads()[0], task_timeout_s=0.1)
        row = execute_task(payload)
        assert row["status"] == "timeout"
        assert INSTANCE_CACHE._base is None and INSTANCE_CACHE._base_key is None
        monkeypatch.undo()
        assert execute_task(payload)["status"] == "done"

    def test_timeout_mid_sorted_snapshot_leaves_the_slot_unset(self, monkeypatch):
        # The sorted snapshot is part of the build: a timeout while it is
        # derived must not leave a base (or its half-set snapshot) behind.
        def slow_sorted(self):
            time.sleep(5.0)
            raise AssertionError("the watchdog should have fired first")

        monkeypatch.setattr(ConflictGraph, "frozen_sorted", slow_sorted)
        INSTANCE_CACHE.clear()
        payload = dict(small_spec().task_payloads()[0], task_timeout_s=0.1)
        assert execute_task(payload)["status"] == "timeout"
        assert INSTANCE_CACHE._base is None and INSTANCE_CACHE._base_key is None
        assert INSTANCE_CACHE._snapshot is None and not INSTANCE_CACHE._solves
        monkeypatch.undo()
        assert execute_task(payload)["status"] == "done"


def counting_registry_oracle(monkeypatch, name, calls, before=None):
    """Swap the registry entry ``name`` for one that logs each kernel call.

    The memo only wraps registry entries, so the swap goes into the
    registry itself; ``before(graph)`` runs ahead of the real kernel.
    """
    original = get_approximator(name)

    def kernel(graph):
        calls.append(graph)
        if before is not None:
            before(graph)
        return original.solve(graph)

    monkeypatch.setitem(
        approximators._REGISTRY, name, dataclasses.replace(original, solve=kernel)
    )
    return original


def group_view(cache, seed=3, k=2):
    """Fill ``cache``'s slot and return the first-phase view of a fork of it."""
    entry, _ = cache.lookup("colorable", 12, 8, k, 0.5, seed=seed)
    base = cache.base_graph(entry, k)
    return entry, base.fork(entry.hypergraph.copy()).frozen_sorted()


class TestSolveMemo:
    def test_a_group_solves_each_view_once(self, monkeypatch):
        calls = []
        original = counting_registry_oracle(monkeypatch, "greedy-first-fit", calls)
        cache = InstanceCache()
        _, view = group_view(cache)
        plain = original(view)
        for lam in (2.0, 4.0):
            for spec in ("greedy-first-fit", "capped:greedy-first-fit"):
                oracle = resolve_oracle(spec, lam, memo=cache)
                reference = resolve_oracle(spec, lam)
                assert oracle.name == reference.name
                assert oracle(view) == reference(view)
        assert len(calls) == 1 + 4  # one memoized kernel call, four references
        assert original(view) == plain

    def test_views_differ_by_alive_mask(self, monkeypatch):
        calls = []
        counting_registry_oracle(monkeypatch, "greedy-first-fit", calls)
        cache = InstanceCache()
        entry, view = group_view(cache)
        oracle = cache.memoized(get_approximator("greedy-first-fit"))
        oracle(view)
        fork = cache.base_graph(entry, 2).fork(entry.hypergraph.copy())
        edge = next(iter(entry.hypergraph.edge_ids))
        fork.hypergraph.remove_edges([edge])
        fork.remove_hyperedges([edge])
        smaller = fork.frozen_sorted()
        assert smaller.alive_mask() != view.alive_mask()
        oracle(smaller)
        oracle(smaller)
        oracle(view)
        assert len(calls) == 2
        assert len(cache._solves) == 2

    def test_returned_sets_are_fresh(self, monkeypatch):
        calls = []
        counting_registry_oracle(monkeypatch, "greedy-min-degree", calls)
        cache = InstanceCache()
        _, view = group_view(cache)
        oracle = cache.memoized(get_approximator("greedy-min-degree"))
        first = oracle(view)
        expected = set(first)
        first.clear()
        raw = oracle.solve(view)
        raw.add("not a triple")
        assert oracle(view) == expected
        assert oracle.solve(view) == expected
        assert len(calls) == 1

    def test_timeout_mid_solve_leaves_no_entry(self, monkeypatch):
        calls = []

        def interrupted(_graph):
            if len(calls) == 1:
                raise TaskTimeout("watchdog fired mid-solve")

        counting_registry_oracle(monkeypatch, "greedy-first-fit", calls, interrupted)
        cache = InstanceCache()
        _, view = group_view(cache)
        oracle = cache.memoized(get_approximator("greedy-first-fit"))
        with pytest.raises(TaskTimeout):
            oracle(view)
        assert cache._solves == {}
        assert oracle(view)
        assert len(calls) == 2 and len(cache._solves) == 1

    def test_watchdog_timeout_mid_solve_leaves_no_entry(self, monkeypatch):
        calls = []
        counting_registry_oracle(
            monkeypatch, "greedy-first-fit", calls, lambda _graph: time.sleep(5.0)
        )
        INSTANCE_CACHE.clear()
        payload = dict(
            small_spec(oracles=("greedy-first-fit",)).task_payloads()[0],
            task_timeout_s=0.2,
        )
        assert execute_task(payload)["status"] == "timeout"
        assert len(calls) == 1
        assert INSTANCE_CACHE._base is not None and INSTANCE_CACHE._solves == {}
        monkeypatch.undo()
        assert execute_task(payload)["status"] == "done"
        assert len(INSTANCE_CACHE._solves) >= 1

    def test_non_registry_approximators_are_returned_unchanged(self):
        cache = InstanceCache()
        group_view(cache)
        registered = get_approximator("greedy-first-fit")
        custom = MaxISApproximator(
            name="custom-tmp", solve=registered.solve, accepts_frozen=True
        )
        impostor = dataclasses.replace(registered, description="same name, not registered")
        assert cache.memoized(custom) is custom
        assert cache.memoized(impostor) is impostor
        assert cache.memoized(registered) is not registered

    def test_other_inputs_bypass_the_memo(self, monkeypatch):
        calls = []
        counting_registry_oracle(monkeypatch, "greedy-first-fit", calls)
        cache = InstanceCache()
        entry, view = group_view(cache)
        oracle = cache.memoized(get_approximator("greedy-first-fit"))
        mutable = cache.base_graph(entry, 2).graph
        foreign = ConflictGraph(entry.hypergraph, 2).frozen_sorted()
        for graph in (mutable, mutable, foreign, foreign):
            assert oracle(graph) == get_approximator("greedy-first-fit")(graph)
        assert len(calls) == 4 + 4 and cache._solves == {}
        # With the slot empty every input bypasses, even the old view.
        cache.release_base_graph()
        oracle(view)
        assert cache._solves == {}

    def test_emptied_on_miss_clear_and_slot_change(self):
        cache = InstanceCache()
        oracle = cache.memoized(get_approximator("greedy-first-fit"))

        def filled(seed=3, k=2):
            _, view = group_view(cache, seed=seed, k=k)
            oracle(view)
            assert len(cache._solves) == 1

        filled()
        cache.lookup("colorable", 12, 8, 2, 0.5, seed=4)  # a miss
        assert cache._solves == {}
        filled()
        cache.clear()
        assert cache._solves == {}
        filled(seed=5, k=2)
        entry, hit = cache.lookup("colorable", 12, 8, 2, 0.5, seed=5)
        assert hit and len(cache._solves) == 1  # a hit keeps the group's solves
        cache.base_graph(entry, 3)  # a new (entry, k)
        assert cache._solves == {}
        filled(seed=5, k=3)
        cache.release_base_graph()
        assert cache._solves == {}

    def test_entries_never_span_groups_and_go_at_run_end(self, tmp_path, monkeypatch):
        calls = []
        groups = []
        for name in ("greedy-first-fit", "greedy-min-degree"):
            counting_registry_oracle(
                monkeypatch, name, calls,
                lambda _graph: groups.append(INSTANCE_CACHE._base_key),
            )
        spec = dataclasses.replace(
            grouped_spec(), oracles=("greedy-first-fit", "capped:greedy-min-degree")
        )
        sizes = []

        def one_group_only(_row):
            solves = INSTANCE_CACHE._solves
            assert len(solves) == groups.count(INSTANCE_CACHE._base_key)
            sizes.append(len(solves))

        INSTANCE_CACHE.clear()
        stats = run_campaign(spec, tmp_path, workers=0, on_row=one_group_only)
        assert stats.failed == 0
        assert max(sizes) > 0 and len(calls) < spec.num_tasks() * 2
        assert INSTANCE_CACHE._solves == {} and INSTANCE_CACHE._snapshot is None

    def test_kernel_solves_are_traced_and_hits_are_not(self, tmp_path):
        spec = grouped_spec()
        INSTANCE_CACHE.clear()
        run_campaign(spec, tmp_path, workers=0, trace=True)
        spans = [
            r for r in obs.read_trace(tmp_path / obs.TRACE_FILENAME) if r["type"] == "span"
        ]
        solves = [r for r in spans if r["name"] == "oracle_solve"]
        phases = [r for r in spans if r["name"] == "phase"]
        assert 0 < len(solves) < len(phases)
        assert {r["attrs"]["oracle"] for r in solves} == {"greedy-first-fit"}
        by_id = {r["span_id"]: r for r in spans}
        assert all(by_id[r["parent_id"]]["name"] == "phase" for r in solves)
        # Every group's first phase is solved once, for all four of its tasks.
        first = [r for r in phases if r["attrs"]["phase"] == 1]
        assert len(first) == spec.num_tasks()
        assert len(solves) <= len(phases) - len(first) * 3 // 4
