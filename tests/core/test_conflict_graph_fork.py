"""``ConflictGraph.fork`` and reductions that start from a shared base graph.

A task group reduces one hypergraph with one ``k`` under several oracles
and λ values; it builds ``G_k`` once and hands every reduction a fork.
These tests pin what makes that safe: a fork shares only immutable
snapshots, deletions on a fork never reach the base, a forked run equals
a run on its own build, and a base that does not belong to the input is
refused.
"""

from __future__ import annotations

import random

import pytest

from repro.core import ConflictGraph
from repro.core.reduction import ConflictFreeMulticoloringViaMaxIS
from repro.exceptions import ReductionError
from repro.hypergraph import Hypergraph, colorable_almost_uniform_hypergraph
from repro.maxis import capped_oracle, get_approximator

from tests.core.test_incremental_conflict_graph import _assert_matches_rebuild
from tests.fuzz.corpus import conflict_graph_snapshot


def _labelled_hypergraph() -> Hypergraph:
    """String labels whose ``repr`` order differs from the canonical order."""
    h = Hypergraph(vertices=["v10", "v2", "v9", "v1", "v30"])
    h.add_edge(["v10", "v2"], edge_id="e10")
    h.add_edge(["v2", "v9", "v1"], edge_id="e2")
    h.add_edge(["v30", "v10", "v1"], edge_id="e9")
    h.add_edge(["v9", "v30"], edge_id="e1")
    return h


def _colorable(seed: int) -> Hypergraph:
    h, _planted = colorable_almost_uniform_hypergraph(n=24, m=16, k=2, epsilon=0.5, seed=seed)
    return h


class TestFork:
    def test_fork_shares_everything_except_the_edge_table(self):
        h = _colorable(1)
        base = ConflictGraph(h, 2)
        working = h.copy()
        fork = base.fork(working)
        assert fork.hypergraph is working and base.hypergraph is h
        assert fork._sorted_full is base._sorted_full is not None
        assert fork._blocks == base._blocks
        assert fork._blocks is not base._blocks
        assert vars(fork).keys() == vars(base).keys()
        for name, value in vars(base).items():
            if name not in ("hypergraph", "_blocks"):
                assert getattr(fork, name) is value, name

    @pytest.mark.parametrize("make", [_labelled_hypergraph, lambda: _colorable(2)])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fork_deletions_track_rebuilds_and_spare_the_base(self, make, k):
        h = make()
        base = ConflictGraph(h, k)
        fresh = conflict_graph_snapshot(ConflictGraph(h, k))
        rng = random.Random(k)
        for run in range(3):
            working = h.copy()
            fork = base.fork(working)
            step = 0
            while working.num_edges() > 0:
                step += 1
                ids = working.edge_ids
                batch = rng.sample(ids, rng.randint(1, len(ids)))
                working.remove_edges(batch)
                fork.remove_hyperedges(batch)
                _assert_matches_rebuild(fork, working, k, f"run {run} step {step}")
                fork_view = conflict_graph_snapshot(fork)[3]
                assert fork_view == conflict_graph_snapshot(ConflictGraph(working, k))[3]
            assert conflict_graph_snapshot(base) == fresh, f"run {run} disturbed the base"

    def test_fork_of_materialized_graph_does_not_share_the_mutable_graph(self):
        h = _colorable(3)
        base = ConflictGraph(h, 2)
        materialized = base.graph
        fork = base.fork(h.copy())
        assert fork.graph == materialized
        assert fork.graph is not materialized


class TestRunWithBase:
    ORACLES = {
        "registry": lambda: get_approximator("greedy-min-degree"),
        "plain-callable": lambda: capped_oracle("greedy-first-fit", lam=2.0),
    }

    @pytest.mark.parametrize("oracle", sorted(ORACLES))
    def test_forked_run_equals_run_and_rebuild(self, oracle):
        h = _labelled_hypergraph()
        for k in (1, 2, 3):
            reduction = ConflictFreeMulticoloringViaMaxIS(
                k=k, approximator=self.ORACLES[oracle](), lam=2.0
            )
            forked = reduction.run(h, base=ConflictGraph(h, k))
            own = reduction.run(h)
            reference = reduction.run_rebuild(h)
            assert forked.multicoloring == own.multicoloring == reference.multicoloring
            assert forked.phases == own.phases == reference.phases

    def test_base_survives_several_runs(self):
        h = _colorable(4)
        base = ConflictGraph(h, 2)
        fresh = conflict_graph_snapshot(ConflictGraph(h, 2))
        results = []
        for oracle in ("greedy-first-fit", "greedy-min-degree", "luby-batch-of-8"):
            for lam in (2.0, 4.0):
                reduction = ConflictFreeMulticoloringViaMaxIS(
                    k=2, approximator=get_approximator(oracle), lam=lam
                )
                results.append(reduction.run(h, base=base).phases)
                assert results[-1] == reduction.run(h).phases
        assert conflict_graph_snapshot(base) == fresh

    def test_mismatched_k_is_refused(self):
        h = _colorable(5)
        reduction = ConflictFreeMulticoloringViaMaxIS(
            k=2, approximator=get_approximator("greedy-first-fit"), lam=2.0
        )
        with pytest.raises(ReductionError, match="k=3"):
            reduction.run(h, base=ConflictGraph(h, 3))

    def test_base_of_another_hypergraph_object_is_refused(self):
        h = _colorable(5)
        reduction = ConflictFreeMulticoloringViaMaxIS(
            k=2, approximator=get_approximator("greedy-first-fit"), lam=2.0
        )
        # Equal content is not enough: the base must be built on ``h`` itself.
        with pytest.raises(ReductionError, match="different hypergraph"):
            reduction.run(h, base=ConflictGraph(h.copy(), 2))

    def test_base_with_unmirrored_removals_is_refused(self):
        h = _colorable(5)
        base = ConflictGraph(h, 2)
        base.remove_hyperedges(h.edge_ids[:3])
        reduction = ConflictFreeMulticoloringViaMaxIS(
            k=2, approximator=get_approximator("greedy-first-fit"), lam=2.0
        )
        with pytest.raises(ReductionError, match="no longer matches"):
            reduction.run(h, base=base)

    def test_edgeless_instance_runs_no_phase(self):
        h = Hypergraph(vertices=range(4))
        reduction = ConflictFreeMulticoloringViaMaxIS(
            k=2, approximator=get_approximator("greedy-first-fit"), lam=2.0
        )
        result = reduction.run(h, base=ConflictGraph(h, 2))
        assert result.phases == []
        assert result.multicoloring.num_colors() == 0
