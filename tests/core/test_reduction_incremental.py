"""End-to-end equality: the incremental phase engine vs. rebuild-per-phase.

``ConflictFreeMulticoloringViaMaxIS.run`` (build/freeze once, alive-mask
views per phase, in-place edge removal) must produce exactly the same
:class:`ReductionResult` as the retained ``run_rebuild`` reference path
(fresh hypergraph restriction + conflict-graph rebuild every phase):
identical phase records (including happy-edge sets and conflict-graph
sizes), identical multicoloring, identical bounds — for every registered
oracle, for λ-capped oracles that force the multi-phase worst-case
regime, and for plain-callable oracles that bypass the frozen fast path.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring import verify_conflict_free_multicoloring
from repro.core import ConflictFreeMulticoloringViaMaxIS
from repro.hypergraph import Hypergraph, colorable_almost_uniform_hypergraph
from repro.maxis import available_approximators, capped_oracle, get_approximator

from tests.conftest import colorable_hypergraphs


def _assert_results_identical(a, b):
    assert a.phases == b.phases  # PhaseRecord dataclass equality: all fields
    assert a.multicoloring == b.multicoloring
    assert (a.k, a.lam, a.phase_bound, a.color_bound) == (
        b.k,
        b.lam,
        b.phase_bound,
        b.color_bound,
    )


class TestEngineEqualsRebuild:
    @pytest.mark.parametrize("oracle_name", sorted(available_approximators()))
    def test_every_registered_oracle(self, oracle_name):
        # Kept small enough that the exponential exact oracle stays fast.
        n, m = (12, 6) if oracle_name == "exact" else (18, 9)
        hypergraph, _ = colorable_almost_uniform_hypergraph(n=n, m=m, k=3, seed=11)
        reduction = ConflictFreeMulticoloringViaMaxIS(
            k=3, approximator=get_approximator(oracle_name), lam=4.0
        )
        _assert_results_identical(
            reduction.run(hypergraph), reduction.run_rebuild(hypergraph)
        )

    @pytest.mark.parametrize("base", ["greedy-first-fit", "greedy-min-degree"])
    def test_capped_oracles_multi_phase_regime(self, base):
        hypergraph, _ = colorable_almost_uniform_hypergraph(n=40, m=25, k=3, seed=23)
        reduction = ConflictFreeMulticoloringViaMaxIS(
            k=3, approximator=capped_oracle(base, 4.0), lam=4.0
        )
        result = reduction.run(hypergraph)
        assert result.num_phases >= 3  # genuinely exercises the engine
        _assert_results_identical(result, reduction.run_rebuild(hypergraph))
        verify_conflict_free_multicoloring(hypergraph, result.multicoloring)

    def test_plain_callable_oracle_bypasses_frozen_fast_path(self):
        hypergraph, _ = colorable_almost_uniform_hypergraph(n=20, m=10, k=3, seed=5)

        calls = []

        def oracle(graph):
            from repro.graphs.graph import Graph

            calls.append(type(graph))
            full = sorted(get_approximator("greedy-first-fit")(graph), key=repr)
            return set(full[: max(1, len(full) // 3)])

        reduction = ConflictFreeMulticoloringViaMaxIS(k=3, approximator=oracle, lam=6.0)
        result = reduction.run(hypergraph)
        # Plain callables keep receiving the mutable Graph, exactly as before.
        from repro.graphs.graph import Graph

        assert calls and all(t is Graph for t in calls)
        _assert_results_identical(result, reduction.run_rebuild(hypergraph))

    def test_graph_only_approximator_works_by_default(self):
        # accepts_frozen defaults to False: a custom approximator written
        # against the pre-incremental mutable-Graph contract (``.vertices``
        # does not exist on a frozen view) must keep working unchanged.
        from repro.maxis import MaxISApproximator

        hypergraph, _ = colorable_almost_uniform_hypergraph(n=16, m=8, k=2, seed=17)

        def graph_only_solve(graph):
            return {min(graph.vertices, key=repr)}

        oracle = MaxISApproximator(name="graph-only-tmp", solve=graph_only_solve)
        assert not oracle.accepts_frozen
        reduction = ConflictFreeMulticoloringViaMaxIS(k=2, approximator=oracle, lam=8.0)
        _assert_results_identical(
            reduction.run(hypergraph), reduction.run_rebuild(hypergraph)
        )

    def test_builtins_opt_into_frozen_fast_path(self):
        assert all(a.accepts_frozen for a in available_approximators().values())

    def test_capped_oracle_honours_fractional_lambda(self):
        from repro.graphs import Graph

        g = Graph(vertices=range(10))  # edgeless: first-fit selects all 10
        assert len(capped_oracle("greedy-first-fit", 2.5)(g)) == 4  # ceil(10/2.5)
        assert len(capped_oracle("greedy-first-fit", 1.5)(g)) == 7  # ceil(10/1.5)

    def test_input_hypergraph_is_not_mutated(self):
        hypergraph, _ = colorable_almost_uniform_hypergraph(n=16, m=8, k=2, seed=3)
        snapshot = hypergraph.copy()
        reduction = ConflictFreeMulticoloringViaMaxIS(
            k=2, approximator=get_approximator("greedy-first-fit"), lam=4.0
        )
        reduction.run(hypergraph)
        assert hypergraph == snapshot

    def test_edgeless_input_produces_no_phases_on_both_paths(self):
        hypergraph = Hypergraph(vertices=[0, 1, 2])
        reduction = ConflictFreeMulticoloringViaMaxIS(
            k=2, approximator=get_approximator("greedy-first-fit"), lam=2.0
        )
        a, b = reduction.run(hypergraph), reduction.run_rebuild(hypergraph)
        _assert_results_identical(a, b)
        assert a.phases == [] and a.total_colors == 0

    @given(
        colorable_hypergraphs(max_n=14, max_m=7, max_k=3),
        st.sampled_from(
            ["greedy-min-degree", "greedy-first-fit", "luby-best-of-5", "clique-cover"]
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_random_instances(self, triple, oracle_name):
        hypergraph, _, k = triple
        reduction = ConflictFreeMulticoloringViaMaxIS(
            k=k, approximator=get_approximator(oracle_name), lam=8.0
        )
        result = reduction.run(hypergraph)
        _assert_results_identical(result, reduction.run_rebuild(hypergraph))
        verify_conflict_free_multicoloring(hypergraph, result.multicoloring)
