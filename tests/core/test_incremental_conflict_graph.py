"""Property tests: incrementally maintained conflict graph vs. rebuilds.

The reduction's phase engine maintains one :class:`ConflictGraph` across
phases via :meth:`ConflictGraph.remove_hyperedges` instead of rebuilding
``G^i_k`` from scratch.  These tests simulate random phase histories on
~50 random hypergraphs for every palette size k ∈ {1, 2, 3} and, after
*every* deletion batch, compare the maintained instance against a
from-scratch ``ConflictGraph(H_i, k)`` rebuild on three axes:

* the vertex set and interning order (canonical triple order),
* the full edge set (mutable graph equality + frozen bitsets), and
* the maintained edge table: exactly the surviving hyperedges, each
  mapped to the triple range that holds its triples.

The ``(v, c)`` buckets that drive the E_vertex/E_color emission are
build-time locals, so they are covered by the rebuild comparison itself.
"""

from __future__ import annotations

import random

import pytest

from repro.core import ConflictGraph
from repro.core.conflict_graph import conflict_vertices
from repro.exceptions import ReductionError
from repro.graphs.indexed import iter_bits
from repro.hypergraph import Hypergraph

N_INSTANCES = 50


def _random_hypergraph(rng: random.Random) -> Hypergraph:
    n = rng.randint(1, 10)
    m = rng.randint(1, 7)
    h = Hypergraph(vertices=range(n))
    for i in range(m):
        size = rng.randint(1, min(4, n))
        h.add_edge(rng.sample(range(n), size), edge_id=i)
    return h


def _instances():
    rng = random.Random(20260728)
    return [(i, _random_hypergraph(rng), rng) for i in range(N_INSTANCES)]


def _assert_matches_rebuild(cg: ConflictGraph, h: Hypergraph, k: int, ctx: str) -> None:
    rebuilt = ConflictGraph(h, k)
    # Vertex set, canonical interning order, closed-form count.
    assert list(cg.graph) == conflict_vertices(h, k), f"{ctx}: interning order"
    assert cg.num_vertices() == rebuilt.num_vertices() == k * h.total_edge_size(), ctx
    # Edge set (mutable graph equality is label-based and order-free).
    assert cg.graph == rebuilt.graph, f"{ctx}: edge set"
    assert cg.num_edges() == rebuilt.num_edges(), ctx
    # Frozen view: alive subsequence of the original table == fresh table,
    # with identical masked adjacency under the order-preserving id map.
    view, fresh = cg.frozen(), rebuilt.frozen()
    ids = list(view.vertex_ids())
    assert [view.label(i) for i in ids] == list(fresh.labels()), f"{ctx}: frozen labels"
    pos = {orig: p for p, orig in enumerate(ids)}
    for p, orig in enumerate(ids):
        mapped = {pos[j] for j in iter_bits(view.neighbor_bitset(orig))}
        assert mapped == set(iter_bits(fresh.neighbor_bitset(p))), f"{ctx}: row {p}"
    # Edge table: the surviving ids, each ranging over its own triples.
    assert list(cg._blocks) == list(h.edge_ids), f"{ctx}: edge table"
    for e, (base, size) in cg._blocks.items():
        assert cg._triples[base:base + size] == cg.triples_of_edge(e), f"{ctx}: block {e!r}"


@pytest.mark.parametrize("k", [1, 2, 3])
def test_incremental_deletions_match_rebuilds(k):
    for idx, h, rng in _instances():
        working = h.copy()
        cg = ConflictGraph(working, k)
        _assert_matches_rebuild(cg, working, k, f"instance {idx} (k={k}) initial")
        step = 0
        while working.num_edges() > 0:
            step += 1
            ids = working.edge_ids
            batch = rng.sample(ids, rng.randint(1, len(ids)))
            working.remove_edges(batch)
            cg.remove_hyperedges(batch)
            _assert_matches_rebuild(
                cg, working, k, f"instance {idx} (k={k}) step {step}"
            )


def _view_rows(view):
    return [(view.label(i), view.neighbor_bitset(i)) for i in view.vertex_ids()]


def test_remove_unknown_edge_is_rejected_and_state_preserved():
    h = Hypergraph.from_edge_list([[0, 1], [1, 2]])
    cg = ConflictGraph(h, 2)
    cg.frozen_sorted()  # materialize both alive masks before the refusal
    before = (
        dict(cg._blocks), cg.num_edges(),
        _view_rows(cg.frozen()), _view_rows(cg.frozen_sorted()),
    )
    with pytest.raises(ReductionError):
        cg.remove_hyperedges([0, "missing"])
    after = (
        dict(cg._blocks), cg.num_edges(),
        _view_rows(cg.frozen()), _view_rows(cg.frozen_sorted()),
    )
    assert after == before
    assert cg.num_vertices() == 2 * h.total_edge_size()


def test_remove_with_duplicate_ids_behaves_like_single_removal():
    h = Hypergraph.from_edge_list([[0, 1, 2], [2, 3], [1, 3]])
    cg = ConflictGraph(h, 2)
    cg.remove_hyperedges([1, 1, 1])
    h.remove_edge(1)
    rebuilt = ConflictGraph(h, 2)
    assert cg.graph == rebuilt.graph
    assert cg.num_edges() == rebuilt.num_edges()
    assert list(cg._blocks) == list(rebuilt._blocks) == [0, 2]


def test_remove_all_edges_empties_the_graph():
    h = Hypergraph.from_edge_list([[0, 1, 2], [2, 3]])
    cg = ConflictGraph(h, 3)
    cg.remove_hyperedges([0, 1])
    h.remove_edges([0, 1])
    assert cg.num_vertices() == 0
    assert cg.num_edges() == 0
    assert cg.graph.num_vertices() == 0
    assert cg._blocks == {}


def test_frozen_sorted_view_tracks_deletions():
    """frozen_sorted() after deletions == freeze_sorted of a fresh rebuild."""
    from repro.graphs.indexed import freeze_sorted

    h = Hypergraph.from_edge_list([[0, 1, 2], [2, 3], [1, 3, 4], [0, 4]])
    cg = ConflictGraph(h, 2)
    cg.frozen_sorted()  # materialize before deleting: masks must track
    cg.remove_hyperedges([1, 3])
    h.remove_edges([1, 3])
    view = cg.frozen_sorted()
    reference = freeze_sorted(ConflictGraph(h, 2).graph)
    ids = list(view.vertex_ids())
    assert [view.label(i) for i in ids] == list(reference.labels())
    pos = {orig: p for p, orig in enumerate(ids)}
    for p, orig in enumerate(ids):
        mapped = {pos[j] for j in iter_bits(view.neighbor_bitset(orig))}
        assert mapped == set(iter_bits(reference.neighbor_bitset(p)))


def test_frozen_sorted_created_after_deletions():
    h = Hypergraph.from_edge_list([[0, 1, 2], [2, 3], [1, 3, 4]])
    cg = ConflictGraph(h, 2)
    cg.remove_hyperedges([0])
    h.remove_edges([0])
    from repro.graphs.indexed import freeze_sorted

    view = cg.frozen_sorted()
    reference = freeze_sorted(ConflictGraph(h, 2).graph)
    assert [view.label(i) for i in view.vertex_ids()] == list(reference.labels())
    assert view.num_edges() == reference.num_edges()
