"""Tests for the conflict graph construction G_k (Section 2 of the paper)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConflictGraph, ConflictVertex, build_conflict_graph, conflict_vertices
from repro.core.conflict_graph import classify_conflict_edge
from repro.exceptions import ReductionError
from repro.hypergraph import Hypergraph, colorable_almost_uniform_hypergraph

from tests.conftest import hypergraphs


@pytest.fixture
def tiny_hypergraph() -> Hypergraph:
    """Two overlapping edges: e0 = {0, 1}, e1 = {1, 2}."""
    return Hypergraph.from_edge_list([[0, 1], [1, 2]])


class TestVertexSet:
    def test_vertex_count_formula(self, tiny_hypergraph):
        cg = ConflictGraph(tiny_hypergraph, k=2)
        assert cg.num_vertices() == 2 * (2 + 2)
        assert cg.num_vertices() == cg.expected_num_vertices()

    def test_triples_enumeration(self, tiny_hypergraph):
        triples = conflict_vertices(tiny_hypergraph, 2)
        assert ConflictVertex(0, 0, 1) in triples
        assert ConflictVertex(1, 2, 2) in triples
        # Vertex 1 appears in both edges, so it contributes 2 * k triples.
        assert sum(1 for t in triples if t.vertex == 1) == 4

    def test_invalid_k_rejected(self, tiny_hypergraph):
        with pytest.raises(ReductionError):
            ConflictGraph(tiny_hypergraph, k=0)
        with pytest.raises(ReductionError):
            conflict_vertices(tiny_hypergraph, 0)

    def test_triples_of_edge_and_vertex(self, tiny_hypergraph):
        cg = ConflictGraph(tiny_hypergraph, k=2)
        assert len(cg.triples_of_edge(0)) == 2 * 2
        assert len(cg.triples_of_vertex(1)) == 2 * 2
        assert all(t.edge == 0 for t in cg.triples_of_edge(0))
        assert all(t.vertex == 1 for t in cg.triples_of_vertex(1))

    def test_build_conflict_graph_convenience(self, tiny_hypergraph):
        cg = build_conflict_graph(tiny_hypergraph, 2)
        assert isinstance(cg, ConflictGraph)


class TestEdgeRelations:
    def test_e_vertex_joins_same_vertex_different_colors(self, tiny_hypergraph):
        cg = ConflictGraph(tiny_hypergraph, k=2)
        a = ConflictVertex(0, 1, 1)
        b = ConflictVertex(1, 1, 2)
        assert "vertex" in cg.edge_kinds(a, b)
        assert cg.graph.has_edge(a, b)

    def test_e_vertex_same_color_not_vertex_related(self, tiny_hypergraph):
        cg = ConflictGraph(tiny_hypergraph, k=2)
        a = ConflictVertex(0, 1, 1)
        b = ConflictVertex(1, 1, 1)
        assert "vertex" not in cg.edge_kinds(a, b)

    def test_e_edge_joins_triples_of_same_hyperedge(self, tiny_hypergraph):
        cg = ConflictGraph(tiny_hypergraph, k=2)
        a = ConflictVertex(0, 0, 1)
        b = ConflictVertex(0, 1, 2)
        assert "edge" in cg.edge_kinds(a, b)
        assert cg.graph.has_edge(a, b)

    def test_e_edge_makes_each_hyperedge_a_clique(self, tiny_hypergraph):
        cg = ConflictGraph(tiny_hypergraph, k=2)
        triples = cg.triples_of_edge(0)
        assert cg.graph.is_clique(triples)

    def test_e_color_joins_same_color_across_shared_edge(self, tiny_hypergraph):
        cg = ConflictGraph(tiny_hypergraph, k=2)
        # Vertices 0 and 1 are both in hyperedge 0, so (e0, 0, c) ~ (e1, 1, c).
        a = ConflictVertex(0, 0, 1)
        b = ConflictVertex(1, 1, 1)
        assert "color" in cg.edge_kinds(a, b)
        assert cg.graph.has_edge(a, b)

    def test_e_color_requires_distinct_vertices(self, tiny_hypergraph):
        # Same vertex, same color, different edges: NOT adjacent (the paper's
        # Lemma 2.1(a) proof requires u != v; see classify_conflict_edge).
        cg = ConflictGraph(tiny_hypergraph, k=2)
        a = ConflictVertex(0, 1, 1)
        b = ConflictVertex(1, 1, 1)
        assert cg.edge_kinds(a, b) == set()
        assert not cg.graph.has_edge(a, b)

    def test_e_color_requires_witnessing_edge_among_the_two(self):
        # Vertices 0 and 2 never share a hyperedge; their same-color triples
        # must not be adjacent even though both share edges with vertex 1.
        h = Hypergraph.from_edge_list([[0, 1], [1, 2]])
        cg = ConflictGraph(h, k=1)
        a = ConflictVertex(0, 0, 1)
        b = ConflictVertex(1, 2, 1)
        assert cg.edge_kinds(a, b) == set()
        assert not cg.graph.has_edge(a, b)

    def test_non_adjacent_triples(self, tiny_hypergraph):
        cg = ConflictGraph(tiny_hypergraph, k=2)
        a = ConflictVertex(0, 0, 1)
        b = ConflictVertex(1, 2, 2)
        assert cg.edge_kinds(a, b) == set()
        assert not cg.graph.has_edge(a, b)

    def test_classify_self_pair_is_empty(self, tiny_hypergraph):
        a = ConflictVertex(0, 0, 1)
        assert classify_conflict_edge(a, a, tiny_hypergraph) == set()

    def test_relations_can_overlap(self, tiny_hypergraph):
        cg = ConflictGraph(tiny_hypergraph, k=2)
        # Same hyperedge and same color: both E_edge and E_color apply.
        a = ConflictVertex(0, 0, 1)
        b = ConflictVertex(0, 1, 1)
        kinds = cg.edge_kinds(a, b)
        assert "edge" in kinds and "color" in kinds


class TestStructuralInvariants:
    def test_every_graph_edge_is_classified(self, colorable_instance):
        hypergraph, _ = colorable_instance
        cg = ConflictGraph(hypergraph, k=3)
        for a, b in cg.graph.edges():
            assert cg.edge_kinds(a, b), f"edge ({a}, {b}) has no defining relation"

    def test_host_assignment_maps_each_triple_to_its_vertex(self, colorable_instance):
        hypergraph, _ = colorable_instance
        cg = ConflictGraph(hypergraph, k=2)
        for triple, host in cg.host_assignment().items():
            assert host == triple.vertex

    @given(hypergraphs(max_n=8, max_m=5, max_edge=3), st.integers(min_value=1, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_adjacency_matches_classification_exactly(self, h, k):
        cg = ConflictGraph(h, k)
        triples = sorted(cg.graph.vertices, key=repr)
        for i, a in enumerate(triples):
            for b in triples[i + 1:]:
                expected = bool(classify_conflict_edge(a, b, h))
                assert cg.graph.has_edge(a, b) == expected

    @given(hypergraphs(max_n=10, max_m=6, max_edge=4), st.integers(min_value=1, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_vertex_count_formula_property(self, h, k):
        cg = ConflictGraph(h, k)
        assert cg.num_vertices() == k * h.total_edge_size()

    def test_conflict_graph_of_edgeless_hypergraph_is_empty(self):
        h = Hypergraph(vertices=[0, 1, 2])
        cg = ConflictGraph(h, k=3)
        assert cg.num_vertices() == 0
        assert cg.num_edges() == 0
