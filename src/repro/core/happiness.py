"""Incidence-driven happy-edge tracking for the reduction's phase loop.

The rebuild path of the Theorem 1.1 reduction re-scans every surviving
hyperedge per phase to find the happy ones, although only edges incident
to a vertex recolored in that phase can possibly become happy (a phase
coloring draws from a phase-private palette, so an edge without recolored
members has no colored member at all under it).  :class:`HappinessTracker`
makes that observation operational: it maintains its own vertex →
incident-edge index across the phases, so committing an independent set
``I_i`` costs ``O(Σ_{v ∈ I_i} deg(v))`` — proportional to the phase's own
work — instead of ``O(Σ_e |e|)``.

The tracker mirrors the lifecycle of the incremental
:class:`~repro.core.conflict_graph.ConflictGraph`: built once per run,
then maintained through :meth:`remove_edges` in time proportional to the
deleted part.  ``run_rebuild`` keeps computing happiness from scratch
(:func:`repro.coloring.conflict_free.happy_edges`), which is the equality
oracle the differential tests in ``tests/fuzz`` assert against.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Set

from repro.coloring.conflict_free import happy_from_incidence
from repro.exceptions import ReductionError
from repro.hypergraph.hypergraph import Hypergraph

Vertex = Hashable
EdgeId = Hashable
Color = Hashable


class HappinessTracker:
    """Happy-edge detection driven by a maintained incidence index.

    Parameters
    ----------
    hypergraph:
        The working hypergraph at the start of the run.  The tracker takes
        a structural snapshot (member sets and the vertex → incident-edge
        index) and from then on is independent of it: callers that remove
        edges from the hypergraph mirror the removal through
        :meth:`remove_edges`, exactly like
        :meth:`~repro.core.conflict_graph.ConflictGraph.remove_hyperedges`.
    """

    def __init__(self, hypergraph: Hypergraph) -> None:
        self._members: Dict[EdgeId, FrozenSet[Vertex]] = {
            e: members for e, members in hypergraph.edges()
        }
        self._incident: Dict[Vertex, Set[EdgeId]] = {}
        for e, members in self._members.items():
            for v in members:
                self._incident.setdefault(v, set()).add(e)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def num_edges(self) -> int:
        """Number of edges the tracker still maintains."""
        return len(self._members)

    def edges_containing(self, v: Vertex) -> Set[EdgeId]:
        """The maintained incident-edge index entry for ``v`` (a copy)."""
        return set(self._incident.get(v, ()))

    # ------------------------------------------------------------------
    # phase protocol
    # ------------------------------------------------------------------
    def commit(self, coloring: Dict[Vertex, Color]) -> Set[EdgeId]:
        """Re-check only the edges incident to the vertices of ``coloring``.

        Returns the edges that are happy under ``coloring`` (treated as a
        phase-private partial coloring: an edge is happy iff some color
        appears on exactly one of its members).  Cost is ``O(Σ_{v colored} deg(v))``; edges not
        incident to a colored vertex are never visited — they cannot be
        happy under a coloring that does not touch them.
        """
        incident = self._incident
        return happy_from_incidence(coloring, lambda v: incident.get(v, ()))

    def remove_edges(self, edge_ids: Iterable[EdgeId]) -> None:
        """Forget the given edges, in time proportional to the deleted part.

        Duplicate ids in the batch are deduplicated (mirroring the
        ``ConflictGraph.remove_hyperedges`` contract), unknown ids raise
        :class:`ReductionError` before any state is modified, and removed
        edges leave the incidence index.
        """
        ids = list(dict.fromkeys(edge_ids))
        unknown = [e for e in ids if e not in self._members]
        if unknown:
            raise ReductionError(
                f"edges not tracked: {sorted(unknown, key=repr)!r}"
            )
        for e in ids:
            for v in self._members.pop(e):
                bucket = self._incident[v]
                bucket.discard(e)
                if not bucket:
                    del self._incident[v]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HappinessTracker(edges={len(self._members)})"
