"""End-to-end differential fuzzing: incremental engine vs rebuild path.

120 seeded corpus instances (hypergraph families × k × oracle) through
``assert_equivalent_run`` — the one helper every kernel rewrite must keep
green; it covers runs forked from a shared base conflict graph too.  The
pytest id carries the reproducing seed.
"""

from __future__ import annotations

import pytest

from repro.core.conflict_graph import ConflictGraph
from repro.core.reduction import ConflictFreeMulticoloringViaMaxIS
from tests.fuzz.corpus import (
    FAMILIES,
    ORACLES,
    assert_equivalent_run,
    conflict_graph_snapshot,
    corpus,
    make_instance,
    make_oracle,
)

SEED_COUNT = 120


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_run_equals_run_rebuild(seed):
    assert_equivalent_run(make_instance(seed))


def test_corpus_covers_every_family_and_oracle():
    """The seed range actually exercises all families and oracles."""
    instances = corpus(SEED_COUNT)
    assert {i.family for i in instances} == set(FAMILIES)
    assert {i.oracle_name for i in instances} == set(ORACLES)


def test_corpus_is_deterministic():
    a = make_instance(7)
    b = make_instance(7)
    assert a.family == b.family and a.k == b.k and a.oracle_name == b.oracle_name
    assert a.hypergraph == b.hypergraph


def test_edgeless_instance_runs_empty():
    """Edgeless inputs run zero phases identically on both paths."""
    from repro.hypergraph import Hypergraph
    from tests.fuzz.corpus import Instance

    instance = Instance(
        seed=-1,
        family="edgeless",
        hypergraph=Hypergraph(vertices=range(5)),
        k=2,
        oracle_name="greedy-first-fit",
    )
    result = assert_equivalent_run(instance)
    assert result.phases == []
    assert result.multicoloring.num_colors() == 0


@pytest.mark.parametrize("seed", range(0, SEED_COUNT, 3))
def test_base_survives_forked_runs(seed):
    """Forked runs of every oracle leave the shared base equal to a fresh build."""
    instance = make_instance(seed)
    h = instance.hypergraph
    base = ConflictGraph(h, instance.k)
    for oracle_name in ORACLES:
        reduction = ConflictFreeMulticoloringViaMaxIS(
            k=instance.k, approximator=make_oracle(oracle_name), lam=2.0
        )
        reduction.run(h, base=base)
    assert conflict_graph_snapshot(base) == conflict_graph_snapshot(
        ConflictGraph(h, instance.k)
    ), f"[{instance.label}] forked runs disturbed the base graph"
