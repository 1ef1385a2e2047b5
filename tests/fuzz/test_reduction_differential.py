"""End-to-end differential fuzzing: incremental engine vs rebuild path.

120 seeded corpus instances (hypergraph families × k × oracle) through
``assert_equivalent_run`` — the one helper every kernel rewrite must keep
green; it covers runs forked from a shared base conflict graph too.  The
same seeds also run every registry oracle, plain and λ-capped, through
one task group's solve memo and compare each result with the
un-memoized engine and the rebuild path.  The pytest id carries the
reproducing seed.
"""

from __future__ import annotations

import pytest

from repro.core.conflict_graph import ConflictGraph
from repro.core.reduction import ConflictFreeMulticoloringViaMaxIS
from repro.hypergraph.io import reduction_result_to_dict
from repro.maxis import available_approximators
from repro.runtime.tasks import CAPPED_PREFIX, CachedInstance, InstanceCache, resolve_oracle
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


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_memoized_group_equals_unmemoized_and_rebuild(seed):
    """Forks of one base sharing one solve memo reproduce every plain run."""
    instance = make_instance(seed)
    h, k = instance.hypergraph, instance.k
    cache = InstanceCache()
    base = cache.base_graph(CachedInstance(("corpus", seed), h), k)
    before = conflict_graph_snapshot(base)
    phases = 0
    for name in sorted(available_approximators()):
        for oracle in (name, CAPPED_PREFIX + name):
            for lam in (2.0, 4.0):
                ctx = f"[{instance.label} memo oracle={oracle} lam={lam:g}]"
                memoized = ConflictFreeMulticoloringViaMaxIS(
                    k=k, approximator=resolve_oracle(oracle, lam, memo=cache), lam=lam
                ).run(h, base=base)
                plain = ConflictFreeMulticoloringViaMaxIS(
                    k=k, approximator=resolve_oracle(oracle, lam), lam=lam
                )
                result = reduction_result_to_dict(memoized)
                assert result == reduction_result_to_dict(plain.run(h, base=base)), (
                    f"{ctx} memoized run differs from the un-memoized engine"
                )
                assert result == reduction_result_to_dict(plain.run_rebuild(h)), (
                    f"{ctx} memoized run differs from the rebuild path"
                )
                phases += memoized.num_phases
    assert conflict_graph_snapshot(base) == before, (
        f"[{instance.label}] memoized runs disturbed the base graph"
    )
    assert len(cache._solves) <= phases // 2, (
        f"[{instance.label}] the memo shared no solves"
    )
