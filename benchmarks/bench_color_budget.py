"""E4 — Theorem 1.1 color budget: the multicoloring uses at most k·ρ colors.

For the same oracle sweep as E3, report the number of colors actually used
by the produced conflict-free multicoloring, the per-vertex color count,
and the theoretical budget ``k·ρ``; additionally check the budget against
the polylog reference envelope of :func:`repro.core.bounds.is_polylog`.
"""

from __future__ import annotations

from repro.analysis import print_table
from repro.core import color_budget, is_polylog, solve_conflict_free_multicoloring
from repro.maxis import capped_oracle, get_approximator

from benchmarks.conftest import hypergraph_family


def _run_sweep():
    greedy = get_approximator("greedy-min-degree")
    oracles = [
        ("greedy-min-degree", greedy, 6.0),
        ("greedy@50%", capped_oracle("greedy-min-degree", 2.0), 8.0),
        ("greedy@20%", capped_oracle("greedy-min-degree", 5.0), 12.0),
    ]
    rows = []
    for label, hypergraph, _, k in hypergraph_family():
        n = hypergraph.num_vertices()
        m = hypergraph.num_edges()
        for oracle_name, oracle, lam in oracles:
            result = solve_conflict_free_multicoloring(hypergraph, k=k, approximator=oracle, lam=lam)
            budget = color_budget(k, lam, m)
            rows.append(
                [
                    label,
                    oracle_name,
                    k,
                    result.num_phases,
                    result.total_colors,
                    budget,
                    result.multicoloring.max_colors_per_vertex(),
                    result.total_colors <= budget,
                    is_polylog(budget, n, exponent=3.0, constant=32.0),
                ]
            )
    return rows


def test_color_budget_table(benchmark):
    rows = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)
    print_table(
        "E4  Theorem 1.1: colors used vs. budget k*rho",
        ["instance", "oracle", "k", "phases", "colors used", "budget k*rho",
         "max colors/vertex", "within budget", "budget polylog(n)"],
        rows,
    )
    assert all(row[7] for row in rows)
    assert all(row[8] for row in rows)
