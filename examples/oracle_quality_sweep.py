#!/usr/bin/env python3
"""Sweep MaxIS oracles through the reduction and study the phase decay.

Theorem 1.1's analysis predicts that a λ-approximate oracle removes at
least a 1/λ fraction of the surviving hyperedges per phase, hence the
unhappy-edge count decays geometrically and at most ρ = λ·ln(m) + 1 phases
are needed.  This example runs the reduction with oracles of different
strength — including deliberately weakened ones
(:func:`repro.maxis.capped_oracle`) — and reports the observed decay, the
effective λ, and the phase/color budgets.

Run with:  python examples/oracle_quality_sweep.py
"""

from __future__ import annotations

from repro import colorable_almost_uniform_hypergraph, get_approximator, solve_conflict_free_multicoloring
from repro.analysis import decay_curve, effective_lambda, format_records
from repro.core import phase_budget
from repro.maxis import capped_oracle


def main() -> None:
    hypergraph, _ = colorable_almost_uniform_hypergraph(n=60, m=48, k=4, seed=23)
    m = hypergraph.num_edges()
    print(f"instance: n={hypergraph.num_vertices()}, m={m}, k=4\n")

    greedy = get_approximator("greedy-min-degree")
    oracles = [
        ("greedy-min-degree", greedy, 6.0),
        ("luby-best-of-5", get_approximator("luby-best-of-5"), 6.0),
        ("clique-cover", get_approximator("clique-cover"), 6.0),
        ("greedy weakened to 50%", capped_oracle("greedy-min-degree", 2.0), 8.0),
        ("greedy weakened to 20%", capped_oracle("greedy-min-degree", 5.0), 12.0),
    ]

    rows = []
    for name, oracle, lam in oracles:
        result = solve_conflict_free_multicoloring(hypergraph, k=4, approximator=oracle, lam=lam)
        curve = decay_curve(result)
        rows.append(
            {
                "oracle": name,
                "assumed lambda": lam,
                "effective lambda": round(effective_lambda(result), 2),
                "phases": result.num_phases,
                "phase budget rho": phase_budget(lam, m),
                "colors": result.total_colors,
                "color budget": result.color_bound,
                "decay respects (1-1/lambda)^i": curve.respects_guarantee(),
            }
        )
    print(format_records(rows))

    print("\nunhappy-edge decay for the weakest oracle (observed vs. guaranteed):")
    weakest = solve_conflict_free_multicoloring(
        hypergraph, k=4, approximator=capped_oracle("greedy-min-degree", 5.0), lam=12.0
    )
    curve = decay_curve(weakest)
    decay_rows = [
        {"phase": i, "observed |E_i|": obs, "guaranteed bound": round(bound, 1)}
        for i, (obs, bound) in enumerate(zip(curve.observed, curve.guaranteed))
    ]
    print(format_records(decay_rows))


if __name__ == "__main__":
    main()
