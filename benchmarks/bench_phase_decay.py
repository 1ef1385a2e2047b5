"""E3 — Theorem 1.1 phase decay: |E_{i+1}| ≤ (1 − 1/λ)·|E_i| and ≤ ρ phases.

Runs the reduction with oracles of different strength (including capped
ones, :func:`repro.maxis.capped_oracle`, which emulate a genuinely
λ-approximate oracle) and reports, per phase, the observed unhappy-edge
count against the guaranteed geometric envelope, plus the total phase
count against ``ρ = λ·ln(m) + 1``.
"""

from __future__ import annotations

from repro.analysis import decay_curve, effective_lambda, print_table
from repro.core import phase_budget, solve_conflict_free_multicoloring
from repro.maxis import capped_oracle, get_approximator

from benchmarks.conftest import hypergraph_family


def _oracle_suite():
    greedy = get_approximator("greedy-min-degree")
    return [
        ("greedy-min-degree", greedy, 6.0),
        ("luby-best-of-5", get_approximator("luby-best-of-5"), 6.0),
        ("greedy@50%", capped_oracle("greedy-min-degree", 2.0), 8.0),
        ("greedy@20%", capped_oracle("greedy-min-degree", 5.0), 12.0),
    ]


def _run_sweep():
    summary_rows = []
    decay_rows = []
    for label, hypergraph, _, k in hypergraph_family(sizes=((30, 20), (60, 40), (90, 60))):
        m = hypergraph.num_edges()
        for oracle_name, oracle, lam in _oracle_suite():
            result = solve_conflict_free_multicoloring(hypergraph, k=k, approximator=oracle, lam=lam)
            curve = decay_curve(result)
            summary_rows.append(
                [
                    label,
                    oracle_name,
                    lam,
                    round(effective_lambda(result), 2),
                    result.num_phases,
                    phase_budget(lam, m),
                    result.num_phases <= phase_budget(lam, m),
                    curve.respects_guarantee(),
                ]
            )
            if label == "n=90,m=60" and oracle_name == "greedy@20%":
                for i, (observed, guaranteed) in enumerate(zip(curve.observed, curve.guaranteed)):
                    decay_rows.append([i, observed, round(guaranteed, 1)])
    return summary_rows, decay_rows


def test_phase_decay_table(benchmark):
    summary_rows, decay_rows = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)
    print_table(
        "E3  Theorem 1.1: phases used vs. budget rho = lambda*ln(m)+1",
        ["instance", "oracle", "lambda", "effective lambda", "phases", "rho",
         "within rho", "decay within (1-1/lambda)^i"],
        summary_rows,
    )
    print_table(
        "E3  unhappy-edge decay, weakest oracle on the largest instance",
        ["phase", "observed |E_i|", "guaranteed bound"],
        decay_rows,
    )
    # The phase budget must hold for every run; the per-phase decay guarantee
    # is asserted for the oracles whose assumed λ is backed by a worst-case
    # argument on these instances (greedy and its capped variants).  The
    # randomized Luby oracle's row is reported but not asserted, since its
    # assumed λ = 6 is a heuristic choice rather than a proven bound.
    assert all(row[6] for row in summary_rows)
    assert all(row[7] for row in summary_rows if row[1] != "luby-best-of-5")
