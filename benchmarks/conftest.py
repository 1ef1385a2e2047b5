"""Shared workload builders for the benchmark harness.

Each ``bench_*.py`` module regenerates one paper-claim experiment
(E1–E9, run together by ``make paper``).  The fixtures here provide the
hypergraph / graph families used across experiments so that all tables are
computed on the same workloads.
"""

from __future__ import annotations

import pytest

# The family builders are shared with the perf harness (`repro bench`);
# they live in repro.bench so both consumers time identical workloads.
from repro.bench import graph_family, hypergraph_family, interval_family  # noqa: F401
from repro.hypergraph import colorable_almost_uniform_hypergraph


def pytest_terminal_summary(terminalreporter):
    """Re-emit every reproduction table after the run.

    The whole point of the harness is the printed tables (E1–E9); pytest's
    output capture would swallow them on passing tests, so they are collected
    by :func:`repro.analysis.tables.print_table` and replayed here, where they
    end up in ``bench_output.txt``.
    """
    from repro.analysis.tables import consume_table_log

    text = consume_table_log()
    if text:
        terminalreporter.write_sep("=", "reproduction tables (E1–E9, `make paper`)")
        terminalreporter.write(text + "\n")


@pytest.fixture(scope="session")
def small_colorable_instance():
    """One small instance shared by the lemma benchmarks (exact α is computable)."""
    hypergraph, planted = colorable_almost_uniform_hypergraph(n=18, m=9, k=2, epsilon=0.5, seed=77)
    return hypergraph, planted, 2
