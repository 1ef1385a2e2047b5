"""Phase-decay analysis of reduction runs (benchmarks E3/E4).

The analysis of Theorem 1.1 predicts geometric decay of the unhappy-edge
count: ``|E_{i+1}| ≤ (1 − 1/λ)·|E_i|``.  The helpers here turn a
:class:`~repro.core.reduction.ReductionResult` into the decay curve, fit
the observed per-phase removal rate, and compare phase/color counts to the
theoretical budgets — the decay curve feeds the E3 table of
``make paper``, the per-phase rows are what ``repro reduce`` prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.core.bounds import expected_remaining_edges
from repro.core.reduction import ReductionResult
from repro.exceptions import ReproError


@dataclass(frozen=True)
class DecayCurve:
    """Observed vs. guaranteed unhappy-edge counts per phase.

    Attributes
    ----------
    observed:
        ``[|E_1|, |E_2|, …]`` including the final count.
    guaranteed:
        The bound ``(1 − 1/λ)^i · m`` for the same indices.
    """

    observed: List[int]
    guaranteed: List[float]

    def respects_guarantee(self) -> bool:
        """Whether the observed curve never exceeds the guaranteed curve."""
        return all(o <= g + 1e-9 for o, g in zip(self.observed, self.guaranteed))


def decay_curve(result: ReductionResult) -> DecayCurve:
    """Build the :class:`DecayCurve` of a reduction run."""
    observed = result.remaining_edges_series()
    if not observed:
        return DecayCurve(observed=[], guaranteed=[])
    m = observed[0]
    guaranteed = [expected_remaining_edges(m, result.lam, i) for i in range(len(observed))]
    return DecayCurve(observed=observed, guaranteed=guaranteed)


def observed_removal_fractions(result: ReductionResult) -> List[float]:
    """Return the per-phase fraction of surviving edges that became happy."""
    return [p.removal_fraction for p in result.phases if p.edges_before > 0]


def effective_lambda(result: ReductionResult) -> float:
    """Estimate the approximation factor the oracle *effectively* achieved.

    The analysis gives per-phase removal fraction ``≥ 1/λ``; inverting the
    smallest observed removal fraction therefore upper-bounds the λ the
    oracle behaved like over the whole run.  Returns ``1.0`` for runs with
    no non-trivial phase.
    """
    fractions = [f for f in observed_removal_fractions(result) if f > 0]
    if not fractions:
        return 1.0
    return 1.0 / min(fractions)


def phase_summary(result: ReductionResult) -> List[Dict[str, float]]:
    """Return one row per phase with the quantities ``repro reduce`` prints."""
    rows: List[Dict[str, float]] = []
    for p in result.phases:
        rows.append(
            {
                "phase": float(p.phase),
                "edges_before": float(p.edges_before),
                "is_size": float(p.independent_set_size),
                "removed": float(p.removed),
                "edges_after": float(p.edges_after),
                "removal_fraction": p.removal_fraction,
                "conflict_graph_vertices": float(p.conflict_graph_vertices),
                "conflict_graph_edges": float(p.conflict_graph_edges),
            }
        )
    return rows


def run_summary(result: ReductionResult) -> Dict[str, float]:
    """Return the headline numbers of a run (phases, colors, bounds, effective λ)."""
    return {
        "phases": float(result.num_phases),
        "phase_bound": float(result.phase_bound),
        "total_colors": float(result.total_colors),
        "color_bound": float(result.color_bound),
        "effective_lambda": effective_lambda(result),
        "assumed_lambda": result.lam,
        "within_phase_bound": 1.0 if result.within_phase_bound() else 0.0,
        "within_color_bound": 1.0 if result.within_color_bound() else 0.0,
    }


def geometric_fit_rate(observed: List[int]) -> float:
    """Fit a geometric decay rate ``r`` to an observed edge-count series.

    Returns the average of the per-step ratios ``|E_{i+1}| / |E_i|``
    (ignoring steps that start at zero).  A rate below ``1 − 1/λ`` means
    the run decayed faster than the theory requires.
    """
    if len(observed) < 2:
        raise ReproError("need at least two points to fit a decay rate")
    ratios = [
        observed[i + 1] / observed[i]
        for i in range(len(observed) - 1)
        if observed[i] > 0
    ]
    if not ratios:
        return 0.0
    return sum(ratios) / len(ratios)


def phases_needed_at_rate(m: int, rate: float) -> int:
    """Number of phases needed to drop below one edge at a constant decay ``rate``."""
    if not 0 <= rate < 1:
        raise ReproError(f"rate must lie in [0, 1), got {rate}")
    if m <= 1:
        return 1 if m == 1 else 0
    if rate == 0:
        return 1
    return math.ceil(math.log(m) / -math.log(rate))
