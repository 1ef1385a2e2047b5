"""Machine-readable experiment records.

The benchmark harness prints plain-text tables; downstream users often want
the same data as JSON (to plot decay curves, compare oracles across
machines, or archive the ``make paper`` tables).  This module provides a
small record model — an :class:`ExperimentRecord` is a named collection of
homogeneous rows plus free-form metadata — together with JSON round-trip
helpers and runners that produce the records for the core experiments
programmatically (the same computations the benches perform, minus the
pytest wrapper).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.exceptions import ReproError


@dataclass
class ExperimentRecord:
    """One experiment's data: an identifier, metadata, and a list of row dicts.

    Attributes
    ----------
    experiment:
        Identifier such as ``"E3"``.
    description:
        One-line description of what the rows contain.
    rows:
        Homogeneous list of dictionaries (one per table row).
    metadata:
        Free-form run metadata (seeds, parameter sweeps, versions).
    """

    experiment: str
    description: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    metadata: Dict[str, Any] = field(default_factory=dict)

    def add_row(self, **values: Any) -> None:
        """Append one row."""
        self.rows.append(dict(values))

    def column(self, key: str) -> List[Any]:
        """Return one column across all rows (missing values become ``None``)."""
        return [row.get(key) for row in self.rows]

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a JSON-friendly dictionary."""
        return {
            "experiment": self.experiment,
            "description": self.description,
            "metadata": dict(self.metadata),
            "rows": [dict(row) for row in self.rows],
        }

    def to_json(self, indent: int = 2) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentRecord":
        """Inverse of :meth:`to_dict`."""
        for key in ("experiment", "description", "rows"):
            if key not in data:
                raise ReproError(f"experiment record is missing the {key!r} field")
        return cls(
            experiment=data["experiment"],
            description=data["description"],
            rows=[dict(row) for row in data["rows"]],
            metadata=dict(data.get("metadata", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentRecord":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


def record_phase_decay(
    hypergraph,
    k: int,
    approximator,
    lam: float,
    label: Optional[str] = None,
) -> ExperimentRecord:
    """Run the reduction once and record its per-phase decay (experiment E3 data)."""
    from repro.analysis.phase_stats import decay_curve, effective_lambda, phase_summary
    from repro.core.reduction import solve_conflict_free_multicoloring

    result = solve_conflict_free_multicoloring(hypergraph, k=k, approximator=approximator, lam=lam)
    curve = decay_curve(result)
    record = ExperimentRecord(
        experiment="E3",
        description="per-phase unhappy-edge decay of the Theorem 1.1 reduction",
        metadata={
            "label": label or "",
            "n": hypergraph.num_vertices(),
            "m": hypergraph.num_edges(),
            "k": k,
            "lambda": lam,
            "effective_lambda": effective_lambda(result),
            "phase_bound": result.phase_bound,
            "color_bound": result.color_bound,
            "total_colors": result.total_colors,
        },
    )
    for row, observed, guaranteed in zip(
        phase_summary(result), curve.observed[1:], curve.guaranteed[1:]
    ):
        record.add_row(
            phase=int(row["phase"]),
            edges_before=int(row["edges_before"]),
            independent_set=int(row["is_size"]),
            edges_after=int(observed),
            guaranteed_bound=float(guaranteed),
            removal_fraction=float(row["removal_fraction"]),
        )
    return record


def record_oracle_quality(graph, names: Optional[List[str]] = None) -> ExperimentRecord:
    """Measure registered approximators on one graph (experiment E6 data)."""
    from repro.analysis.metrics import approximator_quality_table

    record = ExperimentRecord(
        experiment="E6",
        description="MaxIS approximator quality against the exact optimum",
        metadata={"n": graph.num_vertices(), "m": graph.num_edges()},
    )
    for row in approximator_quality_table(graph, names=names):
        record.add_row(**row)
    return record


def record_model_gap(graphs_with_labels, seed: int = 0) -> ExperimentRecord:
    """Compare SLOCAL and LOCAL MIS across graphs (experiment E7 data)."""
    from repro.analysis.metrics import mis_model_comparison

    record = ExperimentRecord(
        experiment="E7",
        description="MIS across models: SLOCAL locality vs. Luby's LOCAL rounds",
        metadata={"seed": seed},
    )
    for label, graph in graphs_with_labels:
        row = {"graph": label}
        row.update(mis_model_comparison(graph, seed=seed))
        record.add_row(**row)
    return record


def write_records(records: List[ExperimentRecord], path: str) -> None:
    """Write a list of records as one JSON document at ``path``."""
    payload = [record.to_dict() for record in records]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


def read_records(path: str) -> List[ExperimentRecord]:
    """Read a JSON document written by :func:`write_records`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, list):
        raise ReproError("expected a JSON list of experiment records")
    return [ExperimentRecord.from_dict(item) for item in payload]
