"""In-process metrics: labelled counters and their Prometheus rendering.

A :class:`MetricsRegistry` holds metric *families*; each family hands out
cheap per-label-set :class:`Counter` children.  Two read surfaces exist:

* :meth:`MetricsRegistry.render_prometheus` — the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` headers, one
  ``name{label="value"} value`` sample per line);
* :meth:`MetricsRegistry.snapshot` — a JSON-safe dict of the same data
  (``repro campaign metrics --json``).

Campaign metrics are built in a *fresh* registry from the store's
summaries (:func:`repro.runtime.summary.campaign_metrics`), so they are a
pure function of the campaign directory.  The process-global
:data:`REGISTRY` keeps only the few live counters the store and the
scheduler still update (see ``docs/observability.md``).

Design constraints, in order:

* **Hot-path cost.**  A counter ``inc`` is one lock acquire and one
  float add.  Callers are expected to resolve ``family.labels(...)``
  once (module level or run start) and reuse the child.
* **Thread safety.**  CPython's ``+=`` on an attribute is *not* atomic
  (it is a read, an add and a write, and the GIL can switch threads
  between them), so every child guards its state with a lock.
* **Determinism.**  Rendering sorts families by name and children by
  label values, so two registries holding the same values render
  byte-identical text — which is what the golden-file test pins.
* **Bounded cardinality.**  Each family refuses more than
  ``max_label_sets`` distinct label combinations (:class:`ObsError`),
  so a bug interpolating unbounded strings into a label cannot grow the
  registry without limit.

Metrics never feed back into results: the campaign digest layer is
unaware of this module, and the differential harnesses assert
instrumented runs stay byte-identical (see ``docs/observability.md``).
"""

from __future__ import annotations

import json
import os
import re
import threading
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from repro.exceptions import ObsError

#: Format version of :meth:`MetricsRegistry.snapshot` dicts.
SNAPSHOT_VERSION = 1

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_metric_name(name: str) -> None:
    if not isinstance(name, str) or not _METRIC_NAME_RE.match(name):
        raise ObsError(f"invalid metric name {name!r}")


def _check_label_names(labels: Sequence[str]) -> Tuple[str, ...]:
    labels = tuple(labels)
    for label in labels:
        if not isinstance(label, str) or not _LABEL_NAME_RE.match(label):
            raise ObsError(f"invalid label name {label!r}")
    if len(set(labels)) != len(labels):
        raise ObsError(f"duplicate label names in {labels!r}")
    return labels


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def format_value(value: float) -> str:
    """Render a sample value: integral floats as integers, else ``repr``.

    ``repr`` round-trips doubles exactly, which keeps the exposition
    lossless; integral values (the overwhelmingly common case for
    counters) render without the noise of a trailing ``.0``.
    """
    if value != value or value in (float("inf"), float("-inf")):
        return {float("inf"): "+Inf", float("-inf"): "-Inf"}.get(value, "NaN")
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class Counter:
    """A monotonically increasing value; one label-set child of a family."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObsError(f"counters only go up; cannot inc by {amount!r}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class MetricFamily:
    """A named counter plus its per-label-set children.

    Families are created through :meth:`MetricsRegistry.counter` and hand
    out children via :meth:`labels`.  A family declared without label
    names has exactly one child, reachable as ``family.labels()`` — or
    directly: the family proxies ``inc`` / ``value`` to it.
    """

    type = "counter"

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: Tuple[str, ...],
        max_label_sets: int,
    ) -> None:
        self.name = name
        self.help = help_text
        self.label_names = label_names
        self._max_label_sets = max_label_sets
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], Counter] = {}

    def labels(self, *values: Any) -> Counter:
        """The child for one label-value tuple (created on first use)."""
        if len(values) != len(self.label_names):
            raise ObsError(
                f"metric {self.name!r} takes {len(self.label_names)} label "
                f"value(s) {self.label_names!r}, got {len(values)}"
            )
        key = tuple(str(v) for v in values)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if len(self._children) >= self._max_label_sets:
                    raise ObsError(
                        f"metric {self.name!r} exceeded its cardinality bound of "
                        f"{self._max_label_sets} label sets; refusing {key!r} "
                        f"(is an unbounded string interpolated into a label?)"
                    )
                child = self._children[key] = Counter()
            return child

    def children(self) -> List[Tuple[Tuple[str, ...], Counter]]:
        """All (label values, child) pairs, sorted by label values."""
        with self._lock:
            return sorted(self._children.items())

    # Convenience proxies for label-less families -----------------------
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    @property
    def value(self) -> float:
        return self.labels().value


class MetricsRegistry:
    """A collection of counter families.

    Registration is idempotent: asking for an already-registered name
    with the same label names returns the existing family (so modules can
    declare their metrics at import time without worrying about
    re-imports), while a redeclaration with other label names raises
    :class:`ObsError`.
    """

    def __init__(self, max_label_sets: int = 1000) -> None:
        if max_label_sets < 1:
            raise ObsError(f"max_label_sets must be >= 1, got {max_label_sets!r}")
        self.max_label_sets = max_label_sets
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}

    def counter(
        self, name: str, help_text: str, labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Register (or fetch) a counter family."""
        _check_metric_name(name)
        label_names = _check_label_names(labels)
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.label_names != label_names:
                    raise ObsError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.label_names!r}; cannot re-register with "
                        f"labels {label_names!r}"
                    )
                return existing
            family = MetricFamily(name, help_text, label_names, self.max_label_sets)
            self._families[name] = family
            return family

    def families(self) -> List[MetricFamily]:
        """All registered families, sorted by name."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    # ------------------------------------------------------------------
    # read surfaces
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A JSON-safe dict of every family and sample."""
        metrics = []
        for family in self.families():
            samples = [
                {"labels": dict(zip(family.label_names, label_values)), "value": child.value}
                for label_values, child in family.children()
            ]
            metrics.append(
                {
                    "name": family.name,
                    "type": family.type,
                    "help": family.help,
                    "label_names": list(family.label_names),
                    "samples": samples,
                }
            )
        return {"version": SNAPSHOT_VERSION, "metrics": metrics}

    def render_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format."""
        lines: List[str] = []
        for family in self.families():
            lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.type}")
            for label_values, child in family.children():
                pairs = zip(family.label_names, label_values)
                body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
                labels = "{" + body + "}" if body else ""
                lines.append(f"{family.name}{labels} {format_value(child.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    # Kept only because perfbench's traced mode wraps it by name (its
    # ``obs.snapshot`` layer); no campaign command calls it.
    def write_snapshot(self, path) -> Path:
        """Persist :meth:`snapshot` to ``path`` atomically (temp + rename)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(
            json.dumps(self.snapshot(), sort_keys=True) + "\n", encoding="utf-8"
        )
        os.replace(tmp, path)
        return path


#: The process-global registry: the store's and the scheduler's live
#: counters (campaign metrics come from the store, not from here).
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry (one per process; pool workers get their own)."""
    return REGISTRY


def counter(name: str, help_text: str, labels: Sequence[str] = ()) -> MetricFamily:
    """Register a counter family on the global registry."""
    return REGISTRY.counter(name, help_text, labels)
