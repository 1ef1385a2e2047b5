"""Unit tests for the metrics registry (:mod:`repro.obs.metrics`).

Covers the registry contract the campaign projection and the live
counters lean on: idempotent registration, bounded label cardinality,
thread-safe increments under a real thread pool, and byte-stable
Prometheus rendering pinned by a golden file.
"""

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.exceptions import ObsError
from repro.obs import SNAPSHOT_VERSION, MetricsRegistry, format_value

GOLDEN_PATH = Path(__file__).with_name("golden_prometheus.txt")


def golden_registry() -> MetricsRegistry:
    """A registry with fixed, hand-picked values — the golden file pins its text.

    Regenerate the golden file after an intentional format change with::

        PYTHONPATH=src python -c "from tests.obs.test_metrics import *; \
            GOLDEN_PATH.write_text(golden_registry().render_prometheus())"
    """
    registry = MetricsRegistry()
    tasks = registry.counter(
        "golden_tasks_total", "Tasks processed.", labels=("campaign", "status")
    )
    tasks.labels("demo", "done").inc(7)
    tasks.labels("demo", "failed").inc()
    registry.counter("golden_events_total", "Label-less events.").inc(3)
    registry.counter("golden_seconds_total", "Fractional totals.").inc(2.5)
    escapes = registry.counter(
        "golden_escapes", 'Label values with "quotes", \\ and newlines.', labels=("text",)
    )
    escapes.labels('say "hi"\\\n').inc()
    return registry


class TestCounter:
    def test_counter_counts_and_refuses_negative_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ObsError, match="only go up"):
            counter.inc(-1)
        assert counter.value == 3.5


class TestRegistration:
    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "help", labels=("a",))
        second = registry.counter("c_total", "other help", labels=("a",))
        assert first is second

    def test_conflicting_redeclaration_raises(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help")
        with pytest.raises(ObsError, match="already registered"):
            registry.counter("c_total", "help", labels=("other",))

    @pytest.mark.parametrize("name", ["", "0starts_with_digit", "has space", "has-dash"])
    def test_invalid_metric_names_are_rejected(self, name):
        with pytest.raises(ObsError, match="invalid metric name"):
            MetricsRegistry().counter(name, "help")

    @pytest.mark.parametrize("label", ["", "0digit", "has space", "le:"])
    def test_invalid_label_names_are_rejected(self, label):
        with pytest.raises(ObsError, match="invalid label name"):
            MetricsRegistry().counter("c_total", "help", labels=(label,))

    def test_duplicate_label_names_are_rejected(self):
        with pytest.raises(ObsError, match="duplicate label names"):
            MetricsRegistry().counter("c_total", "help", labels=("a", "a"))


class TestLabels:
    def test_label_sets_get_distinct_children(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total", "help", labels=("status",))
        family.labels("done").inc(2)
        family.labels("failed").inc()
        assert family.labels("done").value == 2
        assert family.labels("failed").value == 1
        assert [values for values, _ in family.children()] == [("done",), ("failed",)]

    def test_label_count_mismatch_raises(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total", "help", labels=("a", "b"))
        with pytest.raises(ObsError, match="takes 2 label"):
            family.labels("only-one")

    def test_cardinality_bound_is_enforced(self):
        registry = MetricsRegistry(max_label_sets=3)
        family = registry.counter("c_total", "help", labels=("key",))
        for i in range(3):
            family.labels(str(i)).inc()
        with pytest.raises(ObsError, match="cardinality bound"):
            family.labels("one-too-many")
        # Existing children stay reachable after the refusal.
        assert family.labels("0").value == 1

    def test_label_values_are_stringified(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total", "help", labels=("shard",))
        family.labels(3).inc()
        assert family.labels("3").value == 1


class TestConcurrency:
    def test_concurrent_increments_from_a_thread_pool_are_lossless(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help", labels=("worker",))
        threads, per_thread = 8, 2000
        barrier = threading.Barrier(threads)

        def hammer(worker: int) -> None:
            barrier.wait()  # maximize interleaving
            child = counter.labels(str(worker % 2))
            for _ in range(per_thread):
                child.inc()

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(hammer, range(threads)))
        total = sum(child.value for _, child in counter.children())
        assert total == threads * per_thread


class TestRendering:
    def test_prometheus_text_matches_the_golden_file(self):
        assert golden_registry().render_prometheus() == GOLDEN_PATH.read_text(
            encoding="utf-8"
        )

    def test_two_identical_registries_render_identically(self):
        assert (
            golden_registry().render_prometheus()
            == golden_registry().render_prometheus()
        )

    def test_format_value(self):
        assert format_value(3.0) == "3"
        assert format_value(-2.0) == "-2"
        assert format_value(0.25) == "0.25"
        assert format_value(float("inf")) == "+Inf"
        assert format_value(float("-inf")) == "-Inf"
        assert format_value(float("nan")) == "NaN"

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""


class TestSnapshot:
    def test_snapshot_lists_every_family_and_sample(self):
        snapshot = golden_registry().snapshot()
        assert snapshot["version"] == SNAPSHOT_VERSION
        by_name = {metric["name"]: metric for metric in snapshot["metrics"]}
        assert list(by_name) == sorted(by_name)
        tasks = by_name["golden_tasks_total"]
        assert tasks["type"] == "counter"
        assert tasks["label_names"] == ["campaign", "status"]
        assert tasks["samples"] == [
            {"labels": {"campaign": "demo", "status": "done"}, "value": 7.0},
            {"labels": {"campaign": "demo", "status": "failed"}, "value": 1.0},
        ]

    def test_write_snapshot_persists_the_snapshot(self, tmp_path):
        registry = golden_registry()
        path = registry.write_snapshot(tmp_path / "nested" / "snapshot.json")
        assert json.loads(path.read_text(encoding="utf-8")) == registry.snapshot()
        assert not path.with_name(path.name + ".tmp").exists()
