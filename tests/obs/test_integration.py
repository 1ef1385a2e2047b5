"""Observability integration: instrumentation must not perturb results.

The hard invariant of the obs layer — campaign digests and row content
are byte-identical with tracing on and off, the persisted ``metrics.json``
covers the metric catalog, every metric is counted from the rows the
parent records (so serial and pooled runs agree, scoped to their
campaign), and :class:`CampaignRunStats` is a faithful projection of the
registry deltas.  Also exercises the three new CLI surfaces: ``campaign run
--trace``, ``campaign metrics`` and ``trace summary``.
"""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.runtime import (
    CampaignRunStats,
    CampaignSpec,
    InlineExecutor,
    ShardCoordinator,
    WorkerPool,
    campaign_digest,
    campaign_records,
    open_store,
    run_campaign,
)

from tests.runtime.test_tasks import NONDETERMINISTIC_ROW_FIELDS


def small_spec(name="obs-int") -> CampaignSpec:
    return CampaignSpec(
        name=name,
        seed=11,
        families=("colorable", "uniform"),
        sizes=((10, 6),),
        ks=(2,),
        oracles=("greedy-first-fit",),
        lams=(2.0,),
        replicates=2,
    )


def digest_of(spec, directory):
    return campaign_digest(campaign_records(spec, open_store(directory).rows()))


def deterministic_rows(directory):
    return {
        key: {k: v for k, v in row.items() if k not in NONDETERMINISTIC_ROW_FIELDS}
        for key, row in open_store(directory).latest_rows().items()
    }


class TestTracingDoesNotPerturbResults:
    def test_traced_run_is_byte_identical_to_untraced(self, tmp_path):
        spec = small_spec()
        plain = run_campaign(spec, tmp_path / "plain", workers=0)
        traced = run_campaign(spec, tmp_path / "traced", workers=0, trace=True)
        assert (plain.executed, plain.failed) == (traced.executed, traced.failed)
        assert deterministic_rows(tmp_path / "plain") == deterministic_rows(
            tmp_path / "traced"
        )
        assert digest_of(spec, tmp_path / "plain") == digest_of(
            spec, tmp_path / "traced"
        )
        valid, skipped = obs.validate_trace(tmp_path / "traced" / obs.TRACE_FILENAME)
        assert skipped == 0 and valid > 0
        # The untraced run wrote no sidecar.
        assert not (tmp_path / "plain" / obs.TRACE_FILENAME).exists()

    def test_traced_pool_run_matches_serial_digest(self, tmp_path):
        spec = small_spec("obs-int-pool")
        reference = run_campaign(spec, tmp_path / "serial", workers=0)
        assert reference.failed == 0
        run_campaign(spec, tmp_path / "pool", workers=2, trace=True)
        assert digest_of(spec, tmp_path / "pool") == digest_of(
            spec, tmp_path / "serial"
        )

    def test_traced_supervised_run_matches_serial_digest(self, tmp_path):
        spec = small_spec("obs-int-sup")
        run_campaign(spec, tmp_path / "serial", workers=0)
        report = ShardCoordinator(
            spec,
            tmp_path / "supervised",
            n_shards=2,
            executor=InlineExecutor(),
            poll_interval_s=0.01,
            trace=True,
        ).run()
        assert report.digest == digest_of(spec, tmp_path / "serial")
        valid, skipped = obs.validate_trace(
            tmp_path / "supervised" / obs.TRACE_FILENAME
        )
        assert skipped == 0 and valid > 0
        assert (tmp_path / "supervised" / obs.METRICS_FILENAME).exists()

    def test_trace_sidecar_holds_the_execution_tree(self, tmp_path):
        spec = small_spec("obs-int-tree")
        run_campaign(spec, tmp_path / "run", workers=0, trace=True)
        records = obs.read_trace(tmp_path / "run" / obs.TRACE_FILENAME)
        spans = [r for r in records if r["type"] == "span"]
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        assert len(by_name["campaign_run"]) == 1
        assert len(by_name["task"]) == spec.num_tasks()
        run_id = by_name["campaign_run"][0]["span_id"]
        assert all(task["parent_id"] == run_id for task in by_name["task"])
        # Phases nest under tasks (subset: cache hits skip instance_build).
        task_ids = {task["span_id"] for task in by_name["task"]}
        assert by_name["phase"] and all(
            phase["parent_id"] in task_ids for phase in by_name["phase"]
        )
        statuses = [r["attrs"]["status"] for r in by_name["task"]]
        assert statuses.count("done") == spec.num_tasks()


class TestMetricsSnapshot:
    REQUIRED_FAMILIES = (
        "repro_tasks_started_total",
        "repro_tasks_completed_total",
        "repro_task_duration_seconds",
        "repro_instance_cache_total",
        "repro_pool_dispatch_total",
        "repro_campaign_tasks_per_second",
        "repro_store_rows_appended_total",
        "repro_store_flushes_total",
        "repro_reduction_phases_total",
    )

    def test_every_run_persists_a_snapshot_covering_the_catalog(self, tmp_path):
        spec = small_spec("obs-int-snap")
        run_campaign(spec, tmp_path / "run", workers=0)
        snapshot = obs.load_snapshot(tmp_path / "run" / obs.METRICS_FILENAME)
        populated = {m["name"] for m in snapshot["metrics"] if m["samples"]}
        missing = [name for name in self.REQUIRED_FAMILIES if name not in populated]
        assert not missing, f"snapshot lacks samples for {missing}"
        text = obs.render_snapshot(snapshot)
        assert f'repro_tasks_started_total{{campaign="{spec.name}"}}' in text
        assert 'repro_task_duration_seconds_bucket' in text

    @staticmethod
    def dispatch_modes(directory):
        """``{campaign: {mode: count}}`` of ``repro_pool_dispatch_total`` in a run's snapshot."""
        snapshot = obs.load_snapshot(directory / obs.METRICS_FILENAME)
        (family,) = [m for m in snapshot["metrics"] if m["name"] == "repro_pool_dispatch_total"]
        modes = {}
        for sample in family["samples"]:
            labels = sample["labels"]
            modes.setdefault(labels["campaign"], {})[labels["mode"]] = sample["value"]
        return modes

    def test_dispatch_mode_label_follows_the_executor(self, tmp_path):
        serial = small_spec("obs-int-mode-serial")
        run_campaign(serial, tmp_path / "serial", workers=0)
        assert self.dispatch_modes(tmp_path / "serial")[serial.name] == {"serial": 1}

        transient = small_spec("obs-int-mode-transient")
        run_campaign(transient, tmp_path / "transient", workers=2)
        assert self.dispatch_modes(tmp_path / "transient")[transient.name] == {"pool-cold": 1}

        persistent = small_spec("obs-int-mode-persistent")
        with WorkerPool(2) as pool:
            run_campaign(persistent, tmp_path / "first", pool=pool)
            assert self.dispatch_modes(tmp_path / "first")[persistent.name] == {"pool-cold": 1}
            run_campaign(persistent, tmp_path / "second", pool=pool)
        modes = self.dispatch_modes(tmp_path / "second")
        assert modes[persistent.name] == {"pool-cold": 1, "pool-warm": 1}
        labels = {mode for by_mode in modes.values() for mode in by_mode}
        assert labels <= {"serial", "pool-cold", "pool-warm"}

    def test_stats_are_a_projection_of_registry_deltas(self, tmp_path):
        spec = small_spec("obs-int-proj")
        registry = obs.get_registry()
        hits = registry.counter(
            "repro_instance_cache_total",
            "",
            labels=("campaign", "outcome"),
        ).labels(spec.name, "hit")
        before = hits.value
        stats = run_campaign(spec, tmp_path / "first", workers=0)
        assert stats.cache_hits == hits.value - before
        # A second run of the same campaign re-reads the registry from a
        # fresh baseline: fully-resumed runs report zero, not the global
        # running total.
        resumed = run_campaign(spec, tmp_path / "first", workers=0)
        assert resumed.executed == 0
        assert resumed.cache_hits == 0 and resumed.cache_misses == 0

    def test_cache_hit_ratio_with_zero_lookups_is_zero(self):
        # Regression guard: a run that resumed everything (no instance
        # builds at all) must report 0.0, not raise ZeroDivisionError.
        stats = CampaignRunStats(
            campaign="empty",
            total_tasks=4,
            skipped=4,
            executed=0,
            failed=0,
            workers=0,
            wall_time_s=0.01,
        )
        assert stats.cache_hits == 0 and stats.cache_misses == 0
        assert stats.cache_hit_ratio == 0.0


def family_samples(directory, name):
    """``{label values: value}`` of one counter family in a run's ``metrics.json``."""
    snapshot = obs.load_snapshot(directory / obs.METRICS_FILENAME)
    (family,) = [m for m in snapshot["metrics"] if m["name"] == name]
    return {
        tuple(sample["labels"].get(label) for label in family["label_names"]): sample["value"]
        for sample in family["samples"]
    }


def row_totals(directory):
    """``(phases, happy-check seconds)`` summed over a campaign's done rows."""
    rows = [r for r in open_store(directory).latest_rows().values() if r["status"] == "done"]
    return (
        sum(len(row["result"]["phases"]) for row in rows),
        sum(row["happy_check_wall_time_s"] for row in rows),
    )


class TestMetricsComeFromRows:
    """The engine counts nothing; the parent counts phases from the rows it records."""

    def test_pooled_campaign_after_a_serial_one_counts_its_own_rows(self, tmp_path):
        first = small_spec("obs-int-rows-serial")
        second = CampaignSpec(
            name="obs-int-rows-pool",
            seed=12,
            families=("colorable", "uniform"),
            sizes=((12, 8),),
            ks=(2,),
            oracles=("capped:greedy-first-fit",),
            lams=(3.0,),
            replicates=3,
        )
        run_campaign(first, tmp_path / "first", workers=0)
        run_campaign(second, tmp_path / "second", workers=2)
        phases = family_samples(tmp_path / "second", "repro_reduction_phases_total")
        happy = family_samples(tmp_path / "second", "repro_happy_check_seconds_total")
        first_phases, first_happy = row_totals(tmp_path / "first")
        second_phases, second_happy = row_totals(tmp_path / "second")
        assert second_phases > 0 and second_happy > 0
        assert phases[(second.name,)] == second_phases
        assert phases[(first.name,)] == first_phases
        assert happy[(second.name,)] == pytest.approx(second_happy)
        assert happy[(first.name,)] == pytest.approx(first_happy)
        # Every child carries a campaign label: nothing is counted process-wide.
        assert all(len(labels) == 1 and labels[0] for labels in [*phases, *happy])

    def test_serial_and_pooled_runs_report_equal_counts(self, tmp_path):
        spec = small_spec("obs-int-rows-equal")
        counted = {}
        before_phases = before_happy = 0.0
        for workers in (0, 2):
            directory = tmp_path / f"workers-{workers}"
            run_campaign(spec, directory, workers=workers)
            phases = family_samples(directory, "repro_reduction_phases_total")[(spec.name,)]
            happy = family_samples(directory, "repro_happy_check_seconds_total")[(spec.name,)]
            counted[workers] = (phases - before_phases, happy - before_happy)
            before_phases, before_happy = phases, happy
            row_phases, row_happy = row_totals(directory)
            assert counted[workers][0] == row_phases > 0
            assert counted[workers][1] == pytest.approx(row_happy)
            assert row_happy > 0
        assert counted[0][0] == counted[2][0]


class TestCli:
    def run_traced(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(small_spec("obs-int-cli").to_json())
        out = tmp_path / "out"
        code = main(
            ["campaign", "run", "--spec", str(spec_path), "--out", str(out), "--trace"]
        )
        assert code == 0
        capsys.readouterr()
        return out

    def test_campaign_metrics_renders_prometheus_text(self, tmp_path, capsys):
        out = self.run_traced(tmp_path, capsys)
        assert main(["campaign", "metrics", str(out)]) == 0
        text = capsys.readouterr().out
        assert "# TYPE repro_tasks_started_total counter" in text
        assert 'repro_tasks_started_total{campaign="obs-int-cli"}' in text
        assert "repro_task_duration_seconds_bucket" in text

    def test_campaign_metrics_json_mode(self, tmp_path, capsys):
        out = self.run_traced(tmp_path, capsys)
        assert main(["campaign", "metrics", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == obs.SNAPSHOT_VERSION
        assert any(m["name"] == "repro_tasks_started_total" for m in payload["metrics"])

    def test_campaign_metrics_without_snapshot_fails_cleanly(self, tmp_path, capsys):
        assert main(["campaign", "metrics", str(tmp_path)]) == 2
        assert "no metrics snapshot" in capsys.readouterr().err

    def test_trace_summary_aggregates_spans(self, tmp_path, capsys):
        out = self.run_traced(tmp_path, capsys)
        assert main(["trace", "summary", str(out), "--limit", "2"]) == 0
        text = capsys.readouterr().out
        assert "campaign_run" in text and "task" in text and "phase" in text
        assert "slowest 2 span(s):" in text

    def test_trace_summary_without_sidecar_fails_cleanly(self, tmp_path, capsys):
        assert main(["trace", "summary", str(tmp_path)]) == 2
        assert "no trace sidecar" in capsys.readouterr().err

    def test_supervise_cli_accepts_trace(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(small_spec("obs-int-cli-sup").to_json())
        out = tmp_path / "sup"
        code = main(
            [
                "campaign",
                "supervise",
                "--spec",
                str(spec_path),
                "--out",
                str(out),
                "--shards",
                "2",
                "--trace",
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["trace", "summary", str(out)]) == 0
        assert "supervise" in capsys.readouterr().out
