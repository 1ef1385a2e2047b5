"""Observability integration: instrumentation must not perturb results.

The hard invariant of the obs layer — campaign digests and row content
are byte-identical with tracing on and off.  A campaign's metrics are a
projection of its store's summaries (``campaign_metrics``), so the
uninterrupted, resumed, merged, pooled and supervised shapes of one
campaign report the same content families, and no campaign sees
another's series.  Also exercises the CLI surfaces ``campaign run
--trace``, ``campaign metrics`` and ``trace summary``.
"""

import json
from pathlib import Path

import pytest

from repro import obs
from repro.cli import main
from repro.runtime import (
    CampaignRunStats,
    CampaignSpec,
    InlineExecutor,
    ShardCoordinator,
    cache_counts_of,
    campaign_digest,
    campaign_metrics,
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
        # No campaign command writes a metrics file any more.
        assert not list((tmp_path / "supervised").rglob("metrics.json"))

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


SMOKE_SPEC_PATH = Path(__file__).resolve().parents[2] / "examples" / "campaign_smoke.json"

#: The families that describe the rows themselves, identical in every
#: execution shape of one campaign (cache hits depend on the shape).
CONTENT_FAMILIES = (
    "repro_tasks_total",
    "repro_task_attempts_total",
    "repro_reduction_phases_total",
)


def smoke_spec() -> CampaignSpec:
    return CampaignSpec.from_json(SMOKE_SPEC_PATH.read_text(encoding="utf-8"))


def metrics_json(directory, capsys):
    """``repro campaign metrics <directory> --json`` parsed, as ``{name: {labels: value}}``."""
    capsys.readouterr()
    assert main(["campaign", "metrics", str(directory), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    return {
        metric["name"]: {
            tuple(sorted(sample["labels"].items())): sample["value"]
            for sample in metric["samples"]
        }
        for metric in payload["metrics"]
    }


def content_of(families):
    return {name: families[name] for name in CONTENT_FAMILIES}


def row_totals(directory):
    """``(tasks, phases)`` of a campaign's latest done rows."""
    rows = [r for r in open_store(directory).latest_rows().values() if r["status"] == "done"]
    return len(rows), sum(len(row["result"]["phases"]) for row in rows)


def campaign_samples(families, name, campaign):
    """``{other labels: value}`` of one family's children labelled ``campaign``."""
    return {
        tuple(pair for pair in labels if pair[0] != "campaign"): value
        for labels, value in families[name].items()
        if ("campaign", campaign) in labels
    }


@pytest.fixture(scope="module")
def smoke_reference(tmp_path_factory):
    """An uninterrupted serial run of the smoke spec (the reference shape)."""
    directory = tmp_path_factory.mktemp("smoke-reference") / "serial"
    stats = run_campaign(smoke_spec(), directory, workers=0)
    assert stats.failed == 0
    return directory


def merged_shape(spec, directory):
    shard_dirs = [directory.parent / f"{directory.name}-shard{i}" for i in range(2)]
    for index, shard_dir in enumerate(shard_dirs):
        run_campaign(spec, shard_dir, shard=(index, 2))
    assert main(["campaign", "merge", "--out", str(directory), *map(str, shard_dirs)]) == 0


def pooled_shape(spec, directory):
    run_campaign(spec, directory, workers=2)


def resumed_shape(spec, directory):
    """A serial run killed mid-append (log cut to half, torn tail), then resumed."""
    run_campaign(spec, directory, workers=0)
    results = open_store(directory).results_path
    lines = results.read_text(encoding="utf-8").splitlines(keepends=True)
    results.write_text("".join(lines[: len(lines) // 2]) + '{"task_key": "cut', encoding="utf-8")
    assert run_campaign(spec, directory, workers=0).executed == len(lines) - len(lines) // 2


def supervised_shape(spec, directory):
    ShardCoordinator(
        spec, directory, n_shards=2, executor=InlineExecutor(), poll_interval_s=0.01
    ).run()


class TestMetricsAreAStoreProjection:
    """``campaign metrics`` is a pure function of the store's summaries."""

    def test_projection_covers_the_four_families(self, smoke_reference, capsys):
        spec = smoke_spec()
        families = metrics_json(smoke_reference, capsys)
        assert sorted(families) == sorted(
            [*CONTENT_FAMILIES, "repro_instance_cache_total"]
        )
        tasks, phases = row_totals(smoke_reference)
        name = spec.name
        assert campaign_samples(families, "repro_tasks_total", name) == {
            (("status", "done"),): tasks,
            (("status", "failed"),): 0,
            (("status", "timeout"),): 0,
            (("status", "pending"),): spec.num_tasks() - tasks,
        }
        assert campaign_samples(families, "repro_task_attempts_total", name) == {(): tasks}
        assert campaign_samples(families, "repro_reduction_phases_total", name) == {(): phases}
        assert phases > tasks  # the capped oracle forces multi-phase runs

    def test_noop_resume_leaves_the_output_byte_identical(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(SMOKE_SPEC_PATH.read_text(encoding="utf-8"))
        out = tmp_path / "out"
        outputs = []
        for _ in range(2):
            assert main(["campaign", "run", "--spec", str(spec_path), "--out", str(out)]) == 0
            capsys.readouterr()
            assert main(["campaign", "metrics", str(out)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        _, phases = row_totals(out)
        assert f'repro_reduction_phases_total{{campaign="campaign-smoke"}} {phases}\n' in outputs[1]

    @pytest.mark.parametrize(
        "shape",
        [merged_shape, pooled_shape, resumed_shape, supervised_shape],
        ids=["merged-2-shards", "workers-2", "kill-resume", "supervised-inline"],
    )
    def test_every_shape_reports_the_reference_content(
        self, shape, smoke_reference, tmp_path, capsys
    ):
        spec = smoke_spec()
        directory = tmp_path / "shape"
        shape(spec, directory)
        families = metrics_json(directory, capsys)
        assert content_of(families) == content_of(metrics_json(smoke_reference, capsys))
        counts = cache_counts_of(open_store(directory).summaries())
        assert campaign_samples(families, "repro_instance_cache_total", spec.name) == {
            (("outcome", "hit"),): counts["cache_hits"],
            (("outcome", "miss"),): counts["cache_misses"],
        }

    def test_a_second_campaign_sees_no_series_of_the_first(self, tmp_path, capsys):
        first = small_spec("obs-int-first")
        second = small_spec("obs-int-second")
        run_campaign(first, tmp_path / "first", workers=0)
        run_campaign(second, tmp_path / "second", workers=0)
        families = metrics_json(tmp_path / "second", capsys)
        labels = [dict(key) for family in families.values() for key in family]
        assert labels and all(entry["campaign"] == second.name for entry in labels)

    def test_projection_ignores_the_process_registry(self, tmp_path):
        spec = small_spec("obs-int-fresh")
        run_campaign(spec, tmp_path / "run", workers=0)
        registry = campaign_metrics(spec, open_store(tmp_path / "run").summaries())
        assert registry is not obs.get_registry()
        assert {family.name for family in registry.families()} == {
            *CONTENT_FAMILIES,
            "repro_instance_cache_total",
        }

    def test_failed_and_retried_tasks_are_counted(self, tmp_path):
        spec = small_spec("obs-int-failed")
        store = open_store(tmp_path)
        store.initialize(spec)
        keys = [payload["task_key"] for payload in spec.task_payloads()]
        store.append({"task_key": keys[0], "status": "failed", "attempt": 3})
        store.append({"task_key": keys[1], "status": "timeout", "attempt": 2})
        families = {
            family.name: {values: child.value for values, child in family.children()}
            for family in campaign_metrics(spec, store.summaries()).families()
        }
        name = spec.name
        assert families["repro_tasks_total"] == {
            (name, "done"): 0,
            (name, "failed"): 1,
            (name, "timeout"): 1,
            (name, "pending"): spec.num_tasks(),
        }
        assert families["repro_task_attempts_total"] == {(name,): 5}
        assert families["repro_reduction_phases_total"] == {(name,): 0}
        assert families["repro_instance_cache_total"] == {(name, "hit"): 0, (name, "miss"): 0}


class TestRunStats:
    def test_stats_count_the_rows_this_run_recorded(self, tmp_path):
        spec = small_spec("obs-int-stats")
        stats = run_campaign(spec, tmp_path / "first", workers=0)
        counts = cache_counts_of(open_store(tmp_path / "first").summaries())
        assert (stats.cache_hits, stats.cache_misses) == (
            counts["cache_hits"],
            counts["cache_misses"],
        )
        assert stats.cache_hits + stats.cache_misses == stats.executed
        assert stats.retried == 0
        # A fully resumed run recorded nothing, so it reports zero.
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


class TestMetricsComeFromRows:
    """The engine counts nothing; the projection counts phases from the stored rows."""

    def test_pooled_campaign_after_a_serial_one_counts_its_own_rows(self, tmp_path, capsys):
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
        for spec, directory in ((first, "first"), (second, "second")):
            families = metrics_json(tmp_path / directory, capsys)
            _, phases = row_totals(tmp_path / directory)
            assert phases > 0
            assert families["repro_reduction_phases_total"] == {
                (("campaign", spec.name),): phases
            }

    def test_serial_and_pooled_runs_report_equal_counts(self, tmp_path, capsys):
        spec = small_spec("obs-int-rows-equal")
        counted = {}
        for workers in (0, 2):
            directory = tmp_path / f"workers-{workers}"
            run_campaign(spec, directory, workers=workers)
            counted[workers] = content_of(metrics_json(directory, capsys))
            _, phases = row_totals(directory)
            assert counted[workers]["repro_reduction_phases_total"] == {
                (("campaign", spec.name),): phases
            }
        assert counted[0] == counted[2]


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
        assert "# TYPE repro_tasks_total counter" in text
        assert 'repro_tasks_total{campaign="obs-int-cli",status="done"} 4' in text
        assert 'repro_tasks_total{campaign="obs-int-cli",status="pending"} 0' in text
        assert 'repro_task_attempts_total{campaign="obs-int-cli"} 4' in text

    def test_campaign_metrics_json_mode(self, tmp_path, capsys):
        out = self.run_traced(tmp_path, capsys)
        assert main(["campaign", "metrics", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == obs.SNAPSHOT_VERSION
        assert any(m["name"] == "repro_tasks_total" for m in payload["metrics"])

    def test_campaign_metrics_outside_a_campaign_fails_cleanly(self, tmp_path, capsys):
        # A stray snapshot file does not make a directory a campaign.
        obs.MetricsRegistry().write_snapshot(tmp_path / "metrics.json")
        assert main(["campaign", "metrics", str(tmp_path)]) == 2
        assert "campaign directory" in capsys.readouterr().err
        assert main(["campaign", "metrics", str(tmp_path / "missing")]) == 2
        assert "campaign directory" in capsys.readouterr().err

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
