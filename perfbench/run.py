"""Campaign benchmark for the Theorem 1.1 reduction runtime.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-shared --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separately traced run.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every output was certified correct.
``--workload all`` runs each workload in its own process and also checks
that ``sweep-pool2`` reproduces ``sweep-shared``'s aggregate digest.

The program under test is imported from ``src/`` of the working
directory, never from anywhere else; without it the benchmark exits 1.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("sweep-shared", "deep-phase", "resume-report", "sweep-pool2")


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and check repro comes from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {SRC}")


def _print_metrics(metrics: dict, units: dict, notes: dict) -> None:
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:36s} {value:14.6g} {units[name]}{note}")


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    """Set up, measure and check one workload; print its metrics and result line."""
    import layers
    import workloads as wl

    workload = wl.WORKLOADS[name]
    workdir = WORK_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    problems = []
    try:
        setups = []
        certifier = None
        reference_digest = None
        for index in range(wl.SETUP_REPEATS):
            prepared, elapsed = wl.set_up(workload, seed, smoke, workdir, index)
            setups.append(elapsed)
            digest = wl.full_row_digest(prepared.spec, prepared.reference)
            if certifier is None:
                certifier = wl.Certifier(prepared.spec)
                reference_digest = digest
                for row in wl.open_store(prepared.reference).latest_rows().values():
                    problem = certifier.check(row)
                    if problem is not None:
                        problems.append(f"set-up: {problem}")
            elif digest != reference_digest:
                problems.append(f"set-up {index}: digest {digest} != {reference_digest}")

        tracer = layers.LayerTracer() if trace else None
        passes, traced, layer_passes = [], [], []
        attempted = 0
        loop_start = time.perf_counter()
        if tracer is not None:
            tracer.install()
        try:
            while True:
                use_tracer = tracer if tracer is not None and len(passes) > len(traced) else None
                result = wl.run_pass(prepared, workdir / "pass", use_tracer)
                pass_problems = wl.check_pass(prepared, result, certifier, reference_digest)
                attempted += result.executed
                problems.extend(pass_problems)
                if result.traced:
                    layer_passes.append(layers.pass_layers(tracer, result, certifier.payloads, workload.workers > 1))
                # Rows kept alive across passes would slow the garbage collector.
                result.rows = []
                (traced if result.traced else passes).append(result)
                elapsed = time.perf_counter() - loop_start
                samples = wl.latency_samples(passes)
                enough = (
                    elapsed >= seconds
                    and len(passes) >= wl.MIN_PASSES
                    and (tracer is None or len(traced) >= wl.MIN_PASSES)
                    and (smoke or trace or samples >= wl.P90_MIN_SAMPLES)
                )
                if enough or elapsed >= wl.MAX_RUN_FACTOR * seconds:
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()

        e2e = wl.end_to_end(workload, passes, setups)
        samples = wl.latency_samples(passes)
        print(f"workload {name} (seed {seed}): {workload.why}")
        print(
            f"  {len(passes)} untraced + {len(traced)} traced passes of {prepared.expected_executed} "
            f"tasks; {samples} latency samples; set-up x{len(setups)}; median machine-speed "
            f"correction x{statistics.median(p.scale for p in passes):.3f}"
        )
        notes = {"task_p50_ms": f"n={samples}", "task_p90_ms": f"n={samples}"}
        if samples < wl.P90_MIN_SAMPLES:
            notes["task_p90_ms"] += f", fewer than {wl.P90_MIN_SAMPLES}: not a valid p90"
        if workload.workers > 1:
            notes["task_p50_ms"] += ", worker-side row wall_time_s"
            notes["task_p90_ms"] += ", worker-side row wall_time_s"
        _print_metrics(e2e, wl.END_TO_END_UNITS, notes)
        print(f"campaign digest: {reference_digest}")

        metrics, units = e2e, wl.END_TO_END_UNITS
        if tracer is not None:
            overhead = statistics.median(p.wall_s for p in traced) / statistics.median(p.wall_s for p in passes)
            units = layers.PER_LAYER_UNITS
            metrics = {
                key: overhead if key == "trace.overhead_ratio" else statistics.median(p[key] for p in layer_passes)
                for key in units
            }
            notes = {}
            if workload.workers > 1:
                notes = {
                    key: "worker-side, not visible from the parent"
                    for key in units
                    if key.startswith(layers.WORKER_SIDE) and key not in ("tasks.cache_hit_ratio", "reduction.phases_per_task")
                }
                notes["reduction.phases_per_task"] = "from the rows' phase records"
            print("per-layer (self seconds per traced pass, median):")
            _print_metrics(metrics, units, notes)
            OUT_DIR.mkdir(exist_ok=True)
            trace_path = OUT_DIR / f"trace-{name}-seed{seed}.jsonl"
            tracer.write(trace_path)
            print(f"spans written to {trace_path.relative_to(ROOT)}")

        failed = min(len(problems), attempted)
        for problem in problems[:20]:
            print(f"ERROR: {problem}")
        correct = not problems
        print(f"error_rate {failed / max(attempted, 1):.6g} fraction ({failed}/{attempted} tasks)")
        print(_result_line(correct, max(attempted, 1), failed, metrics, units))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_DIR.exists() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()


def run_all(seed: int, seconds: float, smoke: bool) -> int:
    """Every workload in its own process, plus the pool-vs-serial digest check."""
    import workloads as wl

    results, digests, ok = {}, {}, True
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        if smoke:
            argv.append("--smoke")
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            ok = False
        if lines and lines[-1].startswith("{"):
            results[name] = json.loads(lines[-1])
        for line in lines:
            if line.startswith("campaign digest:"):
                digests[name] = line.split(":", 1)[1].strip()
    if digests.get("sweep-pool2") != digests.get("sweep-shared"):
        print(f"ERROR: sweep-pool2 digest {digests.get('sweep-pool2')} != sweep-shared {digests.get('sweep-shared')}")
        ok = False
    print("summary:")
    attempted = failed = 0
    for name, result in results.items():
        attempted += result["attempted"]
        failed += result["failed"]
        ok = ok and result["correct"]
        for metric, entry in result["metrics"].items():
            print(f"  {name:14s} {metric:14s} {entry['value']:14.6g} {entry['unit']}")
    print(f"  error_rate {failed / max(attempted, 1):.6g} fraction ({failed}/{attempted} tasks)")
    ok = ok and len(results) == len(WORKLOAD_NAMES)
    print(json.dumps({"correct": ok, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": {name: result["metrics"] for name, result in results.items()}}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny grids, for the benchmark's own tests")
    args = parser.parse_args(argv)
    _import_program()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.smoke)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
