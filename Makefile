# Developer entry points. `make test` is the tier-1 gate; `make bench-smoke`
# runs the perf harness on the smallest workload and validates the JSON
# schema; `make smoke` checks that pooled, sharded, resumed, compacted,
# traced and fault-injected runs of a tiny committed spec all reproduce
# its serial digest; `make paper` runs the paper-claim benchmarks;
# `make perfbench-smoke` runs the campaign benchmark's own tests;
# `make check` chains coverage, bench-smoke, smoke, paper and
# perfbench-smoke.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

SMOKE_DIR := .bench-smoke

.PHONY: test bench bench-smoke smoke paper perfbench-smoke campaign-demo coverage check install clean

test:
	$(PYTHON) -m pytest -x -q

# Line-coverage gate over src/repro/{core,maxis,graphs,runtime,obs}
# (fail-under floor lives in scripts/coverage.py; measured with the stdlib
# trace module).  Runs the full test suite itself, so `check` does not
# also need the plain `test` target.
coverage:
	$(PYTHON) scripts/coverage.py

bench:
	$(PYTHON) -m repro bench --out-dir .

bench-smoke:
	$(PYTHON) -m repro bench --smoke --out-dir $(SMOKE_DIR) --repeats 1
	$(PYTHON) scripts/validate_bench.py $(SMOKE_DIR)

# One serial run of the committed 8-task spec (examples/campaign_smoke.json)
# is the reference digest for four legs: obs (traced run, trace sidecar
# schema, metric catalog), campaign (2-shard split fused by merge_shards,
# a warm persistent pool, kill+resume), store (summary-index reads,
# warm-sidecar resume, compaction) and chaos (the ShardCoordinator under
# injected kills + hangs).  Every leg must reproduce the digest.
smoke:
	$(PYTHON) scripts/smoke.py

# The paper's claims (E1-E9: Lemma 2.1(a)/(b), phase decay, the k*rho
# color budget, the model gap) as the benchmark suite's assertions.
paper:
	$(PYTHON) -m pytest -q benchmarks -o python_files="bench_*.py"

# The campaign benchmark's smoke tests (perfbench/, --smoke grids).  Its
# traced mode wraps src entry points by name, so a src rename that breaks
# the benchmark fails here.
perfbench-smoke:
	$(PYTHON) -m pytest perfbench -q

# The committed ≥200-task demo campaign (examples/campaign_demo.json).
campaign-demo:
	$(PYTHON) -m repro campaign run --spec examples/campaign_demo.json --out .campaign-demo --workers 4
	$(PYTHON) -m repro campaign report --out .campaign-demo

check: coverage bench-smoke smoke paper perfbench-smoke

# pip's PEP-517 editable path needs the `wheel` package; fall back to the
# legacy develop install on environments that ship setuptools without it.
install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

clean:
	rm -rf $(SMOKE_DIR) .smoke .campaign-demo .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
