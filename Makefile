# Developer entry points. `make test` is the tier-1 gate; `make bench-smoke`
# runs the perf harness on the smallest workload and validates the JSON
# schema; `make campaign-smoke` checks the campaign runtime's serial-vs-pool
# byte identity and resume on a tiny committed spec; `make chaos-smoke`
# supervises that spec under injected kills + hangs and asserts the digest
# still matches the serial reference; `make store-smoke` proves the serial,
# warm-sidecar-resumed and compacted stores (full-row and summary-index
# read paths) all land on one digest; `make obs-smoke` runs it with --trace and checks
# the sidecar schema, the metric catalog and digest identity.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

SMOKE_DIR := .bench-smoke

.PHONY: test bench bench-smoke campaign-smoke chaos-smoke store-smoke obs-smoke campaign-demo coverage check install clean

test:
	$(PYTHON) -m pytest -x -q

# Line-coverage gate over src/repro/{core,maxis,graphs} (fail-under floor
# lives in scripts/coverage.py; uses pytest-cov when installed, stdlib
# trace otherwise).  Runs the full test suite itself, so `check` does not
# also need the plain `test` target.
coverage:
	$(PYTHON) scripts/coverage.py

bench:
	$(PYTHON) -m repro bench --out-dir .

bench-smoke:
	$(PYTHON) -m repro bench --smoke --out-dir $(SMOKE_DIR) --repeats 1
	$(PYTHON) scripts/validate_bench.py $(SMOKE_DIR)

# Tiny 8-task campaign: serial executor, 2-shard split fused by
# merge_shards, a persistent 2-worker pool (warm start asserted) and a
# simulated kill+resume must all produce byte-identical aggregates.
campaign-smoke:
	$(PYTHON) scripts/campaign_smoke.py

# The same 8-task campaign supervised by the ShardCoordinator under a
# deterministic fault plan: one shard's worker is killed mid-run, another
# shard hangs until the per-task watchdog fires; the recovered run must
# reproduce the serial digest byte-for-byte.
chaos-smoke:
	$(PYTHON) scripts/chaos_smoke.py

# The same 8-task campaign through the store's read paths: the serial
# store, a kill+resume from a warm summary sidecar and a compacted store
# must all reproduce the serial digest, through both the full-row and the
# summary-index paths.
store-smoke:
	$(PYTHON) scripts/store_smoke.py

# The same 8-task campaign with --trace: the trace.jsonl sidecar must be
# schema-valid and hold the full span tree, the persisted metrics.json
# must cover the required metric catalog, and the traced digest must be
# byte-identical to the untraced reference.
obs-smoke:
	$(PYTHON) scripts/obs_smoke.py

# The committed ≥200-task demo campaign (examples/campaign_demo.json).
campaign-demo:
	$(PYTHON) -m repro campaign run --spec examples/campaign_demo.json --out .campaign-demo --workers 4
	$(PYTHON) -m repro campaign report --out .campaign-demo

check: coverage bench-smoke campaign-smoke chaos-smoke store-smoke obs-smoke

# pip's PEP-517 editable path needs the `wheel` package; fall back to the
# legacy develop install on environments that ship setuptools without it.
install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

clean:
	rm -rf $(SMOKE_DIR) .campaign-smoke .campaign-demo .chaos-smoke .store-smoke .obs-smoke .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
