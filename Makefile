# Developer convenience targets.

PYTHON ?= python

.PHONY: install test coverage bench bench-quick bench-regression examples serve-smoke chaos-smoke trace-smoke fleet-smoke load-smoke incremental-smoke lint lint-full typecheck src-delta clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

# Line coverage over src/repro with the floor recorded in pyproject.toml
# ([tool.coverage.report] fail_under); the CI coverage job uploads the
# HTML report as a workflow artifact.
coverage:
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
		PYTHONPATH=src $(PYTHON) -m pytest tests/ --cov=repro --cov-report= \
		&& $(PYTHON) -m coverage html -d coverage-html \
		&& $(PYTHON) -m coverage report; \
	else \
		echo "pytest-cov is not installed; skipping (pip install pytest-cov)"; \
	fi

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

bench-quick:
	REPRO_BENCH_SCALE=quick $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Pinned-workload perf snapshots + the regression gate over them
# (see docs/performance.md).  Measures the legacy per-candidate path
# (BENCH_baseline.json) and the kernel path (BENCH_kernels.json) fresh
# on this machine, then gates: the kernel path must not run slower than
# legacy beyond the tolerance band (tiny cases are overhead-bound, the
# large Figure 7 points show the speedup).
bench-regression:
	PYTHONPATH=src $(PYTHON) -m repro.bench.regression run --legacy --out BENCH_baseline.json
	PYTHONPATH=src $(PYTHON) -m repro.bench.regression run --out BENCH_kernels.json
	PYTHONPATH=src $(PYTHON) -m repro.bench.regression compare BENCH_kernels.json BENCH_baseline.json --tolerance 0.5

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script > /dev/null || exit 1; \
	done
	@echo "all examples ran"

serve-smoke:
	PYTHONPATH=src $(PYTHON) scripts/serve_smoke.py

# Fault-injection counterpart of serve-smoke: SIGKILL a worker mid-job
# and require a bit-identical recovery, twice on one daemon (the second
# job breaks the replacement pool), then a clean degraded job and a
# client that absorbs injected 503s (docs/robustness.md).
chaos-smoke:
	PYTHONPATH=src $(PYTHON) scripts/chaos_smoke.py

# Observability counterpart of serve-smoke: trace a multi-process mine
# through the CLI and the daemon, then require the shard spans of every
# worker to stitch under a single job root, per job for two jobs on one
# daemon's warm workers (docs/observability.md).
trace-smoke:
	PYTHONPATH=src $(PYTHON) scripts/trace_smoke.py

# Distributed counterpart of chaos-smoke: a coordinator plus two worker
# node processes, one SIGKILLed while it holds a shard lease — the
# reclaim must re-queue its shards and the job must finish bit-identical
# with a single stitched trace (docs/distributed.md).
fleet-smoke:
	PYTHONPATH=src $(PYTHON) scripts/fleet_smoke.py

# Load counterpart of serve-smoke: a concurrent submission storm
# against the selector front door, gating the server-side p99 against
# LOAD_thresholds.json and requiring zero dropped accepted jobs plus
# crisp 429/Retry-After shedding under overload (docs/service.md).
# Laptop-sized by default; CI scales it up (LOAD_CLIENTS=1000).
LOAD_CLIENTS ?= 32
LOAD_DURATION ?= 3
load-smoke:
	PYTHONPATH=src LOAD_CLIENTS=$(LOAD_CLIENTS) LOAD_DURATION=$(LOAD_DURATION) $(PYTHON) scripts/load_smoke.py

# Revision counterpart of serve-smoke: mine a base matrix, run an
# append_genes and an append_conditions revision (ordinary jobs on the
# child matrix, each index built cold), each bit-identical to a
# from-scratch mine — then a 2x2 sweep that must build exactly one cold
# index per gamma (docs/incremental.md).
incremental-smoke:
	PYTHONPATH=src $(PYTHON) scripts/incremental_smoke.py

lint:
	PYTHONPATH=src $(PYTHON) -m repro.analysis src/repro tests benchmarks examples

# Whole-program phase on top of the file-local rules: cross-module
# concurrency/fork-safety/hygiene analysis over src/repro, gated
# against the committed reglint-baseline.json (fails only on NEW
# findings — see docs/static_analysis.md).  Kept separate from `lint`
# so the fast default loop is unchanged.
lint-full:
	PYTHONPATH=src $(PYTHON) -m repro.analysis --whole-program src/repro

typecheck:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy is not installed; skipping (pip install mypy)"; \
	fi

# Lines added, removed and net under src/ between $(BASE) and the
# working tree (new files count once staged) — the figure every
# CHANGES.md entry reports.  `make src-delta BASE=<commit>` measures a
# whole change; the default BASE=HEAD shows what is not yet committed.
BASE ?= HEAD
src-delta:
	@git diff --numstat $(BASE) -- src | awk '{added += $$1; removed += $$2} END {printf "src/: +%d -%d, net %+d lines\n", added, removed, added - removed}'

clean:
	rm -rf .pytest_cache .benchmarks build dist *.egg-info
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
