# Developer entry points.  Everything runs from the repo root with no
# installation: src/ goes on PYTHONPATH.  See README.md.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-sanitize test-chaos chaos lint bench bench-lifecycle bench-distributed bench-service bench-columnar bench-sparse bench-kernels docs-check check

# Tier-1 verification: the full unit/integration suite, fail-fast.
test:
	$(PYTHON) -m pytest -x -q

# The sketch/service suites with the runtime sanitizer armed: kernels
# assert canonical-range preconditions, snapshots assert clone
# independence (see src/repro/util/sanitize.py and docs/invariants.md).
test-sanitize:
	REPRO_SANITIZE=1 $(PYTHON) -m pytest tests/sketch tests/service -x -q

# The fault/recovery pins: crash-at-every-epoch checkpoint sweeps,
# corrupted-checkpoint fallback chains, worker retry bit-identity on
# both backends, degraded queries, and the adversarial scenario
# (docs/robustness.md).
test-chaos:
	$(PYTHON) -m pytest tests/faults -x -q

# The end-to-end chaos harness at a fixed seed: workload under worker
# crash/hang + checkpoint corruption faults, recovered state must be
# bit-identical to an unfaulted run (exit 1 otherwise).
chaos:
	$(PYTHON) -m repro chaos --seed 7

# Repo-native static analysis: the sketch contract, field-arithmetic,
# determinism, and wire-format invariants (docs/invariants.md catalogues
# every SLNNN code).
lint:
	$(PYTHON) -m tools.sketchlint src/

# Paper-claim experiments E1-E8 plus the bench gates; tables are
# printed and written to benchmarks/results/.
bench:
	$(PYTHON) -m pytest benchmarks/ -q

# The GraphSession lifecycle benchmark (ingest, snapshot, query,
# checkpoint) on all three workloads at a fixed seed; every answer is
# checked against the session's exact ledger and a wrong one exits 1.
bench-lifecycle:
	$(PYTHON) benchmarks/lifecycle/run.py --all --seed 0

# The distributed engine gates: sharded output == single-stream output
# on every backend/discipline, and >=2x multi-process speedup at 4
# workers on a 10^6-update stream (speedup skips on <2-CPU hosts).
bench-distributed:
	$(PYTHON) -m pytest benchmarks/bench_distributed.py -q

# The live sketch-store gates: a 10^6-update session ingests above the
# throughput floor, answers queries mid-stream, kill/restore from a
# checkpoint is bit-identical, the epoch cache is >=10x, and disabled
# telemetry stays within 3% of the floor.  Then the regression check of
# the fresh phase-attributed BENCH_service_phases.json against the
# committed floors.  No parallel-speedup gate (host may expose 1 CPU).
bench-service:
	$(PYTHON) -m pytest benchmarks/bench_service.py -q
	$(PYTHON) tools/perf_regress.py service_phases

# The columnar-engine gates: >=3x algorithm-level columnar-vs-scalar
# speedup with bit-identical state on 10^5-update streams (single-core
# gates only), then the machine-readable regression check of the fresh
# BENCH_columnar.json against the committed baseline floors.
bench-columnar:
	$(PYTHON) -m pytest benchmarks/bench_columnar.py -q
	$(PYTHON) tools/perf_regress.py columnar

# The sparse vertex-universe gates: a 10^7-id session answers all four
# query kinds with resident sketch words proportional to touched
# vertices (not the universe), a sparse space's wire state bit-identical
# to a dense space's on a long stream (one stack storage: the space
# changes what is enumerated, never what is stored), ingest above the
# throughput floor, then the regression check of the fresh
# BENCH_sparse.json against the committed floors.
# Single-core gates only (no parallel-speedup assumptions).
bench-sparse:
	$(PYTHON) -m pytest benchmarks/bench_sparse_universe.py -q
	$(PYTHON) tools/perf_regress.py sparse

# The kernel-backend gates: limb end-to-end speedup over the committed
# columnar floor, bit-identical state across the reference and limb
# backends (dense and sparse spaces + weighted + kill/restore), the
# adaptive ladder's grow-without-re-ingest identity past 10^6 touched vertices,
# then the regression check of the fresh BENCH_kernels.json against
# the committed floors.  Single-core gates only.
bench-kernels:
	$(PYTHON) -m pytest benchmarks/bench_kernels.py -q
	$(PYTHON) tools/perf_regress.py kernels

# Documentation gates: public-API docstring coverage, and the docs the
# README promises must exist.
docs-check:
	$(PYTHON) tools/check_docstrings.py
	@for f in README.md docs/paper_map.md docs/performance.md docs/invariants.md docs/observability.md docs/robustness.md; do \
		test -f $$f || { echo "missing $$f"; exit 1; }; \
	done
	@echo "docs OK: README.md, docs/paper_map.md, docs/performance.md, docs/invariants.md, docs/observability.md, docs/robustness.md present"

# Everything a PR should pass: the sketchlint invariants, docs gates
# (docstring coverage), the unit/integration suite (plus the
# sanitizer-armed sketch/service subset and the fault/recovery pins),
# the fixed-seed chaos harness, the distributed-engine gates, the live
# service gates, the columnar-engine speedup/regression gates, the
# sparse vertex-universe memory/identity gates, the kernel-backend
# speedup/identity/ladder gates, and the lifecycle benchmark's answer
# checks.
check: lint docs-check test test-sanitize test-chaos chaos bench-distributed bench-service bench-columnar bench-sparse bench-kernels bench-lifecycle
