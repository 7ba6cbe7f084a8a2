# Convenience targets for the REncoder reproduction.

.PHONY: install test lint lint-interproc lint-graph lint-baseline sanitize-stress bench bench-smoke bench-kernels bench-faults bench-overload bench-telemetry bench-telemetry-cluster bench-cluster bench-durability trace-smoke cluster-trace-smoke observability chaos serve-stress cluster-stress durability-chaos report examples clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

# Project lint engine (DESIGN.md §10): wall-clock/RNG/one-sided-error/
# lock-discipline rules; fails on findings that are neither baselined
# (lint-baseline.json) nor pragma'd.  ruff/mypy run when installed —
# the custom engine is the gate, third-party lint rides along.
lint: lint-interproc lint-graph
	@if command -v ruff >/dev/null 2>&1; then ruff check src tests benchmarks; \
		else echo "ruff not installed; skipped (CI runs it)"; fi
	@if command -v mypy >/dev/null 2>&1; then mypy src/repro; \
		else echo "mypy not installed; skipped (CI runs it)"; fi

# File-local rules + the four interprocedural passes + the
# stale-baseline ratchet (grandfathered debt only shrinks).
lint-interproc:
	python -m repro lint --interproc

# Export CALLGRAPH.json / LOCKGRAPH.json; fails on any cycle in the
# static ∪ runtime lock-order graph.
lint-graph:
	python -m repro lint --graph

# Rewrite the grandfathered-findings baseline from the current tree.
# Review norm: the baseline only ever shrinks.
lint-baseline:
	python -m repro lint --update-baseline

# Chaos + service stress with the runtime concurrency sanitizer on:
# every threading.Lock/RLock is order- and hold-watched; the run fails
# on any lock-order cycle and writes SANITIZER_REPORT.json.
sanitize-stress:
	REPRO_SANITIZE=1 pytest tests/test_chaos.py tests/test_service_stress.py \
		tests/test_service.py tests/test_sanitizer.py -q

bench:
	pytest benchmarks/ --benchmark-only

# Fused-kernel vs scalar equivalence + throughput smoke; writes
# BENCH_batch_query.json at the repo root (asserts bit-identical
# answers and >= 5x speedup over scalar).
bench-smoke:
	python benchmarks/bench_batch_query.py --preset smoke

# The CI perf gate: smoke bench with the kernel phase breakdown on,
# then the regression check against the committed BENCH_trajectory.jsonl
# headline history (wide tolerance band — catches order-of-magnitude
# regressions, not runner jitter).
bench-kernels:
	REPRO_PROFILE=1 python benchmarks/bench_batch_query.py --preset smoke
	python scripts/check_perf_regression.py --preset smoke

# Crash-recovery overhead under injected faults; writes
# BENCH_fault_recovery.json (asserts every corruption detected,
# zero false negatives after recovery).
bench-faults:
	python benchmarks/bench_fault_recovery.py --preset smoke

# Overload behaviour of the concurrent filter service: shedding vs an
# unbounded baseline, load curve, breaker storm; writes
# BENCH_overload.json (asserts bounded p99 + zero false negatives).
bench-overload:
	python benchmarks/bench_overload.py --preset smoke

# Telemetry overhead on the 64-wide batch-query micro-bench; writes
# BENCH_telemetry.json (asserts tracing-on overhead < 10%).
bench-telemetry:
	python benchmarks/bench_telemetry.py --preset smoke

# Cluster-scale telemetry overhead: routed queries with tracing +
# trace store + federation on vs off; writes
# BENCH_telemetry_cluster.json (asserts overhead < 10%).
bench-telemetry-cluster:
	python benchmarks/bench_telemetry.py --preset cluster

# Sharded-cluster matrix (topology x size x fault profile) plus the
# protected-vs-unprotected failover headline; writes BENCH_cluster.json
# and run_table.csv at the repo root, then gates the headline against
# the committed trajectory.
bench-cluster:
	python benchmarks/bench_cluster.py --preset smoke
	python scripts/check_perf_regression.py --json BENCH_cluster.json \
		--bench cluster --metric headline.kqps

# Recovery-time headline: checkpoint + WAL-tail restore vs full
# rebuild; writes BENCH_durability.json, then gates the restore
# throughput against the committed trajectory.
bench-durability:
	python benchmarks/bench_durability.py --preset smoke
	python scripts/check_perf_regression.py --json BENCH_durability.json \
		--bench durability --metric headline.krps

# One traced range query through the full service stack: prints the
# span tree (queue wait, per-SSTable probes, RBF fetches) and a JSON
# rollup — the observability smoke test.
trace-smoke:
	python -m repro trace-query --n-keys 5000
	python -m repro metrics-dump --queries 50 --format prom | head -20

# Cluster observability smoke: a seeded chaos slice through a small
# cluster, then the tail-sampled cross-replica traces and the
# federated per-shard dashboard (DESIGN.md §14).
cluster-trace-smoke:
	python -m repro trace-show
	python -m repro cluster-top --frames 2

# The full observability acceptance: trace anatomy, federation merge
# equality, SLO burn-rate arc, drift crossing, seeded determinism.
# REPRO_SLO_REPORT names the SLO_REPORT.json artifact (CI uploads it).
observability:
	pytest tests/test_observability_cluster.py tests/test_telemetry.py -q \
		$$(python -c "import pytest_timeout" 2>/dev/null && echo "--timeout=600")

# Fault-injection chaos suite: torn writes, bit flips, transient reads;
# REPRO_CHAOS_SEED pins the fault sequence (CI uses 20230713).
chaos:
	pytest tests/test_chaos.py tests/test_faults.py -q

# Concurrent-service stress: live rebuilds + latency faults + shedding,
# zero false negatives.  REPRO_STRESS_SEED pins the schedule; the
# per-test timeout engages only where pytest-timeout is installed (CI).
serve-stress:
	pytest tests/test_service_stress.py tests/test_service.py -q \
		$$(python -c "import pytest_timeout" 2>/dev/null && echo "--timeout=120")

# Cluster chaos: replica kills, partitions, slow shards and a live
# resharding over >= 10k routed queries — zero false negatives.
# REPRO_CHAOS_SEED pins the whole scenario (CI uses 20230713).
cluster-stress:
	pytest tests/test_cluster_chaos.py tests/test_cluster.py -q \
		$$(python -c "import pytest_timeout" 2>/dev/null && echo "--timeout=600")

# Durability chaos: WAL tears, checkpoint/SSTable rot, crash-restarts
# through the checkpoint + WAL recovery path, then scrub + anti-entropy
# repair — zero false negatives AND zero lost acknowledged writes.
# REPRO_CHAOS_SEED pins the scenario; REPRO_SCRUB_REPORT names the JSON
# artifact the run writes (CI uploads it).
durability-chaos:
	pytest tests/test_durability_chaos.py tests/test_durability.py \
		tests/test_durability_properties.py -q \
		$$(python -c "import pytest_timeout" 2>/dev/null && echo "--timeout=600")

report: bench
	python -m repro report

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f; done

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks benchmarks/results REPORT.md
	find . -name __pycache__ -type d -exec rm -rf {} +
