# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: install test lint lint-strict verify verify-suite bench bench-smoke chaos trace-smoke serve-smoke fleet-smoke cluster-smoke monitor-smoke overload-smoke perf perf-compare perf-selftest examples figures clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

# Static analysis (docs/static_analysis.md): reprolint's
# project-invariant rules always run — determinism, lock discipline,
# fault-point coverage, taxonomy conformance.  Style checking goes to
# ruff + mypy when installed; otherwise reprolint's built-in style pack
# covers the zero-dependency case.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests tools; \
		PYTHONPATH=src $(PYTHON) -m repro lint --no-style; \
	else \
		echo "ruff not installed; reprolint style pack covers F401/E501/W19x/W29x"; \
		PYTHONPATH=src $(PYTHON) -m repro lint; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed; skipping type check"; \
	fi

# The verify-gate flavor: the baseline escape hatch is disabled, so
# legacy violations fail too; only inline-justified suppressions pass.
lint-strict:
	PYTHONPATH=src $(PYTHON) -m repro lint --strict

# Lint + the tier-1 suite with the translation verifier forced on
# (the autouse sanitizer fixture arms the full rule-pack at every
# TranslationDirectory.install; see docs/verifier.md), plus the
# warm-start smoke gate, the seeded chaos gate and the observability
# smoke gate.  Stages run one after another, stop at the first failure,
# and the wall seconds of each and of the whole are printed at the end
# (ROADMAP: the gate's own cost is tracked beside the perf/ rows).
VERIFY_STAGES = lint lint-strict bench-smoke chaos trace-smoke serve-smoke fleet-smoke cluster-smoke monitor-smoke overload-smoke perf-selftest verify-suite
verify:
	@start=$$(date +%s); rows=""; \
	for stage in $(VERIFY_STAGES); do \
		began=$$(date +%s); \
		$(MAKE) --no-print-directory $$stage || exit 1; \
		rows="$$rows$$(printf '\n  %-16s %4d s' $$stage $$(( $$(date +%s) - began )))"; \
	done; \
	printf 'make verify: wall seconds per stage%s\n  %-16s %4d s\n' \
		"$$rows" total $$(( $$(date +%s) - start ))

verify-suite:
	REPRO_VERIFY=1 PYTHONPATH=src $(PYTHON) -m pytest -x -q tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Fast gate for the persistent translation cache: a warm start from the
# repository must do strictly fewer (in fact zero) BBT translations and
# cost fewer simulated cycles than a cold start (docs/persistence.md).
# The run appends its metrics to results/bench_history.jsonl; the
# trajectory gate then fails on any regression beyond tolerance.
bench-smoke:
	$(PYTHON) tools/bench_smoke.py
	PYTHONPATH=src $(PYTHON) -m repro bench diff

# Seeded fault-injection gate: every fault class, every workload, warm
# and cold — faulted runs must match their fault-free baselines exactly,
# and fsck must repair every injected disk corruption
# (docs/robustness.md).
chaos:
	$(PYTHON) tools/chaos.py

# Observability gate: every seed workload's trace export must pass the
# checked-in schema with conserved per-phase cycle totals, traced runs
# must be byte-identical, and disabled tracing must cost nothing
# measurable on the throughput hot loop (docs/observability.md).
trace-smoke:
	$(PYTHON) tools/trace_smoke.py

# Shared-cache server gate: spawn a real server subprocess, push and
# warm-boot through it, then kill -9 it — degraded clients must still
# reproduce the cold run's architected results (docs/cache_server.md).
serve-smoke:
	$(PYTHON) tools/server_smoke.py

# Mass-boot gate: sweep every boot/image policy pair on a small herd —
# architected equality per instance, valid percentile reports, a real
# amortization gain in the staged shared-image scenario, and
# byte-identical same-seed reports (docs/fleet.md).
fleet-smoke:
	$(PYTHON) tools/fleet_smoke.py

# Cluster gate: a real 3x2 shard grid of serve subprocesses — push a
# workload, kill -9 the primary of a record-owning group mid-herd,
# push another workload while it is down, then restart it and prove
# anti-entropy re-replicates exactly its missed share; every boot must
# byte-match its cold baseline throughout (docs/cluster.md).
cluster-smoke:
	$(PYTHON) tools/cluster_smoke.py

# Telemetry gate: a --collect fleet over a live 3x2 cluster must embed
# passing SLO verdicts in a byte-deterministic collector snapshot, and
# its merged Perfetto trace must flow-link every client pull/push span
# to the server span that served it; `repro monitor` must read the
# same cluster end to end (docs/observability.md).
monitor-smoke:
	$(PYTHON) tools/monitor_smoke.py

# Overload-protection gate: a 16-boot cold herd through a deliberately
# undersized server must shed (retryable 'overloaded' + retry_after),
# keep retry amplification at or under the 2x budget target, accept no
# response past its deadline, and byte-match the fault-free architected
# state; a forced hedge drill through a live 1x2 cluster must win on
# the sibling replica (docs/overload.md).
overload-smoke:
	$(PYTHON) tools/overload_smoke.py

# Host-clock benchmark (perf/README.md): all four boot workloads, every
# end-to-end metric by name, results under perf/out/.  About two
# minutes; timings are only meaningful on an otherwise idle host.
perf:
	$(PYTHON) perf/run.py

# A/B the host-clock benchmark: PERF_BASE (default HEAD, i.e. the
# parent of an uncommitted change) is checked out into a temporary git
# worktree, then each tree's own perf/run.py measures its own src/ once
# per seed of PERF_SEEDS, the two sides alternating which goes first,
# and perf/compare.py prints the verdict table (exit 1 on a regression
# or a moved exact count).  Use seeds no run of the change has seen.
# PERF_ARGS goes to both run.py (e.g. --trace).  About 4 minutes per
# seed; only meaningful on an otherwise idle host.  The default
# (untraced) comparison must end "0 regressed or mismatched".  With
# PERF_ARGS=--trace, compare.py counts cacheserver.frame_bytes among its
# exact counts, so a change to the record or frame layout (PR 15: 299 176
# -> 173 486 bytes) prints one expected MISMATCH row per seed on each
# workload that moves frames (served_boot, herd) and exits 1: report
# the rows, do not edit perf/.
PERF_BASE ?= HEAD
PERF_SEEDS ?= 11 12 13
perf-compare:
	@set -e; tmp=$$(mktemp -d); \
	trap 'git worktree remove --force "$$tmp/tree" 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	git worktree add --detach "$$tmp/tree" $(PERF_BASE) >/dev/null; \
	mkdir "$$tmp/parent" "$$tmp/change"; \
	order="parent change"; \
	for seed in $(PERF_SEEDS); do \
		for side in $$order; do \
			if [ $$side = parent ]; then root="$$tmp/tree"; else root=.; fi; \
			echo "== seed $$seed: $$side"; \
			$(PYTHON) "$$root/perf/run.py" --seed $$seed $(PERF_ARGS) \
				--out "$$tmp/$$side/run-seed$$seed.json" || true; \
		done; \
		if [ "$$order" = "parent change" ]; then order="change parent"; \
		else order="parent change"; fi; \
	done; \
	$(PYTHON) perf/compare.py "$$tmp/parent" "$$tmp/change"

# The benchmark's own parts (estimators, span accounting, generator,
# contract line) checked without timing anything long.
perf-selftest:
	$(PYTHON) perf/selftest.py

# Run every example script end to end.
examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script > /dev/null || exit 1; \
	done; echo "all examples ran"

# Regenerate results/*.txt and the archived outputs.
figures:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf results .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
