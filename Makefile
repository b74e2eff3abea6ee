# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: install test lint verify paper drills bench perf perf-compare perf-selftest examples figures clean

install:
	pip install -e . --no-build-isolation

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

# Static analysis (docs/static_analysis.md): reprolint's
# project-invariant rules always run — determinism, lock discipline,
# fault-point coverage, taxonomy conformance.  Style checking goes to
# ruff + mypy when installed; otherwise reprolint's built-in style pack
# covers the zero-dependency case.  Only inline-justified suppressions
# pass; there is no baseline of accepted violations.
lint:
	@flags=""; \
	if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests tools; flags="$$flags --no-style"; \
	else \
		echo "ruff not installed; reprolint style pack covers F401/E501/W19x/W29x"; \
	fi; \
	PYTHONPATH=src $(PYTHON) -m repro lint $$flags
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed; skipping type check"; \
	fi

# Everything tier-1 does not run, so the full gate is tier-1 plus this:
# lint, the drills (real serve subprocesses and kill -9, the
# exhaustive fault sweep, herds that shed, the telemetry plane end to
# end — `python tools/drills.py --list`; it prints its own wall seconds
# per drill), the benchmark's self-test, and the paper's figures
# regenerated.  Tier-1 already runs with the translation sanitizer on
# (tests/conftest.py; docs/verifier.md).  Stages run one after another,
# stop at the first failure, and the wall seconds of each and of the
# whole are printed at the end (ROADMAP: the gate's own cost is tracked
# beside the perf/ rows).
VERIFY_STAGES = lint drills perf-selftest paper
verify:
	@start=$$(date +%s); rows=""; \
	for stage in $(VERIFY_STAGES); do \
		began=$$(date +%s); \
		$(MAKE) --no-print-directory $$stage || exit 1; \
		rows="$$rows$$(printf '\n  %-16s %4d s' $$stage $$(( $$(date +%s) - began )))"; \
	done; \
	printf 'make verify: wall seconds per stage%s\n  %-16s %4d s\n' \
		"$$rows" total $$(( $$(date +%s) - start ))

# Every bench_*.py once (its figure's shape assertions, no timing
# rounds), then fail if a regenerated results/ file differs from the
# checked-in one or a bench left a file git does not know.
paper:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ -q --benchmark-disable
	@drift=$$(git status --porcelain -- results/); \
	if [ -n "$$drift" ]; then \
		echo "paper: regenerated results/ differ from the checked-in files:"; \
		echo "$$drift"; exit 1; \
	fi

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

drills:
	$(PYTHON) tools/drills.py

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
		PYTHONPATH=src $(PYTHON) $$script > /dev/null || exit 1; \
	done; echo "all examples ran"

# Regenerate results/*.txt (the tests and the benchmarks write them).
figures: test bench

# Only what .gitignore lists: results/ is checked in.
clean:
	rm -rf perf/out .pytest_cache .benchmarks .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
