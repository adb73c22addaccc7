# Developer entry points.  `make ci` is the one-shot gate: lint,
# type-check, and the tier-1 test suite from ROADMAP.md.
#
# ruff and mypy are optional in minimal environments: their steps are
# skipped (with a notice) when the tool is not on PATH, so `make ci`
# always runs to the tests.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: ci lint lint-concurrency typecheck test bench bench-compare profile bench-smoke bench-serve chaos test-threaded serve-soak fuzz

ci: lint lint-concurrency typecheck test bench-smoke bench-serve test-threaded

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "lint: ruff not installed, skipping"; \
	fi

typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "typecheck: mypy not installed, skipping"; \
	fi

# (--durations: the next 15-second test shows in `make ci` the day it lands)
test:
	$(PYTHON) -m pytest -x -q --durations=5

# The benchmark corpus in smoke mode: every paper-artifact bench runs once
# and its assertions (statement-cache parse counts, PP-k pipelining wins,
# pushdown economics, failover economics) gate the build alongside the
# unit tests.
# (the serving ramp runs real threads for wall seconds, so it has its
# own target, bench-serve, and is excluded here.  Six of the seven
# BENCH_*.json files are gates, not outputs: a benchmark fails if an
# exact figure moved, and `python benchmarks/test_<name>.py` regenerates
# its file on purpose; only bench-serve still writes BENCH_serving.json)
bench-smoke:
	$(PYTHON) -m pytest -x -q benchmarks --ignore=benchmarks/test_serving.py

# The layered benchmark (BENCHMARK.json): seven workloads, end-to-end
# metrics untraced, per-layer metrics from a traced repetition; writes
# benchmarks/layered/out/results.json (~3.5 min).  A before/after row is
# two of those files, from two checkouts, fed to bench-compare:
#   make bench-compare A=../parent/benchmarks/layered/out/results.json \
#                      B=benchmarks/layered/out/results.json
bench:
	python3 benchmarks/layered/run.py --seed 1

bench-compare:
	python3 benchmarks/layered/compare.py $(A) $(B)

# The function-level view the layered trace stops short of: replays a
# seeded workload (W=pushed_scan; R=1 keeps only its second request shape)
# with every result checked against the benchmark's oracle, then prints
# per-shape median ms and a cProfile top 30 by self time (SORT=cumulative:
# by time under the function, callees included).  PHASES=1 prints
# each shape's compile / first-run / warm-run split in place of the profile;
# BUILDS=1 the row-backed elements whose tree was built per operation; LANES=1
# per FLWOR stage the batches the column lane answered vs. ran by rows.
profile:
	python3 benchmarks/profile_workload.py --workload $(W) $(if $(R),--request $(R)) $(if $(SORT),--sort $(SORT)) $(if $(PHASES),--phases) $(if $(BUILDS),--builds) $(if $(LANES),--lanes)

# The differential soak, outside `make ci`: fresh generated FLWORs, column
# and carried-column fallbacks and index joins, each at every batch size,
# against the reference interpreter (tier-1 runs a derandomized slice).
fuzz:
	$(PYTHON) tests/test_flwor_differential.py 2000

# Scripted fault-injection runs only: the resilience layer's chaos suite
# (deterministic under the virtual clock — same seed, same run).
chaos:
	$(PYTHON) -m pytest -x -q -m chaos tests benchmarks

# The concurrency lint (A-CONC): the engine's own source is checked for
# unguarded shared-state mutations (ALDSP-C4xx).  Must stay clean.
lint-concurrency:
	$(PYTHON) -m repro lint --concurrency

# The serving-layer overload ramp (R-SERVE): closed-loop clients drive
# the server past saturation; the run asserts graceful degradation
# (goodput within 15% of peak, bounded p99, shed-only rejections) and
# refreshes BENCH_serving.json.
bench-serve:
	$(PYTHON) -m pytest -x -q benchmarks/test_serving.py

# Real-thread stress runs with the lockset race detector enabled.  Set
# STRESS_RUNS=20 for the soak configuration.
test-threaded:
	$(PYTHON) -m pytest -x -q -m threaded tests

# The serving-layer soak: the threaded serving suite (per-request
# isolation, close() races, the full session+admission stack) repeated
# with the race detector on.
serve-soak:
	STRESS_RUNS=20 $(PYTHON) -m pytest -x -q tests/threaded/test_serving.py
