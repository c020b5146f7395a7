PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-compiled test-mp test-blas mem-check lint lint-strict docs-check analysis static-check obs report resilience-check serve-check check

test:
	$(PYTHON) -m pytest -x -q

# Same tier-1 suite under the compiled step-plan backend.  Both
# backends run the same kernel bodies in the same loop
# (StepPlan.execute), so this leg checks the plan cache and admission
# against a step captured afresh: records, markers, and fault, span and
# access-capture hooks acting on the admitted plan without leaving it.
test-compiled:
	REPRO_BACKEND=compiled $(PYTHON) -m pytest -x -q

# Spawn-mode smoke: a focused tier-1 subset executed through the
# process-parallel mp backend (ambient $REPRO_BACKEND selection).  Every
# stepping simulation spawns its own worker pool, so the *full* suite
# under mp would be pathological; the dedicated suite plus the
# facade/physics subsets cover the contract.
test-mp:
	REPRO_BACKEND=mp $(PYTHON) -m pytest -x -q tests/test_mp_backend.py \
		tests/test_simulation.py tests/test_fusion_equivalence.py

# Bit-identity across executors rests on one promise of the collision
# kernels: a cell's result does not depend on where its column sits in a
# call (DESIGN.md section 17, decision 2).  It has to hold for whatever
# kernel set the BLAS dispatches to, not only this host's, so the tests
# that rely on it run again under two others (both load on any x86-64;
# OPENBLAS_VERBOSE=2 prints the core once, so the log shows the override
# took).  One BLAS thread: above a size threshold a threaded OpenBLAS
# cuts Q into per-thread chunks, and the Nehalem kernels round a chunk's
# edge rows differently, so there a cell also depends on the width of
# its call -- as it did before the moment-space kernels (DESIGN.md).
test-blas:
	@for core in Nehalem Sandybridge; do \
		OPENBLAS_CORETYPE=$$core OPENBLAS_VERBOSE=2 OPENBLAS_NUM_THREADS=1 \
		$(PYTHON) -m pytest -x -q tests/test_collision.py \
			tests/test_mp_backend.py tests/test_reference.py || exit 1; \
	done

# Live bytes (DESIGN.md sections 11, 18): the tracemalloc guard on the
# 16^3 x 3 anchor (one pull table per level, shared by grid and engine;
# every grid table int32 and priced by gpu.memory.index_bytes; admission
# and state_digest copy nothing), the dead-state proof (only f
# crosses a coarse step, all 7 configs, dynamic and static) and the
# format-2 checkpoint contract; and the grid compile's tracemalloc peak
# over its result (half sphere, anchor: each level's dense tables are
# locals of its compile).  Under 30 s; also part of `make test`.
mem-check:
	$(PYTHON) -m pytest -x -q tests/test_live_state.py \
		"tests/test_multigrid.py::TestCompileMemory"

# ruff and mypy are optional dev tools (pip install -e ".[lint]").
# Skipping when absent is deliberate: the guard only bypasses the tool
# lookup, never a real lint failure.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed -- skipping (pip install -e '.[lint]')"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed -- skipping (pip install -e '.[lint]')"; \
	fi

# CI variant of `lint`: the tools are mandatory.  CI installs them
# unconditionally (pip install -e ".[lint]"), so a missing tool there is
# an environment bug, not something to skip over.
lint-strict:
	@command -v ruff >/dev/null 2>&1 || { echo "lint-strict: ruff not installed"; exit 1; }
	@command -v mypy >/dev/null 2>&1 || { echo "lint-strict: mypy not installed"; exit 1; }
	ruff check src tests benchmarks examples
	mypy

# Documentation gate: pydocstyle D rules on the public API surface of
# repro.backend / repro.neon (scoped in pyproject.toml) plus the
# internal markdown link/anchor checker.  Like `lint`, a missing ruff
# is skipped locally; CI installs it and so enforces both halves.
docs-check:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src/repro/backend src/repro/neon; \
	else \
		echo "ruff not installed -- skipping docstring lint (pip install -e '.[lint]')"; \
	fi
	$(PYTHON) tools/check_links.py

# Declaration verifier + race detector, on the interpreted path and on
# replayed compiled plans (capture does not change which code runs).
analysis:
	$(PYTHON) -m repro analysis --all-configs
	REPRO_BACKEND=compiled $(PYTHON) -m repro analysis --all-configs

# Declaration-time gate, no body runs: the bound bodies' access reports
# against the declarations, fusion-legality proofs, lint pass, step-plan
# certificates and the seeded-illegal negative control.
static-check:
	$(PYTHON) -m repro analysis --static --all-configs --cert-dir certificates

# Telemetry smoke: trace + metrics artifacts for the Fig. 2 golden cavity.
obs:
	$(PYTHON) -m repro obs --workload cavity2d --config case --out-dir obs-artifacts
	$(PYTHON) -m repro obs --workload cavity2d --config baseline --out-dir obs-artifacts

# Observatory run report: trace + metrics + roofline + lint + certificate
# digest + event log for the Fig. 2 golden cavity, text/HTML/JSON.
report:
	$(PYTHON) -m repro report --workload cavity2d --config case \
		--out-dir report-artifacts

# Fault matrix: inject NaN / kernel / OOM faults into every fusion
# config on compiled plan replay, serial and threaded, and require
# bit-identical recovery, zero plan_fallback_steps and visible telemetry
# (retries_total, rollback events).  Exit status gates.
resilience-check:
	$(PYTHON) -m repro resilience --out-dir resilience-artifacts

# Job-server gate: a chaos-flooded multi-tenant demo (exit code fails on
# any lost job) plus the focused fairness / restart-resume / chaos tests.
serve-check:
	$(PYTHON) -m repro serve --jobs 12 --tenants 3 --workers 2 \
		--chaos 0.3 --seed 1 --out-dir serve-artifacts
	$(PYTHON) -m repro serve --summary --out-dir serve-artifacts
	$(PYTHON) -m pytest -x -q tests/test_serve.py -k "fair or resume or chaos"

check: lint docs-check test test-compiled test-mp test-blas mem-check static-check resilience-check serve-check report
