PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-compiled test-mp test-blas mem-check physics-check examples lint lint-strict docs-check analysis report resilience-check serve-check check

test:
	$(PYTHON) -m pytest -x -q

# Same tier-1 suite under the compiled step-plan backend.  Both
# backends run the same kernel bodies in the same loop
# (StepPlan.execute), so this leg checks the plan cache and admission
# against a step captured afresh: records, markers, and the fault and
# span hooks acting on the admitted plan without leaving it.
test-compiled:
	REPRO_BACKEND=compiled $(PYTHON) -m pytest -x -q

# Spawn-mode smoke: a focused tier-1 subset executed through the
# process-parallel mp backend (ambient $REPRO_BACKEND selection).  Every
# stepping simulation spawns its own worker pool, so the *full* suite
# under mp would be pathological; the dedicated suite plus the
# facade/physics subsets cover the contract, and the executor digest
# matrix (threaded and mp against serial, 7 configs x 2 grids).
test-mp:
	REPRO_BACKEND=mp $(PYTHON) -m pytest -x -q tests/test_mp_backend.py \
		tests/test_simulation.py tests/test_fusion_equivalence.py \
		"tests/test_executor.py::TestDigestMatrix"

# Bit-identity across executors rests on one promise of the collision
# kernels: a cell's result does not depend on where its column sits in a
# call (DESIGN.md section 17, decision 2).  It has to hold for whatever
# kernel set the BLAS dispatches to, not only this host's, so the tests
# that rely on it run again under four others (all load on any x86-64
# with AVX2; OPENBLAS_VERBOSE=2 prints the core once, so the log shows
# the override took).  Haswell and Zen round a float32 column by its
# place in the sgemm, so in float32 the promise is that a level cut on
# collide-tile boundaries steps to the same bits (the split test below).
# One BLAS thread: above a size threshold a threaded OpenBLAS
# cuts Q into per-thread chunks, and the Nehalem kernels round a chunk's
# edge rows differently, so there a cell also depends on the width of
# its call -- as it did before the moment-space kernels (DESIGN.md).
test-blas:
	@for core in Nehalem Sandybridge Haswell Zen; do \
		OPENBLAS_CORETYPE=$$core OPENBLAS_VERBOSE=2 OPENBLAS_NUM_THREADS=1 \
		$(PYTHON) -m pytest -x -q tests/test_collision.py \
			tests/test_mp_backend.py tests/test_reference.py \
			tests/test_cell_split.py::test_parts_start_on_the_collide_tile || exit 1; \
	done

# Live bytes (DESIGN.md sections 11, 18): the tracemalloc guards on the
# 16^3 x 3 anchor and the half-sphere 4b tunnel (one population buffer
# and one in-place stream scratch per level; one pull table per level,
# shared by grid and engine;
# every grid table int32 and counted by gpu.memory.memory_ledger; admission
# and state_digest copy nothing), the dead-state proof (only f
# crosses a coarse step, all 7 configs, dynamic and static) and the
# format-2 checkpoint contract; the host allocating exactly what the
# stream addresses (every level collides and streams in place, checked
# against the two-buffer textbook bodies); and the grid
# compile's tracemalloc peak over its result (half sphere, anchor: each
# level's dense tables are locals of its compile).  The heap tests assert
# through gpu.memory.memory_ledger, the one walker over the grid's and the
# engine's arrays, which must be within 2 % of the steady heap.  Under
# 30 s; also part of `make test`.
mem-check:
	$(PYTHON) -m pytest -x -q tests/test_live_state.py \
		"tests/test_multigrid.py::TestCompileMemory" \
		"tests/test_engine.py::TestInPlace"

# Physics on a refined grid (ROADMAP item 1): the Re 100 cylinder's mean
# drag and Strouhal number, float32 and float64 each within 1 % / 2 % of
# the pinned float64 run (~1 min; tools/physics_gate.py says why the
# wake is seeded).
physics-check:
	$(PYTHON) tools/physics_gate.py

# The five examples/*.py end to end (~12 s), each run from a temporary
# directory that is removed afterwards; a script that takes --outdir
# writes there.  Any example that exits non-zero fails the target.
examples:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for ex in examples/*.py; do \
		echo "== $$ex"; \
		out=; grep -q -- '"--outdir"' $$ex && out="--outdir $$tmp/out"; \
		(cd $$tmp && PYTHONPATH=$(CURDIR)/src $(PYTHON) $(CURDIR)/$$ex $$out) \
			|| exit 1; \
	done

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

# One pass over the capture's access map (what the bodies' reports state,
# which the launch records are read off; no body runs for it):
# fusion-legality proofs, lint pass, step-plan certificates carrying the
# records' waves the executors replay, a short run that must stay finite, and the seeded-illegal
# negative controls (a hoisted Collision; an Explode moved behind the
# coarser Stream that overwrites what it reads).
analysis:
	$(PYTHON) -m repro analysis --all-configs --cert-dir certificates

# Telemetry run on the Fig. 2 golden cavity, fused and unfused: Perfetto
# trace (re-read and validated), run report (metrics + roofline + lint +
# certificate digest, text/HTML/JSON), event log and memory ledger.  Each
# run must launch the paper's kernel count per coarse step: 10 for ours-4f,
# 29 for baseline-4b; each report's memory section must hold populations
# and its family bytes must sum to its total.
report:
	$(PYTHON) -m repro report --workload cavity2d --config ours-4f \
		--out-dir report-artifacts
	$(PYTHON) -m repro report --workload cavity2d --config baseline-4b \
		--out-dir report-artifacts
	$(PYTHON) -c "import json; \
		r = {c: json.load(open(f'report-artifacts/report_cavity2d_{c}.json')) \
		     for c in ('ours-4f', 'baseline-4b')}; \
		k = {c: set(v['kernels_per_step']) for c, v in r.items()}; \
		assert k == {'ours-4f': {10}, 'baseline-4b': {29}}, k; \
		m = {c: v['memory'] for c, v in r.items()}; \
		assert all(sum(n for lv in v['levels'] for n in lv.values()) == v['total'] \
		           and sum(lv.get('populations', 0) for lv in v['levels']) > 0 \
		           for v in m.values()), m; \
		print('kernels/step:', k, 'memory total:', {c: v['total'] for c, v in m.items()})"

# Fault matrix: inject NaN / kernel / OOM faults into every fusion
# config on compiled plan replay, serial and threaded, and require
# bit-identical recovery, zero plan_fallback_steps and a visible trail in
# each run's RunResult (its retries, its rollback events).  Exit status
# gates.
resilience-check:
	$(PYTHON) -m repro resilience --out-dir resilience-artifacts

# Job-server gate: a chaos-flooded multi-tenant demo (exit code fails on
# any lost job), its fleet summary derived from the job records, plus the
# focused fairness / restart-resume / runner-resume / chaos / summary tests,
# the served-recovery test (retry / rollback lines in events.jsonl) and the
# worker-process tests (two pids at once, SIGKILL resume, no child left
# after stop, an unwritable final record, a boundary the server cannot
# record, an idle worker's death, queue wait in job.json), the torn log
# tail a restarted server terminates, and the per-worker grid cache (a hit
# equals a direct run, a poisoned entry is rebuilt, verdicts reused across
# viscosities but not fusion configs, eviction under the budget).
serve-check:
	$(PYTHON) -m repro serve --jobs 12 --tenants 3 --workers 2 \
		--chaos 0.3 --seed 1 --out-dir serve-artifacts
	$(PYTHON) -m repro serve --summary --out-dir serve-artifacts
	$(PYTHON) -m pytest -x -q tests/test_serve.py tests/test_resilience.py \
		-k "fair or resume or chaos or summary or recoveries or WorkerProcesses or GridCache or CrashPoints"

check: lint docs-check test test-compiled test-mp test-blas mem-check physics-check examples analysis resilience-check serve-check report
