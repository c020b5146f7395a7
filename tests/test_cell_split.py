"""Cell-range split of the collide and stream bodies (DESIGN.md, "Cell-range split").

Most test grids are below the size floor and the collide tile, so the
cases here remove the floor, narrow the tile to 64 columns and force the
width to 2 or 3, then compare against the same run unsplit: the state,
the records and the markers must be identical.
"""

import os
import signal
import threading
import time
from types import MethodType, SimpleNamespace

import numpy as np
import pytest

import repro.core.collision as collision_mod
import repro.core.engine as engine_mod
from repro.backend import mp
from repro.bench.workloads import lid_cavity, sphere_tunnel
from repro.core.collision import BGK, KBC
from repro.core.fusion import ABLATION_CONFIGS, ORIGINAL_BASELINE
from repro.core.lattice import D3Q19, D3Q27
from repro.core.simulation import Simulation
from repro.neon import executor
from repro.neon.executor import run_split
from repro.resilience import ResilientRunner, RetryPolicy
from repro.serve.state import state_digest

ALL_CONFIGS = (ORIGINAL_BASELINE,) + tuple(ABLATION_CONFIGS)

WORKLOADS = {
    # levels of 64, 420 and 1392 cells: one under 64 x parts, one ragged
    "2d-3lvl": lambda: lid_cavity(base=(16, 16), num_levels=3, lattice="D2Q9"),
    # levels of 8, 4032 and 31232 cells
    "3d": lambda: lid_cavity(base=(10, 10, 10), num_levels=3),
}

EXECUTORS = {"interpreted": dict(backend="interpreted", threaded=False),
             "compiled": dict(backend="compiled", threaded=False),
             "threaded": dict(backend="compiled", threaded=True)}


@pytest.fixture
def split(monkeypatch):
    """``split(width)``: engines built afterwards split every level into
    up to ``width`` parts (width 1: unsplit), on 64-column tiles."""
    def force(width: int) -> None:
        monkeypatch.setattr(engine_mod, "SPLIT_MIN_BYTES", 0)
        monkeypatch.setattr(collision_mod, "TILE_BUDGET_BYTES", 0)
        monkeypatch.setattr(engine_mod, "usable_cpus", lambda: width)
    return force


def run(spec, config, steps=3):
    """Digest, records, markers and largest-level parts after ``steps``."""
    with Simulation(spec, config) as sim:
        sim.run(steps)
        eng = sim.engine
        assert getattr(sim.backend, "stats", {}).get("plan_fallback_steps", 0) == 0
        parts = len(eng.split_cuts(len(eng.levels) - 1)) - 1
        return (state_digest(sim), list(sim.runtime.records),
                list(sim.runtime.markers)), parts


# -- the cuts ----------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 8, 63, 64, 65, 100, 128, 191, 420, 1392, 31232,
                               121536])
@pytest.mark.parametrize("width", [1, 2, 3, 5])
@pytest.mark.parametrize("floor", [0, engine_mod.SPLIT_MIN_BYTES])
def test_cuts_fall_on_64_columns(monkeypatch, n, width, floor):
    # on the collide tile of the operator and the dtype, a multiple of 64
    monkeypatch.setattr(engine_mod, "SPLIT_MIN_BYTES", floor)
    for op, dtype in [(BGK(D3Q19), np.float32), (BGK(D3Q19), np.float64),
                      (KBC(D3Q27), np.float32)]:
        f = np.empty((op.lattice.q, n), dtype)
        eng = SimpleNamespace(levels=[SimpleNamespace(n_owned=n, f=f)], dtype=f.dtype,
                              collision=op, split_width=width)
        eng.split_parts = MethodType(engine_mod.Engine.split_parts, eng)
        cuts = engine_mod.Engine.split_cuts(eng, 0)
        assert cuts[0] == 0 and cuts[-1] == n
        assert all(a < b for a, b in zip(cuts, cuts[1:]))
        tile = op.tile(dtype)
        assert tile % 64 == 0
        assert all(c % tile == 0 for c in cuts[1:-1])
        # the floor caps the parts (host bytes: f's own); so do whole
        # tiles, and a level of as many tiles as parts gets them all
        allowed = max(1, min(width, f.nbytes // floor if floor else width))
        assert eng.split_parts(0) == allowed
        parts = len(cuts) - 1
        assert parts <= min(allowed, -(-n // tile))
        if n >= allowed * tile:
            assert parts == allowed


@pytest.mark.parametrize("base, levels", [((96, 96), 2), ((64, 64), 3)])
def test_served_levels_do_not_split(monkeypatch, base, levels):
    # the largest 2-D level a served job builds is below the floor at any width
    monkeypatch.setattr(engine_mod, "usable_cpus", lambda: 8)
    wl = lid_cavity(base=base, num_levels=levels, lattice="D2Q9")
    with Simulation(wl.spec, wl.sim_config()) as sim:
        assert all(len(sim.engine.split_cuts(lv)) == 2
                   for lv in range(len(sim.engine.levels)))


# -- bit-identity with the split forced ---------------------------------------

@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
@pytest.mark.parametrize("dim", sorted(WORKLOADS))
def test_split_bit_identical(split, dim, config):
    wl = WORKLOADS[dim]()
    split(1)
    want, parts = run(wl.spec, wl.sim_config(fusion=config, backend="interpreted"))
    assert parts == 1
    for width in (2, 3):
        split(width)
        for executor_name, how in EXECUTORS.items():
            got, parts = run(wl.spec, wl.sim_config(fusion=config, **how))
            assert parts == width, executor_name
            assert got == want, (width, executor_name)


@pytest.mark.parametrize("case", [
    ("sphere-kbc", lambda: sphere_tunnel(scale=0.25), {}),
    ("bgk-forced", lambda: lid_cavity(base=(16, 16), num_levels=3, lattice="D2Q9"),
     dict(force=(1e-5, -2e-6))),
    ("trt-forced", lambda: lid_cavity(base=(16, 16), num_levels=3, lattice="D2Q9",
                                      collision="trt"),
     dict(force=(1e-5, -2e-6))),
], ids=lambda c: c[0])
def test_split_bit_identical_collision_models(split, case):
    _, make, over = case
    wl = make()
    split(1)
    want, _ = run(wl.spec, wl.sim_config(backend="compiled", **over), steps=2)
    for width in (2, 3):
        split(width)
        got, parts = run(wl.spec, wl.sim_config(backend="compiled", **over), steps=2)
        assert parts == width and got == want, width


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_parts_start_on_the_collide_tile(monkeypatch, dtype):
    # at the shipped tile width (no narrowing): the tile does not depend
    # on the split, every part starts on it, and the split run steps to
    # the unsplit run's bits
    parts = []
    build = engine_mod.Engine.collide_columns

    def spy(self, lv, lo, hi, *args):
        parts.append((lo, hi, self.collision.tile(self.dtype)))
        return build(self, lv, lo, hi, *args)
    monkeypatch.setattr(engine_mod.Engine, "collide_columns", spy)
    monkeypatch.setattr(engine_mod, "SPLIT_MIN_BYTES", 0)
    wl = lid_cavity(base=(16, 16, 16), num_levels=3)    # finest: 121536 cells
    digests = set()
    for width in (1, 2, 3):
        monkeypatch.setattr(engine_mod, "usable_cpus", lambda: width)
        parts.clear()
        got, split_parts = run(wl.spec, wl.sim_config(backend="compiled", dtype=dtype),
                               steps=1)
        digests.add(got[0])
        assert split_parts == width
        assert len({tile for *_, tile in parts}) == 1
        assert all(lo % tile == 0 for lo, _, tile in parts)
    assert len(digests) == 1


# -- errors and lifecycle -----------------------------------------------------

@pytest.mark.parametrize("failing", [0, 1])
def test_failed_part_is_joined_with_its_peers(failing):
    done = []

    def part(k):
        def body():
            if k == failing:
                raise RuntimeError(f"part {k} failed")
            time.sleep(0.1)
            done.append(k)
        return body
    with pytest.raises(RuntimeError, match=f"part {failing} failed"):
        run_split([part(k) for k in range(3)])
    # every peer finished before the error reached the caller
    assert sorted(done) == [k for k in range(3) if k != failing]


def _fail_once_off_the_calling_thread(monkeypatch):
    """The first collide part run on a split-pool thread raises."""
    fired = []
    build = engine_mod.Engine.collide_columns

    def collide_columns(self, *args, **kwargs):
        body = build(self, *args, **kwargs)

        def part():
            if not fired and threading.current_thread() is not threading.main_thread():
                fired.append(threading.current_thread().name)
                raise RuntimeError("collide part failed")
            body()
        return part
    monkeypatch.setattr(engine_mod.Engine, "collide_columns", collide_columns)
    return fired


def test_worker_part_failure_names_kernel_and_recovers(split, monkeypatch):
    wl = WORKLOADS["2d-3lvl"]()
    config = wl.sim_config(backend="compiled")
    split(1)
    want, _ = run(wl.spec, config, steps=6)
    split(2)
    fired = _fail_once_off_the_calling_thread(monkeypatch)
    with Simulation(wl.spec, config) as sim:
        with pytest.raises(RuntimeError, match="collide part failed") as err:
            sim.run(1)
    # the first split collide is level 1's Collision+Accumulate
    assert fired and err.value.kernel_span["name"] == "CA"
    assert err.value.kernel_span["level"] == 1

    fired.clear()
    with ResilientRunner(wl.spec, config,
                         policy=RetryPolicy(checkpoint_every=2)) as runner:
        result = runner.run(6)
        assert result.outcome == "ok" and result.retries == 1 and fired
        assert state_digest(runner.sim) == want[0]
        assert runner.sim.backend.stats["plan_fallback_steps"] == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="requires fork()")
def test_fork_after_split_steps_and_matches(split):
    wl = WORKLOADS["3d"]()
    split(2)
    with Simulation(wl.spec, wl.sim_config(backend="compiled")) as sim:
        sim.run(1)                      # the split pool's threads are live
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                signal.alarm(20)        # hang guard: a dead inherited thread
                sim.run(2)
                os.write(write, state_digest(sim).encode())
                os._exit(0)
            except BaseException:
                os._exit(2)
        os.close(write)
        sim.run(2)
        want = state_digest(sim)
        with os.fdopen(read, "rb") as f:
            got = f.read().decode()
        _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert got == want


def test_build_close_does_not_grow_threads(split):
    wl = WORKLOADS["2d-3lvl"]()
    split(3)
    counts = []
    for _ in range(4):
        for how in EXECUTORS.values():
            with Simulation(wl.spec, wl.sim_config(**how)) as sim:
                sim.run(1)
        counts.append(threading.active_count())
    assert counts[1:] == counts[:-1]


# -- usable CPUs --------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 3])
def test_usable_cpus_follow_the_affinity_mask(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.delenv(mp.WORKERS_ENV, raising=False)
    assert executor.usable_cpus() == n
    assert executor.default_workers() == max(2, n)
    assert mp.default_mp_workers() == max(2, n)
    wl = WORKLOADS["2d-3lvl"]()
    with Simulation(wl.spec, wl.sim_config()) as sim:
        assert sim.engine.split_width == n


def test_usable_cpus_without_an_affinity_mask(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert executor.usable_cpus() == 5

