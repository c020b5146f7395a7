"""Only what is live is held, copied and persisted (DESIGN.md sections 11, 16, 18).

Between coarse steps the state of a run is every level's one population
buffer ``f``: the 4a layout's ``fghost`` and the scratch each level
streams in place through are rewritten before anything reads them and
the ghost accumulators are zero.  These tests hold that claim
dynamically (poison the dead buffers, nothing changes) and statically
(the post-collision state ``f*`` is written over the whole of ``f`` by
the kernel that read it, ``fghost`` is written whole before it is
read), check that checkpoints and ``state_digest`` carry exactly the
live state, that the host allocates exactly what the stream addresses
and the population buffers are the layout the memory model prices less
its second buffer, and guard the heap of the ROADMAP anchor and of the
half sphere.  ``make mem-check`` runs this file.
"""

import gc
import os
import tracemalloc

import numpy as np
import pytest

import repro.core.engine as engine_mod
from repro.analysis.capture import READ, WRITE
from repro.analysis.lint import field_nbytes
from repro.analysis.static import plan_stream
from repro.backend.compiler import admit_stream
from repro.bench.workloads import lid_cavity, sphere_tunnel
from repro.core.diagnostics import solid_force
from repro.core.engine import Engine
from repro.core.fusion import FUSED_FULL, MODIFIED_BASELINE, ORIGINAL_BASELINE
from repro.core.lattice import get_lattice
from repro.core.simulation import Simulation
from repro.core.stepper import NonUniformStepper
from repro.gpu.memory import grid_memory_report, memory_arrays, memory_ledger
from repro.grid.multigrid import build_multigrid, compile_arrays
from repro.io.checkpoint import (CheckpointStore, restore_checkpoint,
                                 save_checkpoint)
from repro.neon.runtime import FieldRef
from repro.obs.watchdog import HealthWatchdog
from repro.serve.state import state_digest

from .test_fusion_equivalence import (ALL_CONFIGS, cavity_2d_three_levels,
                                      sphere_3d)
from .test_engine import run_op, table_groups
from .test_static_analysis import WL2D, WL3D

MiB = 2 ** 20
GRIDS = pytest.mark.parametrize("setup", [cavity_2d_three_levels, sphere_3d],
                                ids=["cavity2d-3lvl", "sphere3d-kbc"])
CONFIGS = pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: c.name)


def make(setup, cfg=ALL_CONFIGS[-1], **kw):
    spec, lattice, collision = setup()
    return Simulation.from_config(spec, lattice=lattice, collision=collision,
                                  viscosity=0.04, fusion=cfg, **kw)


def assert_same_f(a, b):
    for la, lb in zip(a.engine.levels, b.engine.levels):
        assert np.array_equal(la.f, lb.f)


def scratch(engine):
    """``lv -> (parts, G, n_owned)`` scratch of every level that streams
    in place, as its bound bodies share it."""
    return {lv: arr for lv, family, name, arr in memory_arrays(engine)
            if family == "scratch" and name != "accumulate"}


def acc_buffers(engine):
    """Accumulate's bind-time gather and sums, every level's (dead between
    substeps, like the stream's scratch)."""
    return [arr for _, family, name, arr in memory_arrays(engine)
            if family == "scratch" and name == "accumulate"]


# -- what crosses a coarse-step boundary -------------------------------------------

@GRIDS
@CONFIGS
def test_only_f_crosses_a_coarse_step(setup, cfg):
    clean, poisoned = make(setup, cfg), make(setup, cfg)
    with clean, poisoned:
        clean.run(2)
        poisoned.run(2)
        stage = scratch(poisoned.engine)
        assert list(stage) == list(range(poisoned.num_levels))
        for arr in stage.values():          # the in-place stream's scratch
            arr.fill(np.nan)
        for arr in acc_buffers(poisoned.engine):
            arr.fill(np.nan)
        for buf in poisoned.engine.levels:
            assert buf.f.shape == (poisoned.lattice.q, buf.n_owned)
            assert not buf.ghost_acc.any()
            if buf.fghost is not None:      # 4a's fine ghosts
                buf.fghost.fill(np.nan)
        for _ in range(3):
            clean.run(1)
            poisoned.run(1)
            assert_same_f(clean, poisoned)
            for buf in poisoned.engine.levels:
                assert np.isfinite(buf.f).all()
                assert not buf.ghost_acc.any()


@pytest.mark.parametrize("wl", (WL2D, WL3D), ids=("2d", "3d"))
@CONFIGS
def test_first_access_to_fstar_is_a_full_cover_write(cfg, wl):
    """``f*``, the post-collision populations, is written over the whole
    of ``f`` by the Collision that first reads all of it; ``fghost`` is
    written whole before anything reads it."""
    records, access_map, sim = plan_stream(cfg, wl, steps=1)
    first, first_write = {}, {}
    for i, accesses in access_map.items():
        for a in accesses:
            if a.field is not None and a.field.name in ("f", "fghost"):
                first.setdefault(a.field, (i, a))
                if a.kind == WRITE:
                    first_write.setdefault(a.field, (i, a))
    levels = sim.engine.levels
    assert {ref.level for ref in first if ref.name == "f"} == set(range(len(levels)))
    assert any(ref.name == "fghost" for ref in first) == cfg.original_layout
    for ref, (i, a) in first.items():
        buf, where = levels[ref.level], f"#{i} {records[i].name}"
        if ref.name == "fghost":
            assert (a.kind, a.lo, a.hi, a.entries) == (
                WRITE, buf.n_owned, buf.n_used, None), (str(ref), where, str(a))
            continue
        j, w = first_write[ref]
        assert records[i].name.startswith("C") and j == i, (str(ref), where)
        assert (a.kind, a.lo, a.hi) == (READ, 0, buf.n_owned), (str(ref), str(a))
        assert (w.kind, w.lo, w.hi, w.entries) == (
            WRITE, 0, buf.n_owned, None), (str(ref), str(w))


# -- checkpoints and digests carry the live state ------------------------------------

def test_restore_leaves_nothing_of_the_abandoned_timeline(tmp_path):
    path = str(tmp_path / "ck.npz")
    a = make(sphere_3d)
    a.run(4)
    save_checkpoint(a, path)
    a.run(3)

    b = make(sphere_3d)                     # ours-4f: no fine ghosts
    b.run(6)                                # a used simulation, elsewhere in time
    for buf in b.engine.levels:
        buf.f.fill(np.nan)
        buf.ghost_acc.fill(np.nan)
    for arr in scratch(b.engine).values():  # never read before it is written
        arr.fill(np.nan)
    restore_checkpoint(b, path)
    assert b.steps_done == 4
    for buf in b.engine.levels:
        assert buf.fghost is None and np.isfinite(buf.f).all()
        assert not buf.ghost_acc.any()
    assert HealthWatchdog(b).check()["status"] == "ok"
    assert np.isfinite(solid_force(b.engine)).all()
    b.run(3)
    assert_same_f(a, b)
    assert state_digest(a) == state_digest(b)


def test_restore_zeroes_the_fine_ghosts_4a_allocated(tmp_path):
    path = str(tmp_path / "ck.npz")
    a = make(cavity_2d_three_levels, ORIGINAL_BASELINE)
    a.run(2)
    save_checkpoint(a, path)
    a.run(2)
    b = make(cavity_2d_three_levels, ORIGINAL_BASELINE)
    b.run(3)
    ghosts = [buf.fghost for buf in b.engine.levels if buf.fghost is not None]
    assert len(ghosts) == b.num_levels - 1
    for fghost in ghosts:
        fghost.fill(np.nan)
    restore_checkpoint(b, path)
    assert all(buf.fghost is g for buf, g in zip(b.engine.levels[1:], ghosts))
    assert not any(fghost.any() for fghost in ghosts)
    b.run(2)
    assert state_digest(a) == state_digest(b)


def test_a_checkpoint_holds_f_and_the_header_only(tmp_path):
    sim = make(cavity_2d_three_levels, ALL_CONFIGS[0])      # 4a: fine ghosts
    sim.run(2)
    path = CheckpointStore(tmp_path / "ck").save(sim)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    header = {"format", "steps", "num_levels", "base_shape", "lattice",
              "active_per_level"}
    assert set(arrays) == header | {f"f_{lv}" for lv in range(sim.num_levels)}
    assert int(arrays["format"]) == 2
    for lv, buf in enumerate(sim.engine.levels):
        assert np.array_equal(arrays[f"f_{lv}"], buf.f)
    live = sum(buf.f.nbytes for buf in sim.engine.levels)
    assert live < os.path.getsize(path) < live + 4096       # stored, not deflated


def test_format_1_is_refused(tmp_path):
    sim = make(cavity_2d_three_levels)
    path = str(tmp_path / "old.npz")
    save_checkpoint(sim, path)
    with np.load(path) as data:
        old = {k: data[k] for k in data.files}
    old["format"] = np.asarray(1)
    for lv, buf in enumerate(sim.engine.levels):    # what format 1 also stored
        old[f"fstar_{lv}"], old[f"gacc_{lv}"] = np.zeros_like(buf.f), buf.ghost_acc
    np.savez_compressed(path, **old)
    with pytest.raises(ValueError, match="^unsupported checkpoint format 1$"):
        restore_checkpoint(sim, path)


def test_a_float32_checkpoint_is_refused(tmp_path):
    # checkpoints are verbatim: a float32 run's file is not restored into
    # a float64 simulation, and a refused restore leaves the target
    # untouched
    _assert_checkpoint_refused(tmp_path, saved="float32", target="float64")


def test_a_float64_checkpoint_is_refused(tmp_path):
    # nor the other way round
    _assert_checkpoint_refused(tmp_path, saved="float64", target="float32")


def _assert_checkpoint_refused(tmp_path, saved, target):
    writer = make(cavity_2d_three_levels, dtype=saved)
    writer.run(2)
    path = str(tmp_path / "ck.npz")
    save_checkpoint(writer, path)
    with np.load(path) as data:
        assert all(data[f"f_{lv}"].dtype == saved for lv in range(writer.num_levels))
    sim = make(cavity_2d_three_levels, dtype=target)
    sim.run(3)
    before = state_digest(sim)
    with pytest.raises(ValueError, match=f"^level 0 populations are {saved}, not {target}"):
        restore_checkpoint(sim, path)
    assert state_digest(sim) == before and sim.steps_done == 3


def test_one_level_of_another_dtype_refuses_the_whole_file(tmp_path):
    # written by hand: level 0 matches, level 1 does not -- the restore
    # validates every level before it writes any
    sim = make(cavity_2d_three_levels)
    sim.run(2)
    path = str(tmp_path / "mixed.npz")
    save_checkpoint(sim, path)
    with np.load(path) as data:
        old = {k: data[k] for k in data.files}
    old["f_1"] = old["f_1"].astype(np.float64)
    np.savez(path, **old)
    sim.run(1)
    before = state_digest(sim)
    with pytest.raises(ValueError, match="^level 1 populations are float64, not float32"):
        restore_checkpoint(sim, path)
    assert state_digest(sim) == before and sim.steps_done == 3


def test_save_inside_a_step_is_refused(tmp_path):
    sim = make(cavity_2d_three_levels, ALL_CONFIGS[1])      # unfused 4b
    sim.run(1)
    run_op(sim.engine.op_collide, 1)
    run_op(sim.engine.op_accumulate, 1)     # level 0's ghosts now hold a sum
    store = CheckpointStore(tmp_path / "ck")
    with pytest.raises(RuntimeError, match="inside a coarse step: level 0"):
        store.save(sim)
    with pytest.raises(RuntimeError, match="inside a coarse step"):
        save_checkpoint(sim, str(tmp_path / "ck.npz"))
    assert os.listdir(store.directory) == [] and store.latest() is None
    assert not (tmp_path / "ck.npz").exists()


@GRIDS
def test_digest_of_a_run_resumed_at_its_last_step(setup, tmp_path):
    # the uninterrupted run holds its last stream's groups in the scratch,
    # the resumed one has bound no body yet: dead bytes, and the digest
    # skips them -- poisoned, they change nothing and trip nothing
    whole = make(setup)
    whole.run(5)
    CheckpointStore(tmp_path / "ck").save(whole)
    resumed = make(setup)
    assert CheckpointStore(tmp_path / "ck").restore_latest(resumed) == 5
    stage = scratch(whole.engine)
    assert len(stage) == whole.num_levels and not scratch(resumed.engine)
    for arr in stage.values():
        arr.fill(np.nan)
    assert state_digest(whole) == state_digest(resumed)
    assert HealthWatchdog(whole).check()["status"] == "ok"
    whole.run(1)
    assert state_digest(whole) != state_digest(resumed)
    resumed.run(1)
    assert state_digest(whole) == state_digest(resumed)


# -- the heap holds what the stream addresses and the model prices ------------------

ANCHOR_AND_SPHERE = pytest.mark.parametrize("workload", [
    lambda: lid_cavity(base=(16, 16, 16), num_levels=3),
    lambda: sphere_tunnel(scale=0.5)], ids=["anchor", "sphere-half"])


@ANCHOR_AND_SPHERE
def test_the_host_allocates_what_the_stream_addresses(workload):
    """After admission — which also binds the modified baseline on the
    same engine, for its reports only — the fields the host holds no
    buffer for are exactly the lint's droppable buffers: 4a's fine ghosts
    outside 4a.  No level holds a second population buffer."""
    wl = workload()
    buffers = {"f": "f", "fghost": "fghost", "gacc": "ghost_acc"}
    for cfg in ALL_CONFIGS:
        with Simulation.from_config(wl.spec, wl.sim_config(fusion=cfg)) as sim:
            _, lint = admit_stream(sim.stepper)
            engine = sim.engine
            droppable = {f.field for f in lint.findings
                         if f.check == "droppable-buffer"}
            missing = {str(ref) for lv, buf in enumerate(engine.levels)
                       for name, attr in buffers.items()
                       if getattr(buf, attr) is None
                       and field_nbytes(engine, ref := FieldRef(name, lv)) > 0}
            assert missing == droppable, cfg.name
            expected = ({f"fghost@{lv}" for lv in range(1, sim.num_levels)}
                        if not cfg.original_layout else set())
            assert droppable == expected, cfg.name
            assert not any(hasattr(buf, "fstar") for buf in engine.levels)


def scratch_bytes(engine):
    """What the bodies' scratch must hold: per level, one ``(G, n_owned)``
    block per part of the level's split stream, no more parts than
    direction groups (``G`` the largest group), and Accumulate's gather
    row, one value per slot of its parent's accumulator in ``f``'s dtype,
    and the slots' float64 sums."""
    total = 0
    for lv, buf in enumerate(engine.levels):
        groups = table_groups(buf.pull_flat, buf.n_owned)
        parts = min(engine.split_parts(lv), len(groups))
        total += parts * max(map(len, groups)) * buf.n_owned * buf.f.itemsize
        if lv:
            total += engine.levels[lv - 1].ghost_acc.size * (buf.f.itemsize + 8)
    return total


@ANCHOR_AND_SPHERE
def test_population_bytes_are_what_the_memory_model_prices(workload):
    """``f`` + allocated ``fghost`` + ``ghost_acc`` + the bodies' scratch
    per config and dtype, after admission, against
    :func:`repro.gpu.memory.grid_memory_report` (section IV-A) priced at
    the host's width, which prices the paper's two population buffers:
    every config holds the model's populations less one named term, the
    second buffer, and the model's ghost accumulators less another, the
    bins no Coalescence reads, plus the scratch of every level; 4a holds
    its fine ghosts once beside them."""
    wl = workload()
    mgrid = build_multigrid(wl.spec, get_lattice(wl.lattice))
    for dtype in ("float32", "float64"):
        itemsize = np.dtype(dtype).itemsize
        optimized = grid_memory_report(mgrid, itemsize, scheme="optimized")
        original = grid_memory_report(mgrid, itemsize, scheme="original")
        for cfg in (ORIGINAL_BASELINE, MODIFIED_BASELINE, FUSED_FULL):
            engine = Engine(mgrid, wl.collision, dtype=dtype)
            engine.allocate(cfg)
            admit_stream(NonUniformStepper(engine, cfg))    # binds every body
            assert sorted(scratch(engine)) == list(range(mgrid.num_levels))
            held = sum(n for (_, family), n in memory_ledger(engine).items() if family in (
                "populations", "fine_ghosts", "ghost_accumulators", "scratch"))
            second_buffer = optimized.populations // 2
            # the model prices 4a's fine ghosts in both population buffers,
            # the engine stores them once (fghost); 4a's gather Accumulate
            # sums into the coarse ghost layer, which the original scheme
            # omits
            fine_ghosts_once = original.ghost_populations // 2
            # one accumulator slot per bin Coalescence reads
            unread_bins = itemsize * sum(mgrid.lattice.q * cl.n_ghost - cl.coal_dst.size
                                         for cl in mgrid.levels)
            assert 0 < unread_bins < optimized.ghost_accumulators
            assert original.ghost_populations > 0
            assert original.populations == optimized.populations
            assert held == (optimized.populations - second_buffer
                            + (fine_ghosts_once if cfg.original_layout else 0)
                            + optimized.ghost_accumulators - unread_bins
                            + scratch_bytes(engine)), (cfg.name, dtype)


# -- the anchor's heap ---------------------------------------------------------------

def heap_readings(wl, **config):
    """``(peak, steady, admission peak, sim)``: the ``tracemalloc`` peak
    over building, the first (admitting) step and a digest, the heap
    after two more steps, and the peak of admitting the plan again."""
    gc.collect()
    tracemalloc.start()
    try:
        sim = Simulation.from_config(wl.spec, wl.sim_config(backend="compiled",
                                                            **config))
        sim.run(1)                          # admits and binds the plan
        state_digest(sim)
        _, peak = tracemalloc.get_traced_memory()
        sim.run(2)
        gc.collect()
        current, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        admit_stream(sim.stepper)
        _, admit_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, current, admit_peak, sim


def test_anchor_heap_stays_near_the_live_bytes(monkeypatch):
    """16^3 x 3 cavity, compiled: 128.7 MiB steady / 155.5 MiB peak before
    the tables were shared and admission and the digest stopped copying;
    90.7 / 102 before Accumulate kept only the entries Coalescence reads
    and the boundary links moved into the pull table; 80.4 / 101.8 while
    admission held the exact entry sets as frozensets of Python ints;
    80.4 / 84.0 while ``fstar`` carried 4a's fine-ghost rows under
    every config and each level its positions; 67.9 / 71.4 while the
    grid kept int64 tables and a kind matrix and the engine row-space
    copies of them; 61.9 / 65.6 while the finest level held ``fstar``
    under CASE; 45.0 / 48.5 while the coarser levels held it; 43.1 / 46.6
    while the step ran in float64; 33.0 / 36.5 while the ghost accumulator
    held every (q, ghost) bin and Accumulate staged its gather in float64;
    30.2 / 33.8 while the grid kept its kind lists beside the engine's flat
    maps and Accumulate gathered every child at once (reads 27.1 / 30.6;
    the ceilings are that + 5 %).  Every level streams in
    place through one ``(G, n_owned)`` scratch per split part, allocated
    once for every body bound on it; the split is pinned at 2 parts, so
    the heap does not depend on the host's CPUs.
    Admitting the plan again may add at most 4 MiB to the heap it starts
    from (25.9 MiB with the frozensets, 1.3 MiB with the shared sorted
    arrays, reads 0.1).  The memory ledger is within 2 % of the steady
    heap (reads 0.6 % below it: 0.17 of 27.08 MiB)."""
    wl = lid_cavity(base=(16, 16, 16), num_levels=3)
    monkeypatch.setattr(engine_mod, "usable_cpus", lambda: 2)
    peak, current, admit_peak, sim = heap_readings(wl)
    with sim:
        assert peak <= 32.2 * MiB, f"peak {peak / MiB:.1f} MiB"
        assert current <= 28.4 * MiB, f"steady {current / MiB:.1f} MiB"
        assert abs(current - sum(memory_ledger(sim.engine).values())) <= 0.02 * current
        n = [buf.n_owned for buf in sim.engine.levels]
        # one part below the split floor; singletons on the boundary-free
        # level 1, (q, opp q) pairs on the walled ones
        assert {lv: a.shape for lv, a in scratch(sim.engine).items()} == {
            0: (1, 1, n[0]), 1: (1, 1, n[1]), 2: (2, 2, n[2])}
        assert admit_peak - current <= 4 * MiB, (
            f"admission transient {(admit_peak - current) / MiB:.1f} MiB")
        # one (Q, n_owned) integer table per level and no other (a level's
        # accumulate sources index the finer level's f; the finest has none)
        per_cell = [sim.lattice.q * k for k in n] + [1]
        tables = [(lv, a) for lv, _, name, a in memory_arrays(sim.engine)
                  if a.size >= per_cell[lv + name.startswith("acc_sources")]
                  and a.dtype.kind in "iu" and a.itemsize >= 4]
        assert [lv for lv, _ in tables] == list(range(sim.num_levels))
        for (lv, table), cl, buf in zip(tables, sim.mgrid.levels,
                                        sim.engine.levels):
            assert table is cl.pull_flat is buf.pull_flat
            assert table.dtype == np.int32 and not table.flags.writeable
        # declared atomic bytes are the entries the bound bodies gather
        plan = next(iter(sim.backend.plans.values()))
        gathered = sum(sim.mgrid.levels[r.level - 1].n_acc_sources
                       for r in plan.records if r.atomic_bytes)
        assert sum(r.atomic_bytes for r in plan.records) \
            == sim.engine.itemsize * gathered == 2_695_680


def test_half_sphere_4b_heap_stays_near_the_live_bytes(monkeypatch):
    """``sphere_tunnel(scale=0.5)``, D3Q27 KBC, ``baseline-4b``, compiled:
    the geometry and config behind the ledger's ``sphere-kbc-unfused``.
    51.3 MiB steady / 55.9 MiB peak while every level held ``fstar``;
    36.9 / 41.5 while the step ran in float64; 29.2 / 33.6 while the ghost
    accumulator held every (q, ghost) bin; 26.4 / 30.8 while the grid
    kept its kind lists (reads 23.5 / 27.9; the ceilings are that + 5 %).
    The memory ledger is within 2 % of the steady heap (reads 0.9 %
    below: 0.21 of 23.54 MiB)."""
    wl = sphere_tunnel(scale=0.5)
    monkeypatch.setattr(engine_mod, "usable_cpus", lambda: 2)
    peak, current, admit_peak, sim = heap_readings(wl, fusion=MODIFIED_BASELINE)
    with sim:
        assert peak <= 29.3 * MiB, f"peak {peak / MiB:.1f} MiB"
        assert current <= 24.7 * MiB, f"steady {current / MiB:.1f} MiB"
        assert abs(current - sum(memory_ledger(sim.engine).values())) <= 0.02 * current
        n = [buf.n_owned for buf in sim.engine.levels]
        # (q, opp q) pairs on the levels with boundary links, a singleton
        # on the middle one, which has none and whose float32 f (1.6 MB)
        # is below the 2-part split floor
        assert {lv: a.shape for lv, a in scratch(sim.engine).items()} == {
            0: (2, 2, n[0]), 1: (1, 1, n[1]), 2: (2, 2, n[2])}
        assert admit_peak - current <= 4 * MiB


#: The grid's flat ``intp`` entries (:class:`~repro.grid.multigrid.CompiledLevel`).
FLAT_MAPS = {"mov_dst", "out_dst", "exp_dst", "exp_src", "coal_dst", "acc_sources"}

#: The ledger families of the engine's own arrays; every other one is an
#: index family of the grid compile.
ENGINE_FAMILIES = {"populations", "ghost_accumulators", "fine_ghosts", "scratch"}


@GRIDS
@pytest.mark.parametrize("cfg", (ORIGINAL_BASELINE, MODIFIED_BASELINE, FUSED_FULL),
                         ids=lambda c: c.name)
def test_every_index_array_is_int32_and_the_grids(setup, cfg):
    """The index heap at the width its values need: every integer table
    and row array the grid compile keeps (bitmask words aside: they are
    bits) is int32, the flat maps the bodies gather and scatter with are
    ``intp``, the index width NumPy converts every other one to, per
    call; and the engine copies no grid map — each array of a level's
    buffers other than the populations is the grid's own object.  No
    ``(Q, n_owned)`` kind matrix and no kind list is kept: the compile
    holds each map once, in the form a body reads it."""
    with make(setup, cfg) as sim:
        sim.run(1)                          # binds every body
        assert not any(hasattr(cl, name) for cl in sim.mgrid.levels
                       for name in ("kind", "maps", "bb_q", "sl_q", "exp_q", "coal_q",
                                    "acc_fine_rows", "acc_children"))
        compiled = {id(a) for _, _, a in compile_arrays(sim.mgrid)}
        for lv, family, name, a in memory_arrays(sim.engine):
            if a.dtype.kind in "iu" and name != "bitmask_words":
                width = np.intp if name.split("[")[0] in FLAT_MAPS else np.int32
                assert a.dtype == width, (lv, family, name, a.dtype)
            if family not in ENGINE_FAMILIES:
                assert id(a) in compiled, (lv, family, name)
