"""Tier-1 smoke of the refined cylinder (``bench.workloads.cylinder_channel``).

Re 20 past a cylinder in a slip-walled channel, D2Q9 BGK, 3 levels, 800
coarse steps: by then the start-up pressure waves no longer flip the
drag's sign (it reads 3.7, -4.0, 4.0, 2.9 at 200, 400, 600, 800 steps).
The smoke checks the invariant, not accuracy: every fusion config steps
to the same bits and the same force, the drag is positive, and the
mirror-symmetric channel lifts nothing beyond round-off.
"""

import numpy as np

from repro.bench.workloads import cylinder_channel
from repro.core.diagnostics import drag_coefficient, solid_force
from repro.core.fusion import FUSED_FULL, MODIFIED_BASELINE, ORIGINAL_BASELINE
from repro.core.simulation import Simulation
from repro.serve.state import state_digest


def run_configs(dtype):
    """Digests and forces of the Re 20 cylinder after 800 steps, per config."""
    wl = cylinder_channel(20, 0.25, 3)
    digests, forces = set(), []
    for cfg in (ORIGINAL_BASELINE, MODIFIED_BASELINE, FUSED_FULL):
        with Simulation.from_config(wl.spec, wl.sim_config(fusion=cfg, dtype=dtype)) as sim:
            sim.run(800)
            digests.add(state_digest(sim))
            forces.append(solid_force(sim.engine))
    assert len(digests) == 1
    assert all(np.array_equal(force, forces[0]) for force in forces)
    drag, lift = forces[0]
    cd = drag_coefficient(drag, 1.0, wl.char_velocity, 2 * wl.obstacle.radius)
    assert np.isfinite(cd) and cd > 0                   # reads 2.94
    return drag, lift


def test_refined_cylinder_agrees_across_configs_and_lifts_nothing():
    drag, lift = run_configs("float64")
    # round-off only: the first reading, on x86-64 with OpenBLAS, was
    # |lift| = 4.3e-14 of the drag; the bound is 1e-12
    assert abs(lift) <= 1e-12 * drag


def test_refined_cylinder_lifts_nothing_float32():
    # the float32 twin: a GEMM sums mirrored directions in different
    # orders, so round-off breaks the mirror symmetry at float32's scale
    # (reads |lift| = 314 eps of float32 of the drag after 800 steps)
    drag, lift = run_configs("float32")
    assert abs(lift) <= 2048 * np.finfo(np.float32).eps * drag
