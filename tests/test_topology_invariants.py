"""Invariants of the coarse-fine transfer over random topologies.

The drawn topologies are ``tests/test_multigrid.py::random_specs``
(nested boxes, face-BC mixes, storage); every property runs in float64
for a few coarse steps and discards the specs ``_validate_spec`` refuses.
Bit-identity across fusion configs cannot see an error that every config
shares; these properties look at the physics instead:

* Accumulate + Coalescence equal the textbook bodies (``tests/test_engine.py``:
  the mean of what streamed out of the finer level into a coarse cell)
  bit for bit on the bins Coalescence reads;
* a uniform flow crosses every interface unchanged;
* a mirrored spec with a mirrored start gives the mirrored state;
* a periodic, solid-free domain conserves mass: a planar strip does to
  round-off; where the refined region turns a corner the 2:1 interface
  still loses mass, so the drawn property is a strict xfail.

Shrunk failures are kept as ``@example`` fixtures.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings

from repro.core.engine import Engine
from repro.core.lattice import D2Q9, D3Q19
from repro.core.simulation import Simulation
from repro.grid.multigrid import (DomainBC, FaceBC, RefinementSpec, _validate_spec,
                                  build_multigrid)

from .test_engine import (accumulate_twice_then_coalesce,
                          ref_accumulate_twice_then_coalesce, textbook)
from .test_multigrid import random_specs, ref_compile

#: A fixed budget (the grid property's local one) keeps the module well
#: under 30 s whatever profile the grid properties run at: the drawn
#: domains are small, an example takes 2-50 ms.
net_budget = settings(max_examples=25, deadline=None)

#: TestUniformFlowExactness's float64 tolerance (tests/test_physics.py)
UNIFORM_TOL = 1e-13


def lattice_of(spec):
    return D2Q9 if spec.d == 2 else D3Q19


def legal(spec):
    """``spec`` if it compiles, else the example is discarded."""
    try:
        _validate_spec(spec)
    except ValueError:
        assume(False)
    return spec


def periodic(spec):
    """The drawn topology on a periodic, solid-free domain."""
    faces = {f"{a}{s}": FaceBC("periodic") for a in "xyz"[:spec.d] for s in "-+"}
    return legal(dataclasses.replace(spec, bc=DomainBC(faces), solid=None))


def started(spec, u):
    """A float64 BGK simulation of ``spec`` at rest density, velocity ``u``."""
    sim = Simulation.from_config(spec, lattice=lattice_of(spec).name,
                                 collision="bgk", viscosity=0.05, dtype="float64")
    sim.initialize(u=u)
    return sim


def swirl(base):
    """A smooth, asymmetric start velocity ``(N, d) -> (d, N)`` in coarse
    units over a domain of ``base`` coarse cells."""
    k = 2 * np.pi / np.asarray(base, dtype=np.float64)

    def u(x):
        phase = (x * k).T
        out = [0.02 * np.sin(phase[-1] + 0.3) + 0.01 * np.cos(phase[0])]
        out += [0.015 * np.cos(phase[0] - 0.7) for _ in range(len(base) - 1)]
        return np.array(out)
    return u


# -- the transfer kernels against the textbook -----------------------------------

@net_budget
@given(random_specs())
def test_accumulate_and_coalescence_match_the_textbook(spec):
    spec = legal(spec)
    assume(spec.num_levels > 1)
    eng = Engine(build_multigrid(spec, lattice_of(spec)), "bgk", omega0=1.3,
                 dtype="float64")
    eng.ref = ref_compile(spec, lattice_of(spec))     # the textbook's kind lists
    rng = np.random.default_rng(spec.num_levels)
    for lv in range(1, spec.num_levels):
        start = [{k: rng.uniform(0.2, 1.0, getattr(b, k).shape)
                  for k in ("f", "ghost_acc")} for b in eng.levels]
        results = []
        for run in (lambda: accumulate_twice_then_coalesce(eng, lv),
                    lambda: textbook(eng, lv, [ref_accumulate_twice_then_coalesce])):
            for b, saved in zip(eng.levels, start):
                for k, values in saved.items():
                    getattr(b, k)[...] = values
            run()
            results.append([(b.f.copy(), b.ghost_acc.copy()) for b in eng.levels])
        for (gf, gacc), (wf, wacc) in zip(*results):
            assert np.array_equal(gf, wf) and np.array_equal(gacc, wacc), lv


# -- uniform flow ------------------------------------------------------------------

@net_budget
@given(random_specs())
def test_uniform_flow_crosses_every_interface(spec):
    spec = periodic(spec)
    vel = np.array([0.02, -0.01, 0.015][:spec.d])
    with started(spec, vel) as sim:
        sim.run(3)
        for lv in range(spec.num_levels):
            rho, u = sim.macroscopics(lv)
            assert np.abs(rho - 1.0).max() < UNIFORM_TOL, lv
            assert np.abs(u - vel[:, None]).max() < UNIFORM_TOL, lv


# -- mirror symmetry ---------------------------------------------------------------

def mirrored(spec):
    """``spec`` reflected through the x axis: masks flipped, the x faces
    swapped, every face velocity's x component negated."""
    def flip(mask):
        return None if mask is None else np.flip(mask, axis=0).copy()
    faces = {}
    for name, bc in spec.bc.faces.items():
        if name[0] == "x":
            name = "x+" if name == "x-" else "x-"
        vel = bc.velocity and (-bc.velocity[0],) + tuple(bc.velocity[1:])
        faces[name] = FaceBC(bc.kind, velocity=vel)
    return dataclasses.replace(spec, refine_regions=[flip(m) for m in spec.refine_regions],
                               solid=flip(spec.solid), bc=DomainBC(faces))


@net_budget
@given(random_specs())
def test_a_mirrored_spec_gives_the_mirrored_state(spec):
    spec = legal(spec)
    other = legal(mirrored(spec))
    u, lx = swirl(spec.base_shape), spec.base_shape[0]

    def u_mirrored(x):
        x = x.copy()
        x[:, 0] = lx - x[:, 0]
        out = u(x)
        out[0] = -out[0]
        return out
    lat = lattice_of(spec)
    flip_q = np.array([next(p for p, e in enumerate(lat.e)
                            if tuple(e) == (-ex[0],) + tuple(ex[1:]))
                       for ex in lat.e])
    with started(spec, u) as a, started(other, u_mirrored) as b:
        a.run(3)
        b.run(3)
        for lv in range(spec.num_levels):
            extent = spec.level_shape(lv)
            pos_a, pos_b = a.positions(lv), b.positions(lv)
            assert len(pos_a) == len(pos_b)
            rows = np.full(extent, -1)
            rows[tuple(pos_b.T)] = np.arange(len(pos_b))
            pos_a = pos_a.copy()
            pos_a[:, 0] = extent[0] - 1 - pos_a[:, 0]
            at = rows[tuple(pos_a.T)]
            assert (at >= 0).all()
            fa, fb = a.engine.levels[lv].f, b.engine.levels[lv].f
            assert np.abs(fb[flip_q][:, at] - fa).max() < 1e-12, lv


# -- mass --------------------------------------------------------------------------

def _strip(base, rows):
    """A 2-D periodic domain refined on ``rows`` of its y columns, every x."""
    region = np.zeros(base, dtype=bool)
    region[:, rows] = True
    return RefinementSpec(base, [region], block_size=2)


def _patch(base, lo, hi):
    """A 2-D periodic domain refined on the square ``[lo, hi)^2``."""
    region = np.zeros(base, dtype=bool)
    region[lo:hi, lo:hi] = True
    return RefinementSpec(base, [region], block_size=2)


def mass_drift(spec):
    """Relative mass drift of ``spec`` made periodic, 3 coarse steps."""
    with started(periodic(spec), swirl(spec.base_shape)) as sim:
        before = sim.engine.total_mass()
        sim.run(3)
        return abs(sim.engine.total_mass() - before) / before


def test_periodic_strip_conserves_mass():
    # planar interfaces only: a 5x5 periodic box refined on 4 of its 5
    # rows (reads 1.4e-16)
    drift = mass_drift(_strip((5, 5), slice(0, 4)))
    assert drift <= 1e-12, drift


@pytest.mark.xfail(strict=True, reason=(
    "the 2:1 interface does not conserve mass where the refined region "
    "turns a corner, where fewer fine populations stream into a coarse "
    "cell than along a plane (ROADMAP item 6): an 8x8 periodic box with a "
    "4x4 patch drifts 6.0e-07 relative in 3 coarse steps"))
@settings(net_budget, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(random_specs())
@example(_patch((8, 8), 2, 6))
def test_periodic_solid_free_mass_is_conserved(spec):
    drift = mass_drift(spec)
    assert drift <= 1e-12, drift
