"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.collision import BGK, equilibrium, macroscopics
from repro.core.lattice import CS2, D2Q9, D3Q19, D3Q27
from repro.core.units import omega_at_level, omega_from_viscosity, viscosity_from_omega
from repro.grid.bitmask import pack_bits, popcount, unpack_bits
from repro.grid.geometry import enforce_shell_separation
from repro.grid.sfc import hilbert_key, morton_decode, morton_key

LATTICES = {"D2Q9": D2Q9, "D3Q19": D3Q19, "D3Q27": D3Q27}


# -- space-filling curves ----------------------------------------------------

@given(st.lists(st.tuples(st.integers(0, 1023), st.integers(0, 1023),
                          st.integers(0, 1023)), min_size=1, max_size=50))
def test_morton_roundtrip_3d(coords):
    arr = np.array(coords, dtype=np.int64)
    keys = morton_key(arr, bits=10)
    assert np.array_equal(morton_decode(keys, 3, 10), arr)


@given(st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255)),
                min_size=2, max_size=50, unique=True))
def test_morton_injective_2d(coords):
    arr = np.array(coords, dtype=np.int64)
    keys = morton_key(arr, bits=8)
    assert len(np.unique(keys)) == len(coords)


@given(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63),
                          st.integers(0, 63)), min_size=2, max_size=50,
                unique=True))
def test_hilbert_injective_3d(coords):
    arr = np.array(coords, dtype=np.int64)
    keys = hilbert_key(arr, bits=6)
    assert len(np.unique(keys)) == len(coords)


@given(st.integers(0, 63), st.integers(0, 63))
def test_morton_monotone_in_high_bits(x, y):
    # doubling every coordinate shifts the key by d bits exactly
    k1 = morton_key(np.array([[x, y]]), bits=7)[0]
    k2 = morton_key(np.array([[2 * x, 2 * y]]), bits=7)[0]
    assert k2 == k1 << np.uint64(2)


# -- bitmask ------------------------------------------------------------------

@given(arrays(bool, st.tuples(st.integers(1, 8), st.integers(1, 130))))
def test_bitmask_roundtrip(flags):
    words = pack_bits(flags)
    assert np.array_equal(unpack_bits(words, flags.shape[1]), flags)
    assert np.array_equal(popcount(words), flags.sum(axis=1))


# -- units --------------------------------------------------------------------

@given(st.floats(1e-5, 10.0))
def test_omega_viscosity_roundtrip(nu):
    assert viscosity_from_omega(omega_from_viscosity(nu)) == pytest.approx(nu)


@given(st.floats(0.05, 1.99), st.integers(0, 8))
def test_eq9_preserves_viscosity(omega0, level):
    wl = omega_at_level(omega0, level)
    dt = 0.5 ** level
    nu_l = CS2 * dt * (1.0 / wl - 0.5)
    nu_0 = CS2 * (1.0 / omega0 - 0.5)
    assert nu_l == pytest.approx(nu_0, rel=1e-9)
    assert 0.0 < wl < 2.0


# -- collision ----------------------------------------------------------------

@st.composite
def flow_state(draw, lat):
    n = draw(st.integers(1, 16))
    rho = 1.0 + 0.1 * draw(arrays(np.float64, n,
                                  elements=st.floats(-1, 1)))
    u = 0.05 * draw(arrays(np.float64, (lat.d, n),
                           elements=st.floats(-1, 1)))
    return rho, u


@pytest.mark.parametrize("name", list(LATTICES))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_equilibrium_moments_exact(name, data):
    lat = LATTICES[name]
    rho, u = data.draw(flow_state(lat))
    feq = equilibrium(lat, rho, u)
    assert np.allclose(feq.sum(axis=0), rho, rtol=1e-12)
    assert np.allclose(lat.ef.T @ feq, rho * u, atol=1e-12)


@pytest.mark.parametrize("name", list(LATTICES))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_bgk_conserves_invariants(name, data):
    lat = LATTICES[name]
    rho, u = data.draw(flow_state(lat))
    omega = data.draw(st.floats(0.1, 1.99))
    feq = equilibrium(lat, rho, u)
    noise = 0.01 * feq * data.draw(
        arrays(np.float64, feq.shape, elements=st.floats(-1, 1)))
    f = feq + noise
    out = BGK(lat).collide(f, omega)
    rho0, u0 = macroscopics(lat, f)
    rho1, u1 = macroscopics(lat, out)
    assert np.allclose(rho1, rho0, rtol=1e-12)
    assert np.allclose(u1 * rho1, u0 * rho0, atol=1e-12)


# -- geometry helpers -----------------------------------------------------------

@given(st.lists(st.floats(0.01, 50.0), min_size=1, max_size=5))
def test_shell_separation_always_legal(widths):
    w = enforce_shell_separation(sorted(widths, reverse=True))
    for k in range(len(w) - 1):
        assert w[k] - w[k + 1] >= 2.75 * 2.0 ** -k - 1e-9
    for k, v in enumerate(w):
        assert v >= 1.5 * 2.0 ** -k - 1e-12


@given(st.lists(st.floats(3.0, 50.0), min_size=1, max_size=4))
def test_shell_separation_keeps_generous_widths(widths):
    widths = sorted(widths, reverse=True)
    assume(all(a - b >= 3.0 for a, b in zip(widths, widths[1:])))
    assert enforce_shell_separation(widths) == widths


# -- accumulate identity ---------------------------------------------------------

@given(st.integers(1, 30), st.data())
@settings(max_examples=20, deadline=None)
def test_bincount_accumulate_matches_add_at(n_ghost, data):
    # the textbook Accumulate (tests/test_engine.py::ref_accumulate) uses
    # bincount as a deterministic stand-in for atomic adds; the engine's
    # reduce over the children, child by child, is the same sum bit for bit
    m = n_ghost * 4
    idx = np.repeat(np.arange(n_ghost), 4)
    vals = data.draw(arrays(np.float64, m, elements=st.floats(-10, 10)))
    via_bincount = np.bincount(idx, weights=vals, minlength=n_ghost)
    via_add_at = np.zeros(n_ghost)
    np.add.at(via_add_at, idx, vals)
    assert np.allclose(via_bincount, via_add_at, atol=1e-12)
    via_reduce = np.add.reduce(vals.reshape(n_ghost, 4).T, axis=0)
    assert np.array_equal(via_reduce, via_bincount)


# -- exact entry sets ---------------------------------------------------------------

# small ids repeat often, large ones reach the int32 ceiling
ENTRY_IDS = st.lists(st.integers(1, 40) | st.integers(1, 2 ** 31 - 2), max_size=50)


@given(ENTRY_IDS, ENTRY_IDS, st.sampled_from([None, "low", "high"]), st.booleans())
@settings(max_examples=200, deadline=None)
def test_entry_set_agrees_with_python_set(a, b, shared, same):
    from repro.analysis.capture import EntrySet
    if shared:
        # disjoint but for one id below (above) every other one
        b = [i for i in b if i not in set(a)]
        edge = (min(a + b, default=1) - 1 if shared == "low"
                else max(a + b, default=0) + 1)
        a, b = a + [edge], [edge] + b
    x = EntrySet(a)
    y = x if same else EntrySet(np.array(b, dtype=np.int64))
    sa, sb = set(a), set(a) if same else set(b)
    assert (len(x), len(y)) == (len(sa), len(sb))
    assert x.ids.tolist() == sorted(sa) and not x.ids.flags.writeable
    assert (x == y) == (sa == sb)
    assert x == EntrySet(sorted(sa)) and hash(x) == hash(EntrySet(sorted(sa)))
    assert x.isdisjoint(y) == y.isdisjoint(x) == sa.isdisjoint(sb)


# -- end-to-end schedule property -------------------------------------------------

@given(st.sampled_from(["baseline-4a", "baseline-4b", "fuse-CA", "fuse-SE",
                        "fuse-SO", "fuse-CA+SE+SO", "ours-4f"]),
       st.integers(1, 3))
@settings(max_examples=10, deadline=None)
def test_any_config_any_steps_mass_bounded(config_name, steps):
    from repro.core.fusion import get_config
    from repro.core.simulation import Simulation
    from repro.grid.geometry import wall_refinement
    from repro.grid.multigrid import DomainBC, FaceBC, RefinementSpec

    bc = DomainBC({"y+": FaceBC("moving", velocity=(0.05, 0.0))})
    spec = RefinementSpec((16, 16), wall_refinement((16, 16), 2, [3.0]), bc=bc)
    sim = Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                                 viscosity=0.05,
                                 fusion=get_config(config_name))
    m0 = sim.engine.total_mass()
    sim.run(steps)
    assert sim.is_stable()
    assert abs(sim.engine.total_mass() - m0) / m0 < 1e-4


# -- independent oracles for what replaced networkx and scipy.ndimage ---------

@st.composite
def forward_dag(draw):
    """Edges ``u < v`` over at most 40 nodes, with a ``dep`` attribute each."""
    n = draw(st.integers(1, 40))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs.filter(lambda e: e[0] != e[1]), max_size=120))
    deps = draw(st.lists(st.sampled_from(["raw", "war", "waw"]),
                         min_size=len(edges), max_size=len(edges)))
    return n, [(min(e), max(e), dep) for e, dep in zip(edges, deps)]


@given(forward_dag())
@settings(max_examples=100, deadline=None)
def test_kernel_dag_matches_networkx(dag):
    nx = pytest.importorskip("networkx")
    from repro.neon.graph import KernelDAG, schedule_waves
    n, edges = dag
    ours, ref = KernelDAG(), nx.DiGraph()
    for g in (ours, ref):
        for i in range(n):
            g.add_node(i, label=f"K{i}")
        for u, v, dep in edges:
            g.add_edge(u, v, dep=dep)
    assert sorted(ours.edges(data=True)) == sorted(ref.edges(data=True))
    assert ours.nodes(data=True) == list(ref.nodes(data=True))
    for i in range(n):
        assert ours.descendants(i) == nx.descendants(ref, i)
        assert ours.out_edges(i) == list(ref.out_edges(i))
    # the ASAP waves are the topological generations
    waves = [sorted(gen) for gen in nx.topological_generations(ref)]
    assert schedule_waves(ours) == waves


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_dilate_matches_ndimage(data):
    ndimage = pytest.importorskip("scipy.ndimage")
    from repro.grid.multigrid import _dilate
    shape = data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
    mask = data.draw(arrays(bool, tuple(shape)))
    radius = data.draw(st.integers(1, 4))
    periodic = data.draw(st.lists(st.booleans(), min_size=len(shape),
                                  max_size=len(shape)))
    ref = mask.view(np.uint8)
    for axis, wrap in enumerate(periodic):
        ref = ndimage.maximum_filter1d(ref, 2 * radius + 1, axis=axis,
                                       mode="wrap" if wrap else "constant")
    got = _dilate(mask, radius, periodic)
    assert got.dtype == np.bool_ and np.array_equal(got, ref.view(bool))
    assert got is not mask
