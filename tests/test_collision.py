"""BGK and KBC collision operators (paper Eqs. 3-8 and Section II)."""

import itertools

import numpy as np
import pytest

from repro.bench.workloads import lid_cavity, sphere_tunnel
from repro.core.collision import (BGK, KBC, TILE_BUDGET_BYTES, TRT,
                                  CollisionModel, density, equilibrium,
                                  guo_source, macroscopics, make_collision,
                                  pressure, tile_cuts, tile_width, velocity)
from repro.core.lattice import CS2, D2Q9, D3Q19, D3Q27
from repro.core.simulation import Simulation
from repro.neon.executor import run_split

RNG = np.random.default_rng(42)
EPS = np.finfo(np.float64).eps


def random_state(lat, n=64, amp=0.02):
    """A physically plausible random population set (near equilibrium)."""
    rho = 1.0 + amp * RNG.standard_normal(n)
    u = amp * RNG.standard_normal((lat.d, n))
    feq = equilibrium(lat, rho, u)
    noise = 0.02 * amp * RNG.standard_normal(feq.shape) * feq
    return feq + noise


@pytest.mark.parametrize("lat", [D2Q9, D3Q19, D3Q27], ids=lambda l: l.name)
class TestEquilibrium:
    def test_zeroth_moment(self, lat):
        rho = 1.0 + 0.05 * RNG.standard_normal(50)
        u = 0.03 * RNG.standard_normal((lat.d, 50))
        feq = equilibrium(lat, rho, u)
        assert np.allclose(feq.sum(axis=0), rho, rtol=1e-13)

    def test_first_moment(self, lat):
        rho = 1.0 + 0.05 * RNG.standard_normal(50)
        u = 0.03 * RNG.standard_normal((lat.d, 50))
        feq = equilibrium(lat, rho, u)
        mom = lat.ef.T @ feq
        assert np.allclose(mom, rho * u, atol=1e-13)

    def test_second_moment(self, lat):
        # Pi_eq = rho (c_s^2 I + u u) — exact for the quadratic equilibrium
        rho = np.array([1.1])
        u = 0.04 * np.ones((lat.d, 1))
        feq = equilibrium(lat, rho, u)
        pi = np.einsum("qa,qb,qn->ab", lat.ef, lat.ef, feq)
        expected = rho[0] * (CS2 * np.eye(lat.d) + np.outer(u[:, 0], u[:, 0]))
        assert np.allclose(pi, expected, atol=1e-12)

    def test_rest_equilibrium_is_weights(self, lat):
        feq = equilibrium(lat, np.ones(3), np.zeros((lat.d, 3)))
        assert np.allclose(feq, lat.w[:, None])

    def test_out_parameter(self, lat):
        rho = np.ones(10)
        u = 0.01 * np.ones((lat.d, 10))
        buf = np.empty((lat.q, 10))
        res = equilibrium(lat, rho, u, out=buf)
        assert res is buf
        assert np.allclose(buf, equilibrium(lat, rho, u))

    def test_positive_at_moderate_velocity(self, lat):
        u = np.full((lat.d, 1), 0.1 / np.sqrt(lat.d))
        feq = equilibrium(lat, np.ones(1), u)
        assert (feq > 0).all()


@pytest.mark.parametrize("lat", [D2Q9, D3Q19, D3Q27], ids=lambda l: l.name)
class TestMacroscopics:
    def test_density_velocity(self, lat):
        f = random_state(lat)
        rho, u = macroscopics(lat, f)
        assert np.allclose(rho, f.sum(axis=0))
        assert np.allclose(u * rho, lat.ef.T @ f)

    def test_pressure_is_cs2_rho(self, lat):
        f = random_state(lat)
        assert np.allclose(pressure(lat, f), CS2 * density(lat, f))

    def test_velocity_with_precomputed_rho(self, lat):
        f = random_state(lat)
        rho = density(lat, f)
        assert np.allclose(velocity(lat, f), velocity(lat, f, rho))


@pytest.mark.parametrize("lat", [D2Q9, D3Q19, D3Q27], ids=lambda l: l.name)
@pytest.mark.parametrize("model", ["bgk", "kbc"])
class TestCollisionCommon:
    def make(self, model, lat):
        if model == "kbc" and lat is D3Q19:
            pytest.skip("KBC requires D3Q27 in 3D (paper Section II)")
        return make_collision(model, lat)

    def test_conserves_density(self, model, lat):
        op = self.make(model, lat)
        f = random_state(lat)
        out = op.collide(f, 1.3)
        assert np.allclose(out.sum(axis=0), f.sum(axis=0), rtol=1e-12)

    def test_conserves_momentum(self, model, lat):
        op = self.make(model, lat)
        f = random_state(lat)
        out = op.collide(f, 1.3)
        assert np.allclose(lat.ef.T @ out, lat.ef.T @ f, atol=1e-13)

    def test_equilibrium_fixed_point(self, model, lat):
        op = self.make(model, lat)
        rho = 1.0 + 0.02 * RNG.standard_normal(20)
        u = 0.02 * RNG.standard_normal((lat.d, 20))
        feq = equilibrium(lat, rho, u)
        out = op.collide(feq, 1.7)
        assert np.allclose(out, feq, atol=1e-12)

    def test_drives_toward_equilibrium(self, model, lat):
        op = self.make(model, lat)
        f = random_state(lat, amp=0.05)
        rho, u = macroscopics(lat, f)
        feq = equilibrium(lat, rho, u)
        out = op.collide(f, 1.0)
        assert np.linalg.norm(out - feq) < np.linalg.norm(f - feq)


class TestBGK:
    def test_omega_one_projects_to_equilibrium(self):
        lat = D3Q19
        f = random_state(lat)
        rho, u = macroscopics(lat, f)
        out = BGK(lat).collide(f, 1.0)
        assert np.allclose(out, equilibrium(lat, rho, u), atol=1e-13)

    def test_explicit_relaxation_formula(self):
        lat = D2Q9
        f = random_state(lat)
        rho, u = macroscopics(lat, f)
        feq = equilibrium(lat, rho, u)
        omega = 1.4
        out = BGK(lat).collide(f, omega)
        assert np.allclose(out, f - omega * (f - feq), atol=1e-13)

    def test_out_buffer(self):
        lat = D2Q9
        f = random_state(lat)
        buf = np.empty_like(f)
        res = BGK(lat).collide(f, 1.2, out=buf)
        assert res is buf


class TestKBC:
    def test_requires_d3q27_in_3d(self):
        with pytest.raises(ValueError):
            KBC(D3Q19)

    def test_shear_part_is_traceless_in_moments(self):
        # The shear decomposition conserves mass and momentum by itself.
        lat = D3Q27
        op = KBC(lat)
        f = random_state(lat)
        rho, u = macroscopics(lat, f)
        fneq = f - equilibrium(lat, rho, u)
        ds = op.shear @ (lat.moments[1 + lat.d:] @ fneq)
        assert np.allclose(ds.sum(axis=0), 0.0, atol=1e-13)
        assert np.allclose(lat.ef.T @ ds, 0.0, atol=1e-13)

    def test_shear_part_carries_offdiagonal_stress(self):
        lat = D3Q27
        op = KBC(lat)
        f = random_state(lat, amp=0.05)
        rho, u = macroscopics(lat, f)
        fneq = f - equilibrium(lat, rho, u)
        ds = op.shear @ (lat.moments[1 + lat.d:] @ fneq)
        pi_f = np.einsum("qa,qb,qn->abn", lat.ef, lat.ef, fneq)
        pi_s = np.einsum("qa,qb,qn->abn", lat.ef, lat.ef, ds)
        assert np.allclose(pi_s[0, 1], pi_f[0, 1], atol=1e-12)
        assert np.allclose(pi_s[0, 2], pi_f[0, 2], atol=1e-12)
        assert np.allclose(pi_s[1, 2], pi_f[1, 2], atol=1e-12)

    def test_reduces_to_bgk_when_gamma_two(self):
        # With gamma = 2 the KBC update is exactly BGK; at equilibrium the
        # stabiliser is irrelevant, slightly off equilibrium it stays ~2.
        lat = D3Q27
        rho = np.ones(8)
        u = 0.01 * RNG.standard_normal((3, 8))
        feq = equilibrium(lat, rho, u)
        out_kbc = KBC(lat).collide(feq, 1.5)
        out_bgk = BGK(lat).collide(feq, 1.5)
        assert np.allclose(out_kbc, out_bgk, atol=1e-12)

    def test_2d_variant_runs(self):
        lat = D2Q9
        f = random_state(lat)
        out = KBC(lat).collide(f, 1.5)
        assert np.allclose(out.sum(axis=0), f.sum(axis=0), rtol=1e-12)

    def test_high_omega_stability(self):
        # KBC's raison d'etre: stable where BGK would need omega ~ 2.
        lat = D3Q27
        f = random_state(lat, amp=0.08)
        out = KBC(lat).collide(f, 1.995)
        assert np.isfinite(out).all()


def test_make_collision_errors():
    with pytest.raises(KeyError):
        make_collision("mrt", D2Q9)


def test_make_collision_names():
    assert make_collision("bgk", D2Q9).name == "BGK"
    assert make_collision("kbc", D3Q27).name == "KBC"


# -- the elementwise reference ---------------------------------------------------
# The textbook whole-array formulas, kept here (and only here), with their
# own direction-group table.  The production kernels relax in moment space:
# a GEMM sums in another order, so they agree with these to a bound (256
# eps of the dtype; measured worst 18 in float64), not bit for bit.  What
# is asserted bitwise are the properties the executors rely on: a cell's
# result does not depend on where its column sits in a call (float32:
# on how a level is cut on tile boundaries), on the memory layout, or on
# in-place operation.  ``make test-blas`` runs them on other OpenBLAS
# kernel sets, Haswell and Zen among them, whose float32 GEMM rounds a
# column by its place in the product.
RTOL = 256 * EPS
OMEGAS = (0.6, 1.0, 1.6, 1.95)


def ref_equilibrium(lat, rho, u):
    inv = 1.0 / lat.cs2
    eu = lat.ef @ u
    usq = np.einsum("dn,dn->n", u, u)
    out = eu * inv
    out += 0.5 * inv * inv * eu * eu
    out -= 0.5 * inv * usq
    out += 1.0
    out *= lat.w[:, None] * rho
    return out


def ref_guo(lat, u, force, omega):
    inv = 1.0 / lat.cs2
    eu = lat.ef @ u
    ef = lat.ef @ force
    term = inv * (ef[:, None] - (force @ u)[None, :])
    term += inv * inv * eu * ef[:, None]
    return (1.0 - 0.5 * omega) * lat.w[:, None] * term


def ref_shear_groups(lat):
    """Directions by shear role: axis ``"x"``, planar diagonal ``"xy+"`` / ``"xy-"``."""
    groups = {}
    for i, v in enumerate(lat.e.tolist()):
        nz = [k for k, c in enumerate(v) if c != 0]
        if len(nz) == 1:
            key = "xyz"[nz[0]]
        elif len(nz) == 2:
            a, b = nz
            key = "xyz"[a] + "xyz"[b] + ("+" if v[a] * v[b] > 0 else "-")
        else:
            continue
        groups.setdefault(key, []).append(i)
    return groups


def ref_collide(op, f, omega, force=None):
    lat = op.lattice
    rho = f.sum(axis=0)
    mom = lat.ef.T @ f
    if force is not None:
        mom = mom + 0.5 * force[:, None]
    u = mom / rho
    feq = ref_equilibrium(lat, rho, u)
    if isinstance(op, BGK):
        out = f * (1.0 - omega)
        out += omega * feq
    elif isinstance(op, TRT):
        def parts(x):
            rev = x[lat.opp]
            return 0.5 * (x + rev), 0.5 * (x - rev)
        plus, minus = parts(f - feq)
        om = op.omega_minus(omega)
        out = f - (omega * plus + om * minus)
        if force is not None:
            even, odd = parts(ref_guo(lat, u, force, 0.0))
            out += (1.0 - 0.5 * omega) * even + (1.0 - 0.5 * om) * odd
        return out
    else:  # KBC
        fneq = f - feq
        pi = np.einsum("qa,qb,qn->abn", lat.ef, lat.ef, fneq)
        g, ds = ref_shear_groups(lat), np.zeros_like(fneq)
        if lat.d == 3:
            nxz, nyz = pi[0, 0] - pi[2, 2], pi[1, 1] - pi[2, 2]
            ds[g["x"]] = (2.0 * nxz - nyz) / 6.0
            ds[g["y"]] = (-nxz + 2.0 * nyz) / 6.0
            ds[g["z"]] = (-nxz - nyz) / 6.0
            planar = (("xy", 0, 1), ("xz", 0, 2), ("yz", 1, 2))
        else:
            n = pi[0, 0] - pi[1, 1]
            ds[g["x"]], ds[g["y"]] = n / 4.0, -n / 4.0
            planar = (("xy", 0, 1),)
        for key, a, b in planar:
            ds[g[key + "+"]], ds[g[key + "-"]] = pi[a, b] / 4.0, -pi[a, b] / 4.0
        dh = fneq - ds
        inv_feq = 1.0 / feq
        sh = np.einsum("qn,qn->n", ds * inv_feq, dh)
        hh = np.einsum("qn,qn->n", dh * inv_feq, dh)
        beta = 0.5 * omega
        gamma = np.full_like(hh, 2.0)
        mask = hh > 1e-30
        np.divide(sh, hh, out=sh, where=mask)
        gamma[mask] = 1.0 / beta - (2.0 - 1.0 / beta) * sh[mask]
        out = f - beta * (2.0 * ds + gamma[None, :] * dh)
    if force is not None:
        out += ref_guo(lat, u, force, omega)
    return out


def _widths(op, dtype=np.float64):
    tile = op.tile(dtype)
    return [1, 63, 64, 65, tile - 1, tile, tile + 1, 3 * tile + 7]


def _force(lat, forced):
    return 1e-4 * (1.0 + np.arange(lat.d)) if forced else None


OPERATORS = [BGK(D2Q9), BGK(D3Q19), BGK(D3Q27), TRT(D2Q9), TRT(D3Q19),
             KBC(D2Q9), KBC(D3Q27)]
op_params = pytest.mark.parametrize(
    "op", OPERATORS, ids=lambda o: f"{o.name}-{o.lattice.name}")
forced_params = pytest.mark.parametrize(
    "forced", [False, True], ids=["unforced", "forced"])


def op_dtype_params(ops, name):
    """``(op, dtype)`` over both dtypes; float64, the reference precision,
    keeps the operator's bare id, float32 adds its own."""
    return pytest.mark.parametrize("op, dtype", [
        pytest.param(op, dtype, id=name(op) + suffix)
        for dtype, suffix in ((np.float64, ""), (np.float32, "-float32"))
        for op in ops])


@forced_params
@pytest.mark.parametrize("strided", [False, True], ids=["contig", "strided"])
@op_dtype_params(OPERATORS, lambda o: f"{o.name}-{o.lattice.name}")
class TestBlockedKernelsBitIdentical:
    """Within 256 eps of the dtype of the elementwise reference (run in
    float64 on the same inputs); bitwise equal to itself whatever the
    memory layout and whether or not it runs in place."""

    def test_collide_equals_reference(self, op, strided, forced, dtype):
        force = _force(op.lattice, forced)
        for n, omega in zip(_widths(op, dtype), itertools.cycle(OMEGAS)):
            store = random_state(op.lattice, n + 5 if strided else n,
                                 amp=0.05).astype(dtype)
            f = store[:, :n]
            out = np.empty((f.shape[0], n + 3), dtype)[:, :n]
            assert op.collide(f, omega, out=out, force=force) is out
            assert out.dtype == dtype
            np.testing.assert_allclose(
                out, ref_collide(op, f.astype(np.float64), omega, force),
                rtol=256 * np.finfo(dtype).eps, atol=0.0)
            # strided == contiguous, out-of-place == in place (a tile is
            # read before it is written)
            assert np.array_equal(op.collide(f.copy(), omega, force=force), out)
            g = store.copy()[:, :n]
            op.collide(g, omega, out=g, force=force)
            assert np.array_equal(g, out)


@forced_params
@op_dtype_params(OPERATORS, lambda o: f"{o.name}-{o.lattice.name}")
def test_a_cell_does_not_depend_on_its_column(op, forced, dtype):
    # split parts, mp column shards and the dense reference compute the
    # same cell in another call (DESIGN section 17, decision 2).  float64:
    # every width around the 64-column padding unit and the tile edge, at
    # aligned and unaligned offsets, then random slices.  float32: the
    # Haswell and Zen sgemm kernels round a column by its place in the
    # product, so the promise is the one the cuts rely on -- a call that
    # starts on a tile boundary and ends on one, or at the level's end
    lat, force = op.lattice, _force(op.lattice, forced)
    tile = op.tile(dtype)
    n = 3 * tile + 1001
    f = random_state(lat, n, amp=0.05).astype(dtype)
    whole = op.collide(f, 1.6, force=force)
    rng = np.random.default_rng(n)
    if dtype == np.float64:
        slices = [(off, off + w)
                  for off in (0, 1, 7, 63, 64, 1001, int(rng.integers(tile)))
                  for w in [*range(1, 140), tile - 1, tile, tile + 1]]
        slices += [tuple(sorted(rng.integers(0, n + 1, 2))) for _ in range(40)]
    else:
        edges = [*range(0, n, tile), n]
        slices = [(lo, hi) for lo in edges[:-1] for hi in edges if hi > lo]
    for lo, hi in slices:
        if lo < hi:
            assert np.array_equal(op.collide(f[:, lo:hi], 1.6, force=force),
                                  whole[:, lo:hi]), (lo, hi)


@forced_params
@op_params
def test_conserves_mass_and_momentum_per_cell(op, forced):
    lat, force = op.lattice, _force(op.lattice, forced)
    f = random_state(lat, 5000, amp=0.05)
    for omega in OMEGAS:
        out = op.collide(f, omega, force=force)
        rho = f.sum(axis=0)
        assert (np.abs(out.sum(axis=0) - rho) <= 16 * EPS * rho).all()
        gain = lat.ef.T @ (out - f)      # the force, if any, and nothing else
        if forced and isinstance(op, KBC):
            continue    # the half-force shift sits in dh and relaxes with gamma
        if forced:
            gain -= force[:, None]
        assert np.abs(gain).max() <= 1e-15


@pytest.mark.parametrize("strided", [False, True], ids=["contig", "strided"])
@pytest.mark.parametrize("lat", [D2Q9, D3Q19, D3Q27], ids=lambda l: l.name)
def test_equilibrium_equals_reference(lat, strided):
    tile = tile_width(lat.q, 2)
    for n in (1, 63, 64, tile - 1, tile, tile + 1, 3 * tile + 7):
        f = random_state(lat, n + 5 if strided else n, amp=0.05)[:, :n]
        rho, u = macroscopics(lat, f)
        got = equilibrium(lat, rho, u)
        np.testing.assert_allclose(got, ref_equilibrium(lat, rho, u),
                                   rtol=RTOL, atol=0.0)
        out = np.empty_like(f)
        assert equilibrium(lat, rho, u, out=out) is out
        assert np.array_equal(out, got)
        # the dense reference initialises the same cells in another order
        lo = n // 3
        assert np.array_equal(equilibrium(lat, rho[lo:], u[:, lo:]), got[:, lo:])


@pytest.mark.parametrize("lat", [D2Q9, D3Q19, D3Q27], ids=lambda l: l.name)
def test_guo_source_equals_reference(lat):
    u = 0.05 * RNG.standard_normal((lat.d, 1000))
    force = _force(lat, True)
    for omega in OMEGAS:
        want = ref_guo(lat, u, force, omega)
        np.testing.assert_allclose(guo_source(lat, u, force, omega), want,
                                   rtol=0.0, atol=RTOL * np.abs(want).max())


@op_dtype_params([BGK(D3Q19), TRT(D3Q19), KBC(D3Q27)], lambda o: o.name)
def test_collide_allocates_no_level_sized_temporary(op, dtype):
    # split into column ranges on tile boundaries and run concurrently (as
    # the engine's collide body does), each part holds one tile working
    # set -- the width may not depend on the split -- and nothing the
    # size of the level; the result is the same
    import hashlib
    import tracemalloc
    n = 400_000
    f = random_state(op.lattice, n + 7).astype(dtype)[:, :n]  # ragged: the stage is live
    out = np.empty_like(f)
    assert op.tile(dtype) * op.LIVE_TILES * op.lattice.q * f.itemsize <= TILE_BUDGET_BYTES
    digests = set()
    for parts in (1, 2, 3):
        cuts = tile_cuts(n, parts, op.tile(dtype))
        assert len(cuts) == parts + 1

        def collide():
            run_split([lambda lo=lo, hi=hi: op.collide(f[:, lo:hi], 1.6,
                                                       out=out[:, lo:hi])
                       for lo, hi in zip(cuts, cuts[1:])])
        collide()
        tracemalloc.start()
        try:
            collide()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < parts * TILE_BUDGET_BYTES + (1 << 20) < f.nbytes, parts
        digests.add(hashlib.sha256(out).hexdigest())
    assert len(digests) == 1


@pytest.mark.parametrize("workload, steps", [
    (lambda: lid_cavity(base=(32, 32), num_levels=3, lattice="D2Q9"), 100),
    (lambda: sphere_tunnel(scale=0.25), 20),
], ids=["cavity2d-bgk", "sphere-kbc"])
def test_whole_run_matches_elementwise_collision(workload, steps, monkeypatch):
    # rounding differences of the moment-space kernels do not grow: a run
    # with the elementwise reference patched in behind every collide ends
    # at the same velocities (float64 round-off, so at float64)
    _assert_matches_elementwise(workload, steps, "float64", 1e-10, monkeypatch)


@pytest.mark.parametrize("workload, steps", [
    (lambda: lid_cavity(base=(32, 32), num_levels=3, lattice="D2Q9"), 100),
    (lambda: sphere_tunnel(scale=0.25), 20),
], ids=["cavity2d-bgk", "sphere-kbc"])
def test_whole_run_matches_elementwise_collision_float32(workload, steps, monkeypatch):
    # the float32 twin: both runs round every population to float32 each
    # substep, so they part by a few float32 ulps of the velocity (read
    # 3.9 eps after 100 steps of the cavity) and the gap must not grow
    # with the run; 32 eps of float32 on velocities of order 0.06
    _assert_matches_elementwise(workload, steps, "float32",
                                32 * np.finfo(np.float32).eps, monkeypatch)


def _assert_matches_elementwise(workload, steps, dtype, bound, monkeypatch):
    def run():
        wl = workload()
        sim = Simulation.from_config(wl.spec, wl.sim_config(dtype=dtype))
        sim.run(steps)
        return [sim.macroscopics(lv)[1] for lv in range(wl.spec.num_levels)]

    shipped = run()

    def elementwise(self, f, omega, out=None, force=None):
        res = ref_collide(self, np.asarray(f, dtype=np.float64), omega, force)
        if out is None:
            return res.astype(f.dtype)
        out[...] = res
        return out

    monkeypatch.setattr(CollisionModel, "collide", elementwise)
    for u, v in zip(shipped, run()):
        assert np.abs(u - v).max() <= bound
