"""Collision operators: BGK (Eq. 3), TRT and the entropic KBC model (Section II).

All operators act on float64 population arrays of shape ``(Q, N)`` where
``N`` is the number of cells of one grid level — the flat,
structure-of-arrays view produced by the block-sparse grid (Section V-A of
the paper).

Collision happens in *moment space*.  The equilibrium (Eq. 5) is a
polynomial in a handful of moments, so a cell's relaxation is two small
matrix products against constant lattice matrices and a few row
operations: **project** ``[rho; j]`` out of ``f``, form the second-order
rows ``j_a j_b / rho`` (and ``[1; u]`` for Guo forcing), **reconstruct**
``basis @ [rho; j; jj/rho]`` scaled by the operator's rates.  A level is
processed in *column tiles* narrow enough that the ``f``, ``out`` and
scratch tiles stay in cache between the few passes that touch them — the
host analogue of the paper's fused kernels keeping intermediates in
registers (Section IV).

A cell's result must not depend on where its column sits in a call (mp
column shards, the dense reference and other tile widths compute the same
cell at other offsets).  BLAS rounds the last columns of a product in an
edge kernel, so **every matrix product here runs on a block whose width is
a multiple of 64**: whole tiles are read in place, the last ``N % 64``
columns are staged into scratch padded with the rest state ``w_i``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, ClassVar, Iterator

import numpy as np

from .lattice import Lattice

__all__ = [
    "macroscopics",
    "density",
    "velocity",
    "pressure",
    "equilibrium",
    "guo_source",
    "CollisionModel",
    "BGK",
    "TRT",
    "KBC",
    "make_collision",
]

#: Bytes a tile's working set may occupy: the ``f`` and ``out`` tiles plus
#: the operator's scratch tiles.  Smaller tiles sit deeper in the cache
#: but pay NumPy's per-call cost (and, between concurrently stepping
#: threads, a GIL hand-off) more often; the sweep behind the value is in
#: EXPERIMENTS.md, "Moment-space collision".
TILE_BUDGET_BYTES = 6 << 20


def tile_width(q: int, live_tiles: int, budget: int = TILE_BUDGET_BYTES) -> int:
    """Cells per tile so that ``live_tiles`` float64 ``(q, tile)`` arrays fit ``budget``."""
    return max(budget // (q * 8 * live_tiles) // 64 * 64, 64)


def _tiles(lat: Lattice, n: int, live_tiles: int, budget: int = TILE_BUDGET_BYTES
           ) -> Iterator[tuple[int, int, bool, list[np.ndarray]]]:
    """Yield ``(lo, hi, staged, scratch)`` over the column tiles of an ``n``-cell level.

    ``scratch`` is float64, carved from one allocation per call: a
    ``(Q, 64)`` stage, and — as wide as the tile's matrix products run,
    always a multiple of 64 — the ``(2 + 2 d + len(pairs), w)`` moment
    block and ``live_tiles - 2`` more ``(Q, w)`` blocks.  ``staged`` tells
    the caller to go through the stage instead of ``[lo, hi)`` of its own
    arrays: for the last ``n % 64`` columns (``w = 64``; the caller pads).
    """
    tile = tile_width(lat.q, live_tiles, budget)
    width, full = min(tile, n + -n % 64), n - n % 64
    shapes = [(lat.q, 64),
              (2 + 2 * lat.d + len(lat.pairs), width),
              *[(lat.q, width)] * (live_tiles - 2)]
    offs = [0, *accumulate(r * w for r, w in shapes)]
    flat = np.empty(offs[-1])
    blocks = [flat[a:b].reshape(s) for a, b, s in zip(offs, offs[1:], shapes)]
    edges = sorted({*range(0, full, tile), full, n})
    for lo, hi in zip(edges, edges[1:]):
        w = hi - lo + (lo - hi) % 64               # hi - lo rounded up
        yield lo, hi, w > hi - lo, [b[:, :w] for b in blocks]


def density(lat: Lattice, f: np.ndarray) -> np.ndarray:
    """Fluid density, Eq. (6): ``rho = sum_i f_i``."""
    return f.sum(axis=0)


def velocity(lat: Lattice, f: np.ndarray, rho: np.ndarray | None = None) -> np.ndarray:
    """Fluid velocity, Eq. (7): ``u = (1/rho) sum_i e_i f_i``; shape ``(d, N)``."""
    if rho is None:
        rho = density(lat, f)
    mom = lat.ef.T @ f  # (d, N)
    return mom / rho


def pressure(lat: Lattice, f: np.ndarray) -> np.ndarray:
    """Fluid pressure, Eq. (8): ``p = c_s^2 rho``."""
    return lat.cs2 * density(lat, f)


def macroscopics(lat: Lattice, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Density and velocity in one pass over ``f``."""
    rho = density(lat, f)
    return rho, velocity(lat, f, rho)


def _flux_rows(lat: Lattice, m: np.ndarray) -> None:
    """Fill the second-order rows ``j_a u_b`` of the moment block ``m``.

    ``m`` is ``[rho; j; j_a u_b (a <= b); 1; u]``, ``(2 + 2 d + len(pairs), width)``.
    """
    n1 = 1 + lat.d
    u = m[n1 + len(lat.pairs) + 1:]
    for k, (a, b) in enumerate(lat.pairs):
        np.multiply(m[1 + a], u[b], out=m[n1 + k])


def _project(lat: Lattice, f: np.ndarray, force: np.ndarray | None,
             m: np.ndarray) -> None:
    """Moment block of a population tile: ``[rho; j; j_a u_b; 1; u]`` into ``m``.

    With a force, ``j`` carries Guo's half-force shift.
    """
    n1, n2 = 1 + lat.d, lat.basis.shape[1]
    np.matmul(lat.moments[:n1], f, out=m[:n1])
    if force is not None:
        m[1:n1] += 0.5 * force[:, None]
    m[n2] = 1.0
    np.divide(m[1:n1], m[0], out=m[n2 + 1:])
    _flux_rows(lat, m)


def _guo_basis(lat: Lattice, force: np.ndarray) -> np.ndarray:
    """``(Q, 1 + d)`` matrix ``G`` of Guo's source, ``S = (1 - omega/2) G @ [1; u]``."""
    ef_f = (lat.ef @ force)[:, None] / lat.cs2
    return lat.w[:, None] * np.hstack(
        [ef_f, (lat.ef * ef_f - force) / lat.cs2])


def _reconstruct(lat: Lattice, rho: np.ndarray, u: np.ndarray,
                 basis: np.ndarray, rows: slice,
                 out: np.ndarray | None) -> np.ndarray:
    """``basis @ m[rows]`` for the moment block ``m`` of ``(rho, u)``, tile by tile."""
    u = np.asarray(u, dtype=np.float64)
    n = u.shape[1]
    rho = np.broadcast_to(np.asarray(rho, dtype=np.float64), (n,))
    if out is None:
        out = np.empty((lat.q, n))
    n1, n2 = 1 + lat.d, lat.basis.shape[1]
    for lo, hi, staged, (stage, m) in _tiles(lat, n, 2):
        k = hi - lo
        m[0, :k], m[n2], m[n2 + 1:, :k] = rho[lo:hi], 1.0, u[:, lo:hi]
        m[0, k:], m[n2 + 1:, k:] = 1.0, 0.0
        np.multiply(m[0], m[n2 + 1:], out=m[1:n1])
        _flux_rows(lat, m)
        np.matmul(basis, m[rows], out=stage if staged else out[:, lo:hi])
        if staged:
            out[:, lo:hi] = stage[:, :k]
    return out


def equilibrium(lat: Lattice, rho: np.ndarray, u: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """Second-order Maxwell-Boltzmann equilibrium, Eq. (5).

    Parameters
    ----------
    rho : shape ``(N,)``
    u : shape ``(d, N)``
    out : optional ``(Q, N)`` buffer written in place.
    """
    return _reconstruct(lat, rho, u, lat.basis,
                        slice(None, lat.basis.shape[1]), out)


def guo_source(lat: Lattice, u: np.ndarray, force: np.ndarray,
               omega: float) -> np.ndarray:
    """Guo et al. (2002) forcing source term, shape ``(Q, N)``.

    ``S_i = (1 - omega/2) w_i [ (e_i - u)/c_s^2 + (e_i.u) e_i / c_s^4 ] . F``
    with ``F`` a constant body-force density vector of shape ``(d,)``.
    The matching velocity definition is handled by the caller: the
    equilibrium (and the macroscopic output) must use the half-force
    shifted velocity ``u = (sum e_i f_i + F/2) / rho``.
    """
    basis = (1.0 - 0.5 * omega) * _guo_basis(
        lat, np.asarray(force, dtype=np.float64))
    return _reconstruct(lat, 1.0, u, basis,
                        slice(lat.basis.shape[1], None), None)


@dataclass(frozen=True)
class CollisionModel:
    """Base class: the tiled moment-space driver; subclasses relax one tile.

    ``force`` is an optional constant body-force density vector ``(d,)``
    applied with the Guo scheme (second-order accurate forcing).
    """

    lattice: Lattice

    #: Float64 ``(Q, tile)`` arrays a tile keeps live: ``f``, ``out`` and the
    #: operator's scratch tiles; sets the tile width (see :func:`tile_width`).
    LIVE_TILES: ClassVar[int] = 3

    def collide(self, f: np.ndarray, omega: float,
                out: np.ndarray | None = None,
                force: np.ndarray | None = None,
                budget: int = TILE_BUDGET_BYTES) -> np.ndarray:
        """Post-collision populations of ``f`` ``(Q, N)``, tile by tile.

        ``out`` may be ``f`` itself (a tile is read before it is written);
        any other overlap between the two is not supported.  ``budget``
        bounds the tile working set.
        """
        lat = self.lattice
        if out is None:
            out = np.empty_like(f)
        if force is not None:
            force = np.asarray(force, dtype=np.float64)
        relax = self._relaxation(omega, force)
        for lo, hi, staged, (stage, m, *tiles) in _tiles(
                lat, f.shape[1], self.LIVE_TILES, budget):
            if staged:
                src = dst = stage
                src[:, :hi - lo], src[:, hi - lo:] = f[:, lo:hi], lat.w[:, None]
            else:
                src, dst = f[:, lo:hi], out[:, lo:hi]
            _project(lat, src, force, m)
            relax(src, dst, m, *tiles)
            if staged:
                out[:, lo:hi] = dst[:, :hi - lo]
        return out

    def _relaxation(self, omega: float, force: np.ndarray | None
                    ) -> Callable[..., None]:
        """One call's tile relaxation ``(f, out, m, *scratch_tiles)``.

        Closed over the call's constant matrices; ``m`` is the moment block
        of :func:`_project`, ``out`` may be ``f`` itself.
        """
        raise NotImplementedError

    def _moments(self, f: np.ndarray, force: np.ndarray | None
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Density and (half-force-shifted, if forced) velocity."""
        rho = density(self.lattice, f)
        mom = self.lattice.ef.T @ f
        if force is not None:
            mom += 0.5 * np.asarray(force, dtype=np.float64)[:, None]
        return rho, mom / rho

    @property
    def name(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class BGK(CollisionModel):
    """Single-relaxation-time Bhatnagar-Gross-Krook operator (Eq. 3)."""

    def _relaxation(self, omega, force):
        lat = self.lattice
        # f* = (1 - omega) f + omega feq (+ Guo source)
        mat = omega * lat.basis
        if force is not None:
            mat = np.hstack([mat, (1.0 - 0.5 * omega) * _guo_basis(lat, force)])
        rows = mat.shape[1]

        def relax(f, out, m, g):
            np.matmul(mat, m[:rows], out=g)
            np.multiply(f, 1.0 - omega, out=out)
            out += g
        return relax


@dataclass(frozen=True)
class TRT(CollisionModel):
    """Two-relaxation-time operator (Ginzburg; d'Humieres & Ginzburg).

    Populations split into even/odd parts about direction reversal:
    ``f+ = (f_i + f_ibar)/2`` relaxes with the viscosity rate ``omega``
    while ``f- = (f_i - f_ibar)/2`` relaxes with ``omega_minus`` chosen
    through the *magic parameter*
    ``Lambda = (1/omega - 1/2)(1/omega_minus - 1/2)``.
    The default ``Lambda = 3/16`` places halfway bounce-back walls
    exactly on the link midpoint, making channel flows grid-exact —
    a well-known robustness upgrade over BGK at no extra memory.
    """

    magic: float = 3.0 / 16.0

    LIVE_TILES: ClassVar[int] = 4

    def __post_init__(self) -> None:
        if self.magic <= 0:
            raise ValueError("the magic parameter must be positive")

    def omega_minus(self, omega: float) -> float:
        lam_plus = 1.0 / omega - 0.5
        return 1.0 / (self.magic / lam_plus + 0.5)

    def _by_parity(self, mat: np.ndarray, c_even: float, c_odd: float
                   ) -> np.ndarray:
        """``c_even * even(mat) + c_odd * odd(mat)`` about direction reversal."""
        rev = mat[self.lattice.opp]
        return 0.5 * c_even * (mat + rev) + 0.5 * c_odd * (mat - rev)

    def _relaxation(self, omega, force):
        lat = self.lattice
        om = self.omega_minus(omega)
        # f* = f - omega f+neq - om f-neq
        #    = a f + b f[opp] + (omega W+ + om W-) m, W+- the parities of W
        a, b = 1.0 - 0.5 * (omega + om), 0.5 * (om - omega)
        mat = self._by_parity(lat.basis, omega, om)
        if force is not None:
            # each parity of the Guo source relaxes with its own rate:
            # the odd part (the force itself) with omega_minus, the even
            # part (the u.F corrections) with omega
            mat = np.hstack([mat, self._by_parity(
                _guo_basis(lat, force), 1.0 - 0.5 * omega, 1.0 - 0.5 * om)])
        rows = mat.shape[1]

        def relax(f, out, m, g, rev):
            np.matmul(mat, m[:rows], out=g)
            np.take(f, lat.opp, axis=0, out=rev, mode="clip")
            rev *= b
            g += rev
            np.multiply(f, a, out=out)
            out += g
        return relax


def _kbc_shear(lat: Lattice) -> np.ndarray:
    """``(Q, len(pairs))`` matrix ``S`` of the KBC shear part, ``ds = S @ Pi(fneq)``.

    The shear part ``s_i`` of the population in direction ``e_i`` depends
    only on the non-equilibrium momentum-flux tensor ``Pi``; see Karlin,
    Bösch and Chikatamarla, Phys. Rev. E 90 (2014).  Axis directions carry
    the traceless normal stress ``(d Pi_aa - tr Pi) / 2d``, planar
    diagonals ``e_a e_b Pi_ab / 4``; rest and corner directions none.
    """
    d = lat.d
    shear = np.zeros((lat.q, len(lat.pairs)))
    for i, v in enumerate(lat.e.tolist()):
        nz = [a for a, c in enumerate(v) if c != 0]
        for k, (a, b) in enumerate(lat.pairs):
            if len(nz) == 1 and a == b:
                shear[i, k] = ((d if a == nz[0] else 0) - 1) / (2 * d)
            elif nz == [a, b]:
                shear[i, k] = v[a] * v[b] / 4
    return shear


@dataclass(frozen=True)
class KBC(CollisionModel):
    """Entropic multi-relaxation KBC operator (Karlin-Bösch-Chikatamarla).

    The population is split as ``f = k + s + h`` (conserved, shear,
    higher-order parts).  Shear relaxes with ``2 beta = omega`` while the
    higher-order part relaxes with a per-cell entropic stabiliser
    ``gamma``; where the higher-order deviation vanishes the operator
    degenerates smoothly to BGK (``gamma = 2``).  Compatible with D3Q27
    (the paper's turbulent runs) and, for testing, D2Q9.
    """

    #: ``(Q, len(pairs))`` shear matrix of the lattice, see :func:`_kbc_shear`.
    shear: np.ndarray = field(init=False, repr=False, compare=False,
                              default=None)

    LIVE_TILES: ClassVar[int] = 5

    def __post_init__(self) -> None:
        if self.lattice.d == 3 and self.lattice.q != 27:
            raise ValueError("KBC in 3D requires the D3Q27 lattice")
        shear = _kbc_shear(self.lattice)
        shear.setflags(write=False)
        object.__setattr__(self, "shear", shear)

    def _relaxation(self, omega, force):
        lat, shear = self.lattice, self.shear
        n2, n_pi = lat.basis.shape[1], len(lat.pairs)
        flux = lat.moments[n2 - n_pi:]
        beta, inv_beta = 0.5 * omega, 2.0 / omega
        source = None if force is None else (
            (1.0 - beta) * _guo_basis(lat, force))

        def relax(f, out, m, feq, dh, ds):
            np.matmul(lat.basis, m[:n2], out=feq)
            # the conserved and flux rows of m are spent: reuse them
            pi, (sh, hh, gamma) = m[:n_pi], m[n_pi:n_pi + 3]
            np.subtract(f, feq, out=dh)               # fneq
            np.matmul(flux, dh, out=pi)
            np.matmul(shear, pi, out=ds)
            dh -= ds
            # Entropic scalar products <x|y> = sum_i x_i y_i / feq_i.
            np.divide(dh, feq, out=feq)
            np.einsum("qn,qn->n", ds, feq, out=sh)
            np.einsum("qn,qn->n", dh, feq, out=hh)
            mask = hh > 1e-30
            np.divide(sh, hh, out=sh, where=mask)
            sh *= 2.0 - inv_beta
            np.subtract(inv_beta, sh, out=sh)
            gamma.fill(2.0)
            np.copyto(gamma, sh, where=mask)
            # f* = f - beta (2 ds + gamma dh)
            gamma *= beta
            ds *= omega
            dh *= gamma
            ds += dh
            np.subtract(f, ds, out=out)
            if source is not None:
                np.matmul(source, m[n2:], out=feq)
                out += feq
        return relax


def make_collision(model: str, lat: Lattice) -> CollisionModel:
    """Factory: ``model`` is ``"bgk"``, ``"trt"`` or ``"kbc"``."""
    key = model.lower()
    if key == "bgk":
        return BGK(lat)
    if key == "trt":
        return TRT(lat)
    if key == "kbc":
        return KBC(lat)
    raise KeyError(
        f"unknown collision model {model!r}; choose 'bgk', 'trt' or 'kbc'")
