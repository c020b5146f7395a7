"""Collision operators: BGK (Eq. 3) and the entropic KBC model (Section II).

All operators act on population arrays of shape ``(Q, N)`` where ``N`` is
the number of cells of one grid level — the flat, structure-of-arrays view
produced by the block-sparse grid (Section V-A of the paper).

Collision is per cell, so a level is processed in *column tiles* narrow
enough that a tile of ``f``, of ``out`` and of every ``(Q, tile)``
intermediate stays in cache between the passes that touch it — the host
analogue of the paper's fused kernels keeping intermediates in registers
(Section IV).  :meth:`CollisionModel.collide` is the one blocked driver;
an operator implements only its per-tile relaxation, in ``out=`` ufunc /
``matmul`` / ``einsum`` calls on scratch allocated once per call.  A tile
runs the operations of the whole-array formula in the same order, so the
result does not depend on the tile width, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterator

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
#: the operator's live intermediates.  Smaller tiles sit deeper in the cache
#: but pay NumPy's per-call cost (and, between concurrently stepping
#: threads, a GIL hand-off) more often; the sweep behind the value is in
#: EXPERIMENTS.md, "Blocked collision".
TILE_BUDGET_BYTES = 6 << 20


def tile_width(q: int, live_tiles: int) -> int:
    """Cells per tile so that ``live_tiles`` float64 ``(q, tile)`` arrays fit the budget.

    A multiple of 64: BLAS ``gemv`` computes the last ``n % 4`` columns of
    a call in a scalar tail whose rounding differs from the vector body,
    so tile edges must fall on multiples of 4 for a tiled call to equal
    the whole-array one.
    """
    return max(TILE_BUDGET_BYTES // (q * 8 * live_tiles) // 64 * 64, 64)


def _tiled(n: int, q: int, live_tiles: int, rows: tuple[int, ...]
           ) -> Iterator[tuple[int, int, list[np.ndarray]]]:
    """Yield ``(lo, hi, scratch)`` over the column tiles of an ``n``-cell level.

    ``scratch`` is one contiguous float64 ``(r, hi - lo)`` block per entry
    of ``rows``, carved from a single allocation made once per call.  A
    trailing single column is folded into the tile before it: on one
    column NumPy reduces and multiplies along the other axis, in another
    summation order than on a whole level.
    """
    tile = tile_width(q, live_tiles)
    flat = np.empty(sum(rows) * min(n, tile + 1))
    lo, blocks = 0, []
    while lo < n:
        hi = lo + tile if lo + tile + 1 < n else n
        if not blocks or blocks[0].shape[1] != hi - lo:
            offs = np.cumsum((0,) + rows) * (hi - lo)
            blocks = [flat[a:b].reshape(r, hi - lo)
                      for a, b, r in zip(offs, offs[1:], rows)]
        yield lo, hi, blocks
        lo = hi


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


def _moments_into(lat: Lattice, f: np.ndarray, force: np.ndarray | None,
                  rho: np.ndarray, u: np.ndarray) -> None:
    """Density into ``rho`` ``(m,)``, (half-force-shifted) velocity into ``u``."""
    np.add.reduce(f, axis=0, dtype=f.dtype, out=rho)
    np.matmul(lat.ef.T, f, out=u)
    if force is not None:
        u += 0.5 * np.asarray(force, dtype=np.float64)[:, None]
    u /= rho


def _equilibrium_into(lat: Lattice, rho: np.ndarray, u: np.ndarray,
                      out: np.ndarray, eu: np.ndarray, t: np.ndarray,
                      s: np.ndarray) -> None:
    """Eq. (5) on one tile; leaves ``e_i . u`` in ``eu``, clobbers ``t``, ``s``."""
    inv_cs2 = 1.0 / lat.cs2
    np.matmul(lat.ef, u, out=eu)
    np.einsum("dn,dn->n", u, u, out=s)          # |u|^2
    np.multiply(eu, inv_cs2, out=out)
    np.multiply(eu, 0.5 * inv_cs2 * inv_cs2, out=t)
    t *= eu
    out += t
    s *= 0.5 * inv_cs2
    out -= s
    out += 1.0
    np.multiply(lat.w[:, None], rho, out=t)
    out *= t


def equilibrium(lat: Lattice, rho: np.ndarray, u: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """Second-order Maxwell-Boltzmann equilibrium, Eq. (5).

    Parameters
    ----------
    rho : shape ``(N,)``
    u : shape ``(d, N)``
    out : optional ``(Q, N)`` buffer written in place.
    """
    u = np.asarray(u, dtype=np.float64)
    n = u.shape[1]
    rho = np.broadcast_to(np.asarray(rho, dtype=np.float64), (n,))
    if out is None:
        out = np.empty((lat.q, n))
    for lo, hi, (eu, t, s) in _tiled(n, lat.q, 3, (lat.q, lat.q, 1)):
        _equilibrium_into(lat, rho[lo:hi], u[:, lo:hi], out[:, lo:hi],
                          eu, t, s[0])
    return out


def _guo_source_into(lat: Lattice, eu: np.ndarray, u: np.ndarray,
                     force: np.ndarray, omega: float, out: np.ndarray,
                     t: np.ndarray, s: np.ndarray) -> None:
    """Guo source of one tile into ``out``, given ``eu = e_i . u``."""
    inv_cs2 = 1.0 / lat.cs2
    ef_dot_f = (lat.ef @ force)[:, None]               # (Q, 1)
    np.matmul(force, u, out=s)                         # u . F
    np.subtract(ef_dot_f, s, out=out)
    out *= inv_cs2
    np.multiply(eu, inv_cs2 * inv_cs2, out=t)
    t *= ef_dot_f
    out += t
    out *= (1.0 - 0.5 * omega) * lat.w[:, None]


def guo_source(lat: Lattice, u: np.ndarray, force: np.ndarray,
               omega: float) -> np.ndarray:
    """Guo et al. (2002) forcing source term, shape ``(Q, N)``.

    ``S_i = (1 - omega/2) w_i [ (e_i - u)/c_s^2 + (e_i.u) e_i / c_s^4 ] . F``
    with ``F`` a constant body-force density vector of shape ``(d,)``.
    The matching velocity definition is handled by the caller: the
    equilibrium (and the macroscopic output) must use the half-force
    shifted velocity ``u = (sum e_i f_i + F/2) / rho``.
    """
    force = np.asarray(force, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    eu = lat.ef @ u
    out = np.empty_like(eu)
    _guo_source_into(lat, eu, u, force, omega, out, np.empty_like(eu),
                     np.empty(u.shape[1]))
    return out


@dataclass(frozen=True)
class CollisionModel:
    """Base class: the blocked driver; subclasses relax one tile.

    ``force`` is an optional constant body-force density vector ``(d,)``
    applied with the Guo scheme (second-order accurate forcing).
    """

    lattice: Lattice

    #: ``(Q, tile)`` float64 intermediates a tile keeps live; with the ``f``
    #: and ``out`` tiles they set the tile width (see :func:`tile_width`).
    SCRATCH_TILES: ClassVar[int] = 3
    #: ``(tile,)`` scratch rows of a tile, beyond ``rho`` and ``u``.
    SCRATCH_ROWS: ClassVar[int] = 1

    def collide(self, f: np.ndarray, omega: float,
                out: np.ndarray | None = None,
                force: np.ndarray | None = None) -> np.ndarray:
        """Post-collision populations of ``f`` ``(Q, N)``, tile by tile.

        ``out`` may be ``f`` itself (a tile is read before it is written);
        any other overlap between the two is not supported.
        """
        lat = self.lattice
        if out is None:
            out = np.empty_like(f)
        if force is not None:
            force = np.asarray(force, dtype=np.float64)
        rows = (1, lat.d, self.SCRATCH_ROWS) + (lat.q,) * self.SCRATCH_TILES
        for lo, hi, ws in _tiled(f.shape[1], lat.q, self.SCRATCH_TILES + 2,
                                 rows):
            (rho,), u, rest, eu, feq, t = ws[:6]
            _moments_into(lat, f[:, lo:hi], force, rho, u)
            _equilibrium_into(lat, rho, u, feq, eu, t, rest[0])
            self._relax_tile(f[:, lo:hi], omega, out[:, lo:hi], force, ws)
        return out

    def _relax_tile(self, f: np.ndarray, omega: float, out: np.ndarray,
                    force: np.ndarray | None, ws: list[np.ndarray]) -> None:
        """Relax one tile of ``f`` into ``out``.

        ``ws`` is ``rho`` ``(1, m)``, ``u``, ``SCRATCH_ROWS`` rows, then
        ``SCRATCH_TILES`` tiles: the first holds ``e_i . u`` on entry, the
        second the equilibrium; the other tiles and the rows are free.
        """
        raise NotImplementedError

    def _moments(self, f: np.ndarray, force: np.ndarray | None
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Density and (half-force-shifted, if forced) velocity."""
        rho = np.empty(f.shape[1])
        u = np.empty((self.lattice.d, f.shape[1]))
        _moments_into(self.lattice, f, force, rho, u)
        return rho, u

    @property
    def name(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class BGK(CollisionModel):
    """Single-relaxation-time Bhatnagar-Gross-Krook operator (Eq. 3)."""

    def _relax_tile(self, f, omega, out, force, ws) -> None:
        _, u, (s,), eu, feq, t = ws
        # f* = (1 - omega) f + omega feq (+ Guo source)
        np.multiply(f, 1.0 - omega, out=out)
        feq *= omega
        out += feq
        if force is not None:
            _guo_source_into(self.lattice, eu, u, force, omega, feq, t, s)
            out += feq


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

    SCRATCH_TILES: ClassVar[int] = 4

    def __post_init__(self) -> None:
        if self.magic <= 0:
            raise ValueError("the magic parameter must be positive")

    def omega_minus(self, omega: float) -> float:
        lam_plus = 1.0 / omega - 0.5
        return 1.0 / (self.magic / lam_plus + 0.5)

    def _parity_mix(self, x: np.ndarray, c_even: float, c_odd: float,
                    rev: np.ndarray, even: np.ndarray) -> None:
        """``c_even * even(x) + c_odd * odd(x)`` into ``even``; clobbers ``rev``."""
        np.take(x, self.lattice.opp, axis=0, out=rev, mode="clip")
        np.add(x, rev, out=even)
        even *= 0.5
        np.subtract(x, rev, out=rev)
        rev *= 0.5
        even *= c_even
        rev *= c_odd
        even += rev

    def _relax_tile(self, f, omega, out, force, ws) -> None:
        _, u, (s,), eu, fneq, a, b = ws
        np.subtract(f, fneq, out=fneq)
        om = self.omega_minus(omega)
        self._parity_mix(fneq, omega, om, a, b)
        np.subtract(f, b, out=out)
        if force is not None:
            # each parity of the Guo source relaxes with its own rate:
            # the odd part (the force itself) with omega_minus, the even
            # part (the u.F corrections) with omega
            _guo_source_into(self.lattice, eu, u, force, 0.0, fneq, a, s)
            self._parity_mix(fneq, 1.0 - 0.5 * omega, 1.0 - 0.5 * om, a, b)
            out += b


# Index bookkeeping for the KBC shear-part decomposition.  The shear part
# s_i of the population in direction e_i depends only on the non-equilibrium
# momentum-flux tensor Pi = sum_i e_i e_i (f_i - f_i^eq); see Karlin, Bösch
# and Chikatamarla, Phys. Rev. E 90 (2014) — and the per-cell stabiliser
# gamma is computed from the entropic scalar product.
def _kbc_shear_tables(lat: Lattice):
    """Precompute direction groups for the D3Q27/D2Q9 shear decomposition."""
    e = lat.e
    groups = {
        "x": [], "y": [], "z": [],        # axis-aligned, speed 1
        "xy+": [], "xy-": [],             # planar diagonals
        "xz+": [], "xz-": [],
        "yz+": [], "yz-": [],
    }
    d = lat.d
    for i, v in enumerate(e.tolist()):
        nz = [k for k, c in enumerate(v) if c != 0]
        if len(nz) == 1:
            groups["xyz"[nz[0]]].append(i)
        elif len(nz) == 2 and d >= 2:
            a, b = nz
            key = "xyz"[a] + "xyz"[b]
            sign = "+" if v[a] * v[b] > 0 else "-"
            if key in ("xy", "xz", "yz"):
                groups[key + sign].append(i)
    return groups


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

    SCRATCH_TILES: ClassVar[int] = 5
    #: |u|^2, the d x d momentum-flux tensor, and 7 rows of shear / gamma terms.
    SCRATCH_ROWS: ClassVar[int] = 1 + 9 + 7

    def __post_init__(self) -> None:
        if self.lattice.d == 3 and self.lattice.q != 27:
            raise ValueError("KBC in 3D requires the D3Q27 lattice")
        object.__setattr__(self, "_groups", _kbc_shear_tables(self.lattice))

    def _delta_s(self, fneq: np.ndarray, ds: np.ndarray,
                 rows: np.ndarray) -> np.ndarray:
        """Shear part of ``fneq`` into ``ds``; ``rows`` is ``(d*d + 4, N)`` scratch."""
        d, e, g = self.lattice.d, self.lattice.ef, self._groups
        pi = rows[:d * d].reshape(d, d, -1)
        nxz, nyz, r, r2 = rows[d * d:d * d + 4]
        ds.fill(0.0)
        np.einsum("qa,qb,qn->abn", e, e, fneq, out=pi)
        if d == 3:
            np.subtract(pi[0, 0], pi[2, 2], out=nxz)
            np.subtract(pi[1, 1], pi[2, 2], out=nyz)
            np.multiply(nxz, 2.0, out=r)          # (2 nxz - nyz) / 6
            r -= nyz
            r /= 6.0
            ds[g["x"]] = r
            np.negative(nxz, out=r)               # (-nxz + 2 nyz) / 6
            np.multiply(nyz, 2.0, out=r2)
            r += r2
            r /= 6.0
            ds[g["y"]] = r
            np.negative(nxz, out=r)               # (-nxz - nyz) / 6
            r -= nyz
            r /= 6.0
            ds[g["z"]] = r
            planar = (("xy", 0, 1), ("xz", 0, 2), ("yz", 1, 2))
        else:  # D2Q9
            np.subtract(pi[0, 0], pi[1, 1], out=nxz)
            np.divide(nxz, 4.0, out=r)
            ds[g["x"]] = r
            np.negative(nxz, out=r)
            r /= 4.0
            ds[g["y"]] = r
            planar = (("xy", 0, 1),)
        for key, a, b in planar:                  # +-Pi_ab / 4
            np.divide(pi[a, b], 4.0, out=r)
            ds[g[key + "+"]] = r
            np.negative(pi[a, b], out=r)
            r /= 4.0
            ds[g[key + "-"]] = r
        return ds

    def _relax_tile(self, f, omega, out, force, ws) -> None:
        _, u, rows, eu, feq, t, dh, ds = ws
        s, sh, hh, gamma = rows[:4]
        beta = 0.5 * omega
        np.subtract(f, feq, out=dh)               # fneq
        self._delta_s(dh, ds, rows[4:])
        dh -= ds
        # Entropic scalar products <x|y> = sum_i x_i y_i / feq_i.
        np.divide(1.0, feq, out=feq)
        np.multiply(ds, feq, out=t)
        np.einsum("qn,qn->n", t, dh, out=sh)
        np.multiply(dh, feq, out=t)
        np.einsum("qn,qn->n", t, dh, out=hh)
        inv_beta = 1.0 / beta
        mask = hh > 1e-30
        np.divide(sh, hh, out=sh, where=mask)
        sh *= 2.0 - inv_beta
        np.subtract(inv_beta, sh, out=sh)
        gamma.fill(2.0)
        np.copyto(gamma, sh, where=mask)
        ds *= 2.0
        dh *= gamma
        ds += dh
        ds *= beta
        np.subtract(f, ds, out=out)
        if force is not None:
            _guo_source_into(self.lattice, eu, u, force, omega, feq, t, s)
            out += feq


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
