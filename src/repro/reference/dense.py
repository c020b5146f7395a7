"""Dense uniform-grid reference solver.

A deliberately plain, textbook collide-and-stream implementation over a
dense array (one ``np.roll`` per direction), independent of the
block-sparse machinery.  It serves two roles:

* **ground truth** — cross-validating the multi-resolution engine on
  smooth flows (a refined grid must converge to the uniform-fine
  solution);
* **CPU comparator stand-in** — the Section VI-A Palabos comparison runs
  a general-purpose multi-core CPU code; this solver, costed against a
  CPU :class:`~repro.gpu.device.DeviceSpec`, plays that role (see
  EXPERIMENTS.md for the substitution note).

Boundary handling matches the main engine: halfway bounce-back for
walls/moving walls/inlets, lattice weights at outflows, periodic wrap
otherwise.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.collision import equilibrium, macroscopics, make_collision
from ..core.lattice import Lattice
from ..grid.multigrid import DomainBC

__all__ = ["DenseLBM"]


class DenseLBM:
    """Uniform-grid LBM on a dense box."""

    def __init__(self, lat: Lattice, shape: tuple[int, ...], omega: float,
                 bc: DomainBC | None = None, solid: np.ndarray | None = None,
                 collision: str = "bgk") -> None:
        self.lat = lat
        self.shape = tuple(int(s) for s in shape)
        if len(self.shape) != lat.d:
            raise ValueError(f"shape {shape} does not match a {lat.d}-D lattice")
        self.omega = float(omega)
        self.bc = bc if bc is not None else DomainBC()
        self.bc.validate(lat.d)
        self.collision = make_collision(collision, lat)
        self.solid = (np.zeros(self.shape, dtype=bool) if solid is None
                      else np.asarray(solid, dtype=bool))
        if self.solid.shape != self.shape:
            raise ValueError("solid mask shape mismatch")
        self.fluid = ~self.solid
        n = int(np.prod(self.shape))
        self.f = np.empty((lat.q, n))
        self.initialize()
        self._build_boundary_masks()
        self.elapsed = 0.0
        self.steps_done = 0

    # -- setup -----------------------------------------------------------------
    def initialize(self, rho: float = 1.0, u=None) -> None:
        n = int(np.prod(self.shape))
        rr = np.full(n, rho)
        if u is None:
            uu = np.zeros((self.lat.d, n))
        elif callable(u):
            axes = [np.arange(s) + 0.5 for s in self.shape]
            centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
            uu = np.asarray(u(centers.reshape(-1, self.lat.d)))
        else:
            uu = np.broadcast_to(np.asarray(u, dtype=np.float64)[:, None],
                                 (self.lat.d, n)).copy()
        self.f = equilibrium(self.lat, rr, uu)
        self.elapsed = 0.0
        self.steps_done = 0

    def _build_boundary_masks(self) -> None:
        """Flat index lists per direction for every non-interior pull."""
        lat, d = self.lat, self.lat.d
        shape = np.asarray(self.shape)
        periodic = self.bc.periodic_axes(d)
        coords = np.stack(np.meshgrid(*[np.arange(s) for s in self.shape],
                                      indexing="ij"), axis=-1).reshape(-1, d)
        fluid_flat = self.fluid.ravel()
        self._patches: list[dict] = []
        for q in range(lat.q):
            v = lat.e[q]
            if not v.any():
                self._patches.append({})
                continue
            src = coords - v
            for axis in range(d):
                if periodic[axis]:
                    src[:, axis] %= shape[axis]
            below, above = src < 0, src >= shape
            outside = (below | above).any(axis=1)
            inside = ~outside
            src_clip = np.clip(src, 0, shape - 1)
            src_flat = np.ravel_multi_index(tuple(src_clip.T), self.shape)
            solid_src = inside & ~fluid_flat[src_flat] & fluid_flat
            patch: dict = {"bb": np.flatnonzero(solid_src)}
            face_rows: dict[int, np.ndarray] = {}
            out_rows = np.flatnonzero(outside & fluid_flat)
            if out_rows.size:
                # governing face by the same precedence as the main engine
                from ..grid.multigrid import _PRECEDENCE, _face_names
                names = _face_names(d)
                rank = np.full(out_rows.size, 99)
                face = np.zeros(out_rows.size, dtype=int)
                for axis in range(d):
                    for side, crossed in ((0, below[out_rows, axis]),
                                          (1, above[out_rows, axis])):
                        fi = 2 * axis + side
                        r = _PRECEDENCE[self.bc.face(names[fi]).kind]
                        better = crossed & (r < rank)
                        rank[better] = r
                        face[better] = fi
                for fi in np.unique(face):
                    face_rows[fi] = out_rows[face == fi]
            patch["faces"] = face_rows
            self._patches.append(patch)

    # -- stepping ----------------------------------------------------------------
    def step(self) -> None:
        lat = self.lat
        fs = self.collision.collide(self.f, self.omega)
        fnew = np.empty_like(fs)
        grid_shape = self.shape
        from ..grid.multigrid import _face_names
        names = _face_names(lat.d)
        for q in range(lat.q):
            rolled = np.roll(fs[q].reshape(grid_shape), shift=tuple(lat.e[q]),
                             axis=tuple(range(lat.d)))
            fnew[q] = rolled.ravel()
            patch = self._patches[q]
            if not patch:
                continue
            opp = lat.opp[q]
            if patch["bb"].size:
                fnew[q, patch["bb"]] = fs[opp, patch["bb"]]
            for fi, rows in patch["faces"].items():
                fbc = self.bc.face(names[fi])
                if fbc.kind == "wall":
                    fnew[q, rows] = fs[opp, rows]
                elif fbc.kind in ("moving", "inlet"):
                    uw = np.asarray(fbc.velocity, dtype=np.float64)
                    term = 2.0 * lat.w[q] * float(lat.ef[q] @ uw) / lat.cs2
                    fnew[q, rows] = fs[opp, rows] + term
                elif fbc.kind == "outflow":
                    fnew[q, rows] = lat.w[q]
        self.f = fnew
        self.steps_done += 1

    def run(self, n_steps: int) -> float:
        t0 = time.perf_counter()
        for _ in range(n_steps):
            self.step()
        dt = time.perf_counter() - t0
        self.elapsed += dt
        return dt

    # -- observables ----------------------------------------------------------------
    def macroscopics(self) -> tuple[np.ndarray, np.ndarray]:
        """Density ``shape`` and velocity ``(d,) + shape`` dense arrays.

        Solid cells hold meaningless values; mask with :attr:`fluid`.
        """
        rho, u = macroscopics(self.lat, self.f)
        return rho.reshape(self.shape), u.reshape((self.lat.d,) + self.shape)

    def total_mass(self) -> float:
        return float(self.f[:, self.fluid.ravel()].sum())
