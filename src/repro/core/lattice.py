"""Lattice descriptors for the LBM velocity sets used in the paper.

The paper (Section II) employs the three-dimensional D3Q19 and D3Q27
lattices; we additionally provide D2Q9 so the physics kernels can be
validated cheaply against analytic two-dimensional solutions
(Taylor-Green, Poiseuille).  A descriptor carries the discrete velocity
set ``e_i``, the quadrature weights ``w_i``, the opposite-direction
permutation used by bounce-back boundaries, and the constant lattice
speed of sound ``c_s^2 = 1/3`` (LBM units, ``dx = dt = 1``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Lattice", "D2Q9", "D3Q19", "D3Q27", "get_lattice"]

#: Lattice speed of sound squared in LBM units (Section II).
CS2 = 1.0 / 3.0


@dataclass(frozen=True)
class Lattice:
    """An LBM velocity set.

    Attributes
    ----------
    name:
        Conventional DdQq identifier, e.g. ``"D3Q19"``.
    e:
        Integer array of shape ``(q, d)`` with the discrete velocities.
        Direction 0 is always the rest velocity.
    w:
        Quadrature weights, shape ``(q,)``; they sum to one.
    opp:
        Permutation with ``e[opp[i]] == -e[i]``, used by bounce-back.
    pairs:
        Index pairs ``(a, b)``, ``a <= b``, of a symmetric ``d x d`` tensor.
    moments:
        ``(1 + d + len(pairs), Q)``, rows ``1``, ``e_a`` and ``e_a e_b``:
        ``moments @ f`` is density, momentum and momentum flux.
    basis:
        ``(Q, 1 + d + len(pairs))``, Eq. (5) expanded in the moments it is
        a polynomial of: ``feq = basis @ [rho; j; j_a j_b / rho]``.
    """

    name: str
    e: np.ndarray
    w: np.ndarray
    opp: np.ndarray
    cs2: float = CS2
    # Cached float view of e used in hot loops.
    ef: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    # Constant matrices of the moment-space collision (DESIGN.md, section 17).
    pairs: tuple = field(init=False, repr=False, compare=False, default=())
    moments: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    basis: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "e", np.ascontiguousarray(self.e, dtype=np.int64))
        object.__setattr__(self, "w", np.ascontiguousarray(self.w, dtype=np.float64))
        object.__setattr__(self, "opp", np.ascontiguousarray(self.opp, dtype=np.int64))
        ef, d, cs2 = self.e.astype(np.float64), self.e.shape[1], self.cs2
        pairs = tuple((a, b) for a in range(d) for b in range(a, d))
        moments = np.ascontiguousarray(np.vstack(
            [np.ones((1, len(ef))), ef.T] + [ef[:, a] * ef[:, b] for a, b in pairs]))
        # Eq. (5) times rho is w [rho + e.j / cs2 + (e e - cs2 I) : j j / (2 rho cs2^2)];
        # an off-diagonal pair stands for both of its symmetric entries
        shift = [0.0] * (1 + d) + [cs2 * (a == b) for a, b in pairs]
        scale = [1.0] + [1 / cs2] * d + [(1 + (a != b)) / (2 * cs2 ** 2)
                                        for a, b in pairs]
        basis = np.ascontiguousarray(self.w[:, None] * (moments.T - shift) * scale)
        for name, value in (("ef", ef), ("pairs", pairs), ("moments", moments),
                            ("basis", basis)):
            object.__setattr__(self, name, value)
        for arr in (self.e, self.w, self.opp, ef, moments, basis):
            arr.setflags(write=False)

    @property
    def d(self) -> int:
        """Spatial dimension."""
        return int(self.e.shape[1])

    @property
    def q(self) -> int:
        """Number of discrete velocities."""
        return int(self.e.shape[0])

    def direction_index(self, vec) -> int:
        """Return the index ``i`` with ``e[i] == vec``.

        Raises ``KeyError`` when ``vec`` is not a lattice velocity.
        """
        vec = np.asarray(vec, dtype=np.int64)
        match = np.nonzero((self.e == vec).all(axis=1))[0]
        if match.size == 0:
            raise KeyError(f"{tuple(vec)} is not a velocity of {self.name}")
        return int(match[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Lattice({self.name})"


def _sorted_velocities(candidates) -> np.ndarray:
    """Deterministic direction ordering: rest first, then by speed, then lexicographic."""
    vecs = sorted(candidates, key=lambda v: (sum(c * c for c in v), v))
    return np.array(vecs, dtype=np.int64)


def _opposites(e: np.ndarray) -> np.ndarray:
    opp = np.empty(e.shape[0], dtype=np.int64)
    lut = {tuple(v): i for i, v in enumerate(e.tolist())}
    for i, v in enumerate(e.tolist()):
        opp[i] = lut[tuple(-c for c in v)]
    return opp


def _make(name: str, d: int, weight_by_speed: dict[int, float],
          keep) -> Lattice:
    cands = [v for v in itertools.product((-1, 0, 1), repeat=d) if keep(v)]
    e = _sorted_velocities(cands)
    speeds = (e * e).sum(axis=1)
    w = np.array([weight_by_speed[int(s)] for s in speeds], dtype=np.float64)
    return Lattice(name=name, e=e, w=w, opp=_opposites(e))


#: Two-dimensional nine-velocity lattice (validation only).
D2Q9 = _make(
    "D2Q9", 2,
    {0: 4.0 / 9.0, 1: 1.0 / 9.0, 2: 1.0 / 36.0},
    keep=lambda v: True,
)

#: The paper's default lattice for the BGK experiments (Section VI).
D3Q19 = _make(
    "D3Q19", 3,
    {0: 1.0 / 3.0, 1: 1.0 / 18.0, 2: 1.0 / 36.0},
    keep=lambda v: sum(c * c for c in v) <= 2,
)

#: Full 27-velocity lattice, required by the KBC collision model.
D3Q27 = _make(
    "D3Q27", 3,
    {0: 8.0 / 27.0, 1: 2.0 / 27.0, 2: 1.0 / 54.0, 3: 1.0 / 216.0},
    keep=lambda v: True,
)

_REGISTRY = {lat.name: lat for lat in (D2Q9, D3Q19, D3Q27)}


def get_lattice(name: str) -> Lattice:
    """Look a descriptor up by its conventional name (case-insensitive)."""
    key = name.upper()
    if key not in _REGISTRY:
        raise KeyError(f"unknown lattice {name!r}; choose from {sorted(_REGISTRY)}")
    return _REGISTRY[key]
