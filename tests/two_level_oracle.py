"""A dense two-level D2Q9 BGK solver: the test-local oracle of the 2:1 interface.

Written from the papers, not from ``repro.core`` or ``repro.grid``: the
volumetric refinement of Rohde et al. (2006, the paper's [25]) in the
two-level time step of Schornbaum & Rüde (arXiv:1508.07982, §2–3).  A
periodic ``L x L`` coarse box and a ``2L x 2L`` fine box lie over the
same domain; ``region`` (coarse resolution) names the coarse cells that
are refined, and each box only keeps the cells it owns.  Cell-centred,
acoustic scaling: a fine cell is half a coarse cell wide, a fine step
half a coarse step, and ``tau_f - 1/2 = 2 (tau_c - 1/2)`` keeps the
viscosity.  Streaming is one ``np.roll`` per direction on each box.

One coarse step:

1. the coarse box collides;
2. the fine box runs two substeps, each a collide and a stream.  A fine
   cell whose upstream cell is coarse pulls that coarse cell's
   post-collision value (*explosion*: homogeneous in space, and the same
   at both substeps, because the coarse box streams only afterwards);
3. the coarse box streams.  A coarse cell whose upstream cell is refined
   pulls a *coalesced* value instead: the mean of what left the fine box
   into it.  Every fine population that streams out of the refined
   region, at either substep, lands in a fine cell of some coarse cell
   ``x``; ``x`` pulls the sum of what landed in it along that direction,
   divided by how many landed.  At a planar interface half of ``x``'s
   children receive one per substep, so the mean is the sum over 2^d:
   what the coarse box loses to the fine one and what it gains from it
   are then the streamed populations themselves, and mass is conserved
   to round-off (Rohde et al.'s "mass conservative" property).  Where
   the interface turns a corner fewer land, and the mean still is one.
"""

from __future__ import annotations

import numpy as np

#: D2Q9 velocities (x, y) and weights.
E = np.array([(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1),
              (1, 1), (-1, 1), (-1, -1), (1, -1)])
W = np.array([4 / 9] + [1 / 9] * 4 + [1 / 36] * 4)


def equilibrium(rho, u):
    """``(9, ...)`` second-order equilibrium of density ``rho`` and velocity
    ``u`` (``(2, ...)``)."""
    eu = np.tensordot(E, u, axes=(1, 0))
    feq = 4.5 * eu
    feq += 3
    feq *= eu
    feq += 1 - 1.5 * (u * u).sum(axis=0)
    feq *= rho
    return feq * W.reshape((9,) + (1,) * rho.ndim)


def moments(f):
    """Density and velocity of populations ``f`` (``(9, ...)``)."""
    rho = f.sum(axis=0)
    return rho, np.tensordot(E.T, f, axes=(1, 0)) / rho


def collide(f, omega):
    rho, u = moments(f)
    return f + omega * (equilibrium(rho, u) - f)


def up(a):
    """Each coarse cell of the last two axes as its 2 x 2 fine children."""
    return a.repeat(2, axis=-2).repeat(2, axis=-1)


def block_sum(a):
    """Sum of each coarse cell's 2 x 2 fine children, last two axes."""
    return a[..., ::2, ::2] + a[..., 1::2, ::2] + a[..., ::2, 1::2] + a[..., 1::2, 1::2]


class TwoLevelBGK:
    """Two levels of D2Q9 BGK on a periodic box; ``region`` may be all False
    (then the coarse box alone is a uniform solver)."""

    def __init__(self, region: np.ndarray, nu: float, u):
        self.region = np.asarray(region, dtype=bool)
        self.fine = up(self.region)
        L = self.region.shape[0]
        self.omega_c = 1 / (3 * nu + 0.5)
        self.omega_f = 1 / (3 * 2 * nu + 0.5)
        centres = [np.stack(np.meshgrid(*[(np.arange(n) + 0.5) * h] * 2, indexing="ij"))
                   for n, h in ((L, 1.0), (2 * L, 0.5))]
        self.fc = equilibrium(np.ones((L, L)), u(centres[0]))
        self.ff = equilibrium(np.ones((2 * L, 2 * L)), u(centres[1]))

    def mass(self) -> float:
        """Coarse-cell mass of the cells each box owns."""
        return float(self.fc[:, ~self.region].sum() + self.ff[:, self.fine].sum() / 4)

    def velocity(self):
        """``(u_coarse, u_fine)``, each ``(2, n, n)``; cells a box does not own
        hold whatever they last held."""
        return moments(self.fc)[1], moments(self.ff)[1]

    def step(self) -> None:
        fc = collide(self.fc, self.omega_c)
        exploded = up(fc)
        # what streams out of the fine box at either substep, by the fine
        # cell it lands in, and how many populations landed there
        landed, count = np.zeros_like(self.ff), np.zeros_like(self.ff)
        ff = self.ff
        for _ in range(2):
            ff = collide(ff, self.omega_f)
            for i, shift in enumerate(map(tuple, E)):
                arrives = ~self.fine & np.roll(self.fine, shift, axis=(0, 1))
                landed[i] += np.where(arrives, np.roll(ff[i], shift, axis=(0, 1)), 0.0)
                count[i] += arrives
                ff[i] = np.roll(np.where(self.fine, ff[i], exploded[i]), shift, axis=(0, 1))
        landed, count = block_sum(landed), block_sum(count)
        for i, shift in enumerate(map(tuple, E)):
            from_fine = np.roll(self.region, shift, axis=(0, 1))
            mean = landed[i] / np.maximum(count[i], 1)      # read where from_fine only
            self.fc[i] = np.where(from_fine, mean, np.roll(fc[i], shift, axis=(0, 1)))
        self.fc[:, self.region] = W[:, None]        # not the coarse box's: never read
        self.ff = ff

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.step()
