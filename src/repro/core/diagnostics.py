"""Flow diagnostics: obstacle forces, energy budgets, drag coefficients.

The wind-tunnel experiments (paper Figs. 1 and 8) are ultimately about
aerodynamic loads; this module computes them from the running engine via
the momentum-exchange method (Ladd [27], the same halfway-bounce-back
framework the paper uses for its no-slip obstacles).
"""

from __future__ import annotations

import numpy as np

from .engine import Engine

__all__ = ["solid_force", "drag_coefficient", "kinetic_energy", "enstrophy_2d"]


def solid_force(engine: Engine) -> np.ndarray:
    """Instantaneous hydrodynamic force on the solid obstacles.

    Momentum-exchange over every fluid-solid link: the population
    ``f*_i`` about to hit the wall bounces back, transferring ``2 e_i
    f*_i`` of momentum per link and substep.  Contributions are
    volume-weighted per level (a level-L link carries ``2^{-Ld}`` of
    mass) and rated per *coarse* time unit (a level-L link fires ``2^L``
    times per coarse step).  Returned in coarse lattice units; uses the
    last substep's bounce, so call it right after a step.

    The bounce-back pull put ``f*_{opp q}`` of each link's cell into
    ``f_q`` (``sb_q`` is the direction the cell pulls from the solid),
    so ``f`` carries it.  Summed in float64 whatever ``f``'s dtype.
    """
    lat = engine.lat
    d = engine.mgrid.d
    force = np.zeros(d)
    for lv, (cl, buf) in enumerate(zip(engine.mgrid.levels, engine.levels)):
        if cl.sb_q.size == 0:
            continue
        # populations pointing INTO the wall: direction opp(q) at the
        # cell, bounced back into f_q by the last substep's pull
        opp = lat.opp[cl.sb_q]
        fs = buf.f[cl.sb_q, cl.sb_cell].astype(np.float64)
        weight = (0.5 ** lv) ** d * (2 ** lv)
        force += weight * 2.0 * (fs[:, None] * lat.ef[opp]).sum(axis=0)
    return force


def drag_coefficient(force_axial: float, rho: float, speed: float,
                     frontal_area: float) -> float:
    """Standard drag coefficient ``C_d = F / (0.5 rho U^2 A)``."""
    if speed <= 0 or frontal_area <= 0 or rho <= 0:
        raise ValueError("rho, speed and frontal_area must be positive")
    return force_axial / (0.5 * rho * speed * speed * frontal_area)


def kinetic_energy(engine: Engine) -> float:
    """Volume-weighted total kinetic energy ``sum 1/2 rho |u|^2 dV``."""
    total = 0.0
    for lv in range(engine.mgrid.num_levels):
        rho, u = engine.macroscopics(lv)
        vol = (0.5 ** lv) ** engine.mgrid.d
        total += 0.5 * vol * float((rho * (u * u).sum(axis=0)).sum())
    return total


def enstrophy_2d(sim) -> float:
    """Enstrophy ``1/2 integral omega^2 dA`` of a 2-D flow (finest grid)."""
    from ..io.sampling import composite_fields
    if sim.mgrid.d != 2:
        raise ValueError("enstrophy_2d needs a 2-D simulation")
    _, u = composite_fields(sim)
    u = np.nan_to_num(u)
    h = 0.5 ** (sim.num_levels - 1)
    w = (np.gradient(u[1], h, axis=0) - np.gradient(u[0], h, axis=1))
    return 0.5 * float((w * w).sum()) * h * h
