"""Numerical-health watchdog for running simulations.

Grid-refinement LBM runs fail in a characteristic way: an instability
(too-high lattice velocity, under-resolved interface, ω too close to 2)
breeds a NaN that silently floods every level within a few coarse steps,
after which all reported numbers are garbage.  The watchdog checks the
populations and macroscopic fields of every level after every coarse
step and raises a structured :class:`SimulationDiverged` — carrying
the offending level/step/cells and the last-N kernel spans — the moment
the run leaves its envelope, instead of letting it run to completion.

Checks, per level, on the owned cells:

* **finiteness** of the populations ``f`` (each level's one population
  buffer, the whole state between coarse steps; the in-place stream's
  scratch and 4a's ``fghost`` are rewritten before they are read);
* **density bounds**: ρ inside :data:`RHO_BOUNDS` (LBM works near ρ = 1);
* **velocity bound**: |u| below :data:`MAX_VELOCITY` (c_s = 1/√3, the
  incompressibility/stability envelope).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["SimulationDiverged", "HealthWatchdog", "CS_LATTICE"]

#: Lattice speed of sound — above it the low-Mach expansion is meaningless.
CS_LATTICE = 1.0 / math.sqrt(3.0)
#: Closed density envelope; LBM operates near ρ = 1, so excursions past a
#: factor of a few mean the run is gone.
RHO_BOUNDS = (0.2, 5.0)
#: Maximum admissible |u| in lattice units.
MAX_VELOCITY = CS_LATTICE
#: Size of the span dump attached to a divergence report.
LAST_N_SPANS = 16
#: Cap on offending cells included in the payload.
MAX_CELLS_REPORTED = 8


class SimulationDiverged(RuntimeError):
    """A watchdog check failed; the run's state is no longer trustworthy.

    The structured :attr:`payload` carries everything a post-mortem
    needs: which check tripped (``reason``), where (``level``, ``field``,
    ``cells`` with their coordinates and ``values``), when (``step``) and
    what the device was doing (``spans`` — the last-N kernel spans when a
    recorder is installed).
    """

    def __init__(self, message: str, payload: dict) -> None:
        super().__init__(message)
        self.payload = payload

    @property
    def step(self) -> int:
        return self.payload["step"]

    @property
    def level(self) -> int:
        return self.payload["level"]

    @property
    def reason(self) -> str:
        return self.payload["reason"]


class HealthWatchdog:
    """Per-step numerical-health monitor for one ``Simulation``.

    Parameters
    ----------
    sim:
        The :class:`~repro.core.simulation.Simulation` to watch.

    Each passed check returns, and keeps in :attr:`last_report`, the
    per-level ρ / |u| extrema and the number of checks run.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.checks_run = 0
        #: Last successful report (None until the first check passes).
        self.last_report: dict | None = None

    # -- wiring --------------------------------------------------------------
    def callback(self, stepper) -> None:
        """Per-step hook for ``Simulation.run(callback=...)``."""
        self.check()

    # -- the check -----------------------------------------------------------
    def check(self) -> dict:
        """Inspect every level now; raise or return a health report."""
        self.checks_run += 1
        step = self.sim.steps_done
        levels = []
        for lv, scan in enumerate(self.sim.engine.health_scan()):
            if scan["nonfinite"].size:
                self._raise(step, lv, "f", "non-finite",
                            scan["nonfinite"], scan["values"])
            rho, u = scan["rho"], scan["umag"]
            lo, hi = RHO_BOUNDS
            out = np.nonzero((rho < lo) | (rho > hi))[0]
            if out.size:
                self._raise(step, lv, "rho", "density-bounds", out, rho[out])
            fast = np.nonzero(u > MAX_VELOCITY)[0]
            if fast.size:
                self._raise(step, lv, "u", "velocity-bound", fast, u[fast])
            stats = {
                "level": lv,
                "rho_min": float(rho.min()) if rho.size else None,
                "rho_max": float(rho.max()) if rho.size else None,
                "u_max": float(u.max()) if u.size else None,
            }
            levels.append(stats)
        self.last_report = {"status": "ok", "step": step, "levels": levels,
                            "checks_run": self.checks_run}
        return self.last_report

    # -- failure path --------------------------------------------------------
    def _raise(self, step: int, level: int, fname: str, reason: str,
               cells: np.ndarray, values: np.ndarray) -> None:
        k = MAX_CELLS_REPORTED
        cells = np.asarray(cells)[:k]
        values = np.asarray(values).ravel()[:k]
        engine = self.sim.engine
        pos = engine.positions(level)[cells[cells < engine.levels[level].n_owned]]
        recorder = self.sim.runtime.spans
        spans = ([s.as_dict() for s in recorder.last(LAST_N_SPANS)]
                 if recorder is not None else [])
        payload = {
            "step": step, "level": level, "field": fname, "reason": reason,
            "n_offending": int(np.asarray(cells).size),
            "cells": [int(c) for c in cells],
            "positions": [[int(x) for x in p] for p in pos],
            "values": [None if not np.isfinite(v) else float(v)
                       for v in values],
            "spans": spans,
        }
        raise SimulationDiverged(
            f"simulation diverged at coarse step {step}: {reason} in "
            f"{fname}@{level} ({payload['n_offending']} cell(s), first "
            f"rows {payload['cells']})", payload)
