"""Numerical-health watchdog for running simulations.

Grid-refinement LBM runs fail in a characteristic way: an instability
(too-high lattice velocity, under-resolved interface, ω too close to 2)
breeds a NaN that silently floods every level within a few coarse steps,
after which all reported numbers are garbage.  The watchdog checks the
populations and macroscopic fields of every level at a configurable
cadence and raises a structured :class:`SimulationDiverged` — carrying
the offending level/step/cells and the last-N kernel spans — the moment
the run leaves its envelope, instead of letting it run to completion.

Checks, per level, on the owned cells:

* **finiteness** of the populations ``f`` (the whole state between
  coarse steps; ``fstar`` is scratch that is rewritten before it is read);
* **density bounds**: ρ inside ``rho_bounds`` (LBM works near ρ = 1);
* **velocity bound**: |u| below ``max_velocity`` (default c_s = 1/√3,
  the incompressibility/stability envelope).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["SimulationDiverged", "HealthWatchdog", "CS_LATTICE"]

#: Lattice speed of sound — above it the low-Mach expansion is meaningless.
CS_LATTICE = 1.0 / math.sqrt(3.0)


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
    """Periodic numerical-health monitor for one ``Simulation``.

    Parameters
    ----------
    sim:
        The :class:`~repro.core.simulation.Simulation` to watch.
    every:
        Check cadence in coarse steps (``callback`` honours it; direct
        :meth:`check` calls always run).
    rho_bounds:
        Closed density envelope; LBM operates near ρ = 1, so excursions
        past a factor of a few mean the run is gone.
    max_velocity:
        Maximum admissible |u| in lattice units (default: c_s).
    last_n_spans:
        Size of the span dump attached to a divergence report.
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; every check
        publishes per-level ρ/|u| extrema gauges and a check counter.
    max_cells_reported:
        Cap on offending cells included in the payload.
    """

    def __init__(self, sim, *, every: int = 1,
                 rho_bounds: tuple[float, float] = (0.2, 5.0),
                 max_velocity: float = CS_LATTICE,
                 last_n_spans: int = 16,
                 registry=None,
                 max_cells_reported: int = 8) -> None:
        if every < 1:
            raise ValueError("cadence must be >= 1 step")
        if rho_bounds[0] >= rho_bounds[1]:
            raise ValueError("rho_bounds must be an increasing pair")
        self.sim = sim
        self.every = every
        self.rho_bounds = rho_bounds
        self.max_velocity = max_velocity
        self.last_n_spans = last_n_spans
        self.registry = registry
        self.max_cells_reported = max_cells_reported
        self.checks_run = 0
        #: Last successful report (None until the first check passes).
        self.last_report: dict | None = None

    # -- wiring --------------------------------------------------------------
    def callback(self, stepper) -> None:
        """Per-step hook for ``Simulation.run(callback=...)``."""
        if stepper.steps_done % self.every == 0:
            self.check()

    def watch(self, n_steps: int):
        """Run ``n_steps`` coarse steps under supervision.

        Returns the :class:`~repro.core.results.RunResult` of the
        underlying :meth:`~repro.core.simulation.Simulation.run`.
        """
        return self.sim.run(n_steps, callback=self.callback, callback_every=1)

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
            lo, hi = self.rho_bounds
            out = np.nonzero((rho < lo) | (rho > hi))[0]
            if out.size:
                self._raise(step, lv, "rho", "density-bounds", out, rho[out])
            fast = np.nonzero(u > self.max_velocity)[0]
            if fast.size:
                self._raise(step, lv, "u", "velocity-bound", fast, u[fast])
            stats = {
                "level": lv,
                "rho_min": float(rho.min()) if rho.size else None,
                "rho_max": float(rho.max()) if rho.size else None,
                "u_max": float(u.max()) if u.size else None,
            }
            levels.append(stats)
            if self.registry is not None and rho.size:
                self.registry.gauge(f"rho_min.L{lv}").set(stats["rho_min"])
                self.registry.gauge(f"rho_max.L{lv}").set(stats["rho_max"])
                self.registry.gauge(f"u_max.L{lv}").set(stats["u_max"])
        if self.registry is not None:
            self.registry.counter("watchdog_checks", "health checks run").inc()
        self.last_report = {"status": "ok", "step": step, "levels": levels,
                            "checks_run": self.checks_run}
        return self.last_report

    # -- failure path --------------------------------------------------------
    def _raise(self, step: int, level: int, fname: str, reason: str,
               cells: np.ndarray, values: np.ndarray) -> None:
        k = self.max_cells_reported
        cells = np.asarray(cells)[:k]
        values = np.asarray(values).ravel()[:k]
        engine = self.sim.engine
        pos = engine.positions(level)[cells[cells < engine.levels[level].n_owned]]
        recorder = self.sim.runtime.spans
        spans = ([s.as_dict() for s in recorder.last(self.last_n_spans)]
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
        if self.registry is not None:
            self.registry.counter("watchdog_trips", "divergences detected").inc()
        raise SimulationDiverged(
            f"simulation diverged at coarse step {step}: {reason} in "
            f"{fname}@{level} ({payload['n_offending']} cell(s), first "
            f"rows {payload['cells']})", payload)
