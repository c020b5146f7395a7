"""High-level simulation facade — the package's main entry point.

Wires a :class:`~repro.grid.multigrid.RefinementSpec` through grid
compilation, the engine and the Algorithm-1 stepper, and adds the
bookkeeping every experiment needs: wall-clock timing and the paper's
MLUPS metric (Section VI):

    MLUPS = sum_L V_L * N_L / T      with N_L = 2^L * N, T in microseconds,

where ``V_L`` counts active voxels excluding ghost cells.
"""

from __future__ import annotations

import time

import numpy as np

from ..grid.multigrid import (MultiGrid, RefinementSpec, build_multigrid,
                              spec_digest)
from ..neon.runtime import Runtime
from .config import SimConfig
from .engine import Engine
from .lattice import Lattice, get_lattice
from .results import RunResult
from .stepper import NonUniformStepper
from .units import omega_from_viscosity

__all__ = ["Simulation", "mlups"]


def mlups(active_per_level: list[int], n_coarse_steps: int, seconds: float) -> float:
    """The paper's MLUPS formula for a nonuniform grid."""
    if seconds <= 0:
        raise ValueError("elapsed time must be positive")
    updates = sum(v * (2 ** lv) * n_coarse_steps
                  for lv, v in enumerate(active_per_level))
    return updates / (seconds * 1e6)


class Simulation:
    """A ready-to-run nonuniform LBM simulation.

    Parameters
    ----------
    spec:
        Domain description (shape, refinement regions, solid, face BCs).
    config:
        The :class:`~repro.core.config.SimConfig` — lattice, collision,
        relaxation, fusion configuration, body force and the execution
        backend.  How a step executes (backend, serial or
        thread-wave replay) is fixed here, at construction.
    runtime:
        An existing :class:`~repro.neon.runtime.Runtime` to record into
        (e.g. one with a span recorder already installed).
    grid:
        A :class:`~repro.grid.multigrid.MultiGrid` already built from a
        spec equal to ``spec`` on the config's lattice, used instead of
        building one (a served job's worker keeps the grids it built;
        the grid's index maps and admission verdicts come with it).  A
        grid recorded for another spec or lattice is refused
        (``ValueError``).

    :meth:`from_config` is the convenient front door: it builds or
    derives the config from keyword overrides.  Use the simulation as a
    context manager (or call :meth:`close`) so backend resources — pool
    threads, worker processes — are released promptly.
    """

    def __init__(self, spec: RefinementSpec, config: SimConfig,
                 runtime: Runtime | None = None, *,
                 grid: MultiGrid | None = None) -> None:
        lat = get_lattice(config.lattice)
        if grid is not None:
            want = spec_digest(spec, lat)
            if grid.digest != want:
                raise ValueError(
                    f"grid was built for another spec or lattice "
                    f"({grid.lattice.name}, digest {grid.digest[:12]}), not "
                    f"this one ({lat.name}, digest {want[:12]})")
        omega0 = (config.omega0 if config.omega0 is not None
                  else omega_from_viscosity(config.viscosity))
        #: The immutable configuration this simulation was built from
        #: (resilience rebuilds read it back).
        self.sim_config: SimConfig = config
        self.mgrid: MultiGrid = (grid if grid is not None
                                 else build_multigrid(spec, lat))
        self.engine = Engine(self.mgrid, config.collision, omega0,
                             runtime=runtime, force=config.force,
                             dtype=config.dtype)
        self.engine.allocate(config.fusion)
        from ..backend import resolve_backend
        backend = resolve_backend(config.backend, bool(config.threaded))
        configure = getattr(backend, "configure", None)
        if configure is not None:
            # Backend-specific SimConfig knobs (mp_workers, the thread
            # pool) without widening the duck-typed Backend protocol.
            configure(config)
        self.stepper = NonUniformStepper(self.engine, config.fusion,
                                         backend=backend)
        self.engine.initialize()
        self.elapsed = 0.0

    @classmethod
    def from_config(cls, spec: RefinementSpec, config: SimConfig | None = None,
                    *, runtime: Runtime | None = None,
                    grid: MultiGrid | None = None,
                    **overrides) -> "Simulation":
        """Build a simulation from a :class:`~repro.core.config.SimConfig`.

        This is the canonical constructor.  ``overrides`` are applied via
        :meth:`SimConfig.replace` (or build a fresh config when ``config``
        is ``None``), so one base profile can parameterize a sweep::

            base = SimConfig(lattice="D2Q9", viscosity=0.05)
            sim = Simulation.from_config(spec, base, fusion=FUSE_SE)
        """
        if config is None:
            config = SimConfig(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        return cls(spec, config, runtime, grid=grid)

    # -- delegation ------------------------------------------------------------
    @property
    def lattice(self) -> Lattice:
        return self.engine.lat

    @property
    def runtime(self) -> Runtime:
        return self.engine.rt

    @property
    def num_levels(self) -> int:
        return self.mgrid.num_levels

    @property
    def steps_done(self) -> int:
        return self.stepper.steps_done

    @property
    def backend(self):
        """The execution backend driving :meth:`step` (see :mod:`repro.backend`)."""
        return self.stepper.backend

    @property
    def mode(self) -> str:
        """Execution mode: ``"mp"``, ``"threaded"`` or ``"serial"``."""
        backend = self.backend
        if getattr(backend, "name", "") == "mp":
            return "mp"
        return ("threaded" if getattr(backend, "pool", None) is not None
                else "serial")

    def initialize(self, rho: float = 1.0, u=None) -> None:
        """(Re-)initialise the populations to equilibrium at step 0.

        Resets timing, and rebases the trace as a checkpoint restore
        does: faults armed by step and per-step metrics count from here.
        """
        self.engine.initialize(rho, u)
        self.elapsed = 0.0
        self.stepper.steps_done = 0
        self.runtime.reset(steps_base=0)

    def step(self) -> None:
        self.stepper.step()

    def run(self, n_steps: int, callback=None) -> RunResult:
        """Run ``n_steps`` coarse steps; return a typed :class:`RunResult`.

        The result names the wall-clock seconds of this call, the steps
        advanced, the backend and execution mode that did the work and
        the measured MLUPS.
        """
        start_step = self.steps_done
        t0 = time.perf_counter()
        try:
            self.stepper.run(n_steps, callback=callback)
        finally:
            dt = time.perf_counter() - t0
            self.elapsed += dt
        return self._measure(RunResult(), start_step, dt)

    def _measure(self, result: RunResult, start_step: int,
                 seconds: float) -> RunResult:
        """Fill ``result``'s measured fields for a run from ``start_step``."""
        result.steps = self.steps_done - start_step
        result.final_step = self.steps_done
        result.seconds = seconds
        result.backend = self.backend.name
        result.mode = self.mode
        result.mlups = (mlups(self.mgrid.active_per_level(), result.steps,
                              seconds)
                        if result.steps > 0 and seconds > 0 else 0.0)
        return result

    def run_until(self, target: int, callback=None) -> RunResult:
        """Run until ``steps_done`` reaches ``target`` (no-op if past it).

        The resumption-friendly variant of :meth:`run`: after a
        checkpoint restore or a rollback the caller states the absolute
        goal instead of recomputing a remainder.
        """
        return self.run(max(0, target - self.steps_done), callback=callback)

    def close(self) -> None:
        """Release the backend's resources.

        Backends owning resources (the mp backend's worker processes and
        shared-memory arena, a plan backend's wave-pool threads) expose
        a duck-typed ``close()``; the reference backend has none.

        Idempotent and safe from ``finally`` paths: calling it twice
        (server shutdown racing a worker's own cleanup) is a no-op the
        second time, and a partially-built simulation — ``__init__``
        raised before the stepper existed — closes whatever it has
        instead of raising ``AttributeError``.  The simulation itself
        stays usable: stepping again lazily respawns backend resources.
        """
        stepper = getattr(self, "stepper", None)
        if stepper is not None:
            close = getattr(stepper.backend, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "Simulation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- observability -----------------------------------------------------------
    def enable_tracing(self, recorder=None):
        """Install a wall-clock span recorder on the runtime and return it.

        Spans are opt-in: until this is called the launch hot path pays
        nothing.  Pass an existing
        :class:`~repro.obs.spans.SpanRecorder` to share one recorder
        across simulations; otherwise a fresh one is created.
        """
        if recorder is None:
            from ..obs.spans import SpanRecorder
            recorder = SpanRecorder()
        self.engine.rt.spans_install(recorder)
        return recorder

    def disable_tracing(self) -> None:
        """Remove the span recorder; the hot path reverts to zero overhead."""
        self.engine.rt.spans_install(None)

    # -- observables ------------------------------------------------------------
    def macroscopics(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        return self.engine.macroscopics(level)

    def positions(self, level: int) -> np.ndarray:
        """Owned-cell coordinates of one level, in that level's units."""
        return self.engine.positions(level)

    def max_velocity(self) -> float:
        """Maximum velocity magnitude over all levels (stability monitor)."""
        vmax = 0.0
        for lv in range(self.num_levels):
            _, u = self.macroscopics(lv)
            if u.shape[1]:
                vmax = max(vmax, float(np.sqrt((u * u).sum(axis=0)).max()))
        return vmax

    def is_stable(self) -> bool:
        """False once populations contain NaN/Inf (diverged run)."""
        return all(np.isfinite(buf.f).all()
                   for buf in self.engine.levels)
