"""Typed simulation configuration — the one object that fully describes a run.

:class:`~repro.core.simulation.Simulation` grew its construction surface
one keyword at a time (lattice, collision, viscosity/omega0, fusion
config, force, threaded, max_workers, …), which made call sites
hard to audit and impossible to serialize.  ``SimConfig``
consolidates all of it into a single frozen dataclass:

* **validated once**, at construction (exactly one of viscosity/omega0,
  known fusion preset);
* **immutable and comparable** — two simulations built from equal
  configs are bit-identical by the engine's determinism guarantees;
* **replaceable** — :meth:`SimConfig.replace` derives safety profiles
  (the resilience ladder's serial / reduced-ω rebuilds) without
  mutating the original;
* **serializable** — :meth:`SimConfig.as_dict` feeds served jobs'
  ``meta`` lines and structured reports.

Construct simulations with ``Simulation.from_config(spec, config)``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

import numpy as np

from .fusion import FUSED_FULL, FusionConfig, get_config

__all__ = ["SimConfig"]

#: Population dtypes a step runs in.
DTYPES = ("float32", "float64")


@dataclass(frozen=True)
class SimConfig:
    """Everything a :class:`~repro.core.simulation.Simulation` needs
    besides the domain itself (the :class:`~repro.grid.multigrid.RefinementSpec`).

    Attributes
    ----------
    lattice:
        Descriptor name (``"D2Q9"``, ``"D3Q19"``, ``"D3Q27"``) or a
        :class:`~repro.core.lattice.Lattice` instance.
    collision:
        ``"bgk"``, ``"kbc"``, ``"trt"`` or a
        :class:`~repro.core.collision.CollisionModel`.
    viscosity / omega0:
        Exactly one of the two fixes the coarse-level relaxation.
    fusion:
        Kernel-fusion configuration (a :class:`FusionConfig` or a preset
        name such as ``"ours-4f"``); defaults to the paper's best.
    force:
        Optional constant body-force density vector (coarse lattice
        units); stored as a tuple so the config stays hashable.
    threaded:
        ``True`` replays each step plan in dependency waves on a thread
        pool (see :meth:`StepPlan.execute
        <repro.backend.plan.StepPlan.execute>`); a ``None``/
        ``"interpreted"`` backend then resolves to ``"compiled"``, since
        the reference path is serial by definition.  Bit-identical to
        serial execution.  Not combinable with ``backend="mp"``.
    max_workers:
        Thread-pool width when ``threaded``; ``None`` picks a small
        per-host default.
    backend:
        Execution backend name (see :mod:`repro.backend`):
        ``"interpreted"`` (reference), ``"compiled"`` (step-plan replay)
        or ``"mp"`` (process-parallel shared-memory replay).  All run
        the same kernel bodies.  ``None`` defers to
        ``$REPRO_BACKEND`` and falls back to interpreted.
    mp_workers:
        Worker-process count for the ``"mp"`` backend; ``None`` defers
        to ``$REPRO_MP_WORKERS`` and then a small core-count default.
        Ignored by the in-process backends.
    dtype:
        Population dtype of the step, ``"float32"`` (the default: every
        population, scratch and collide tile at half the bytes) or
        ``"float64"``, the reference precision the round-off tests and
        the dense-reference comparisons build at.  Bit-identity across
        fusion configs and backends holds within a dtype.
    """

    lattice: Any = "D3Q19"
    collision: Any = "bgk"
    viscosity: float | None = None
    omega0: float | None = None
    fusion: FusionConfig | str = FUSED_FULL
    force: tuple[float, ...] | None = None
    threaded: bool | None = None
    max_workers: int | None = None
    backend: str | None = None
    mp_workers: int | None = None
    dtype: str = "float32"

    def __post_init__(self) -> None:
        if (self.viscosity is None) == (self.omega0 is None):
            raise ValueError("specify exactly one of viscosity / omega0")
        if isinstance(self.fusion, str):
            object.__setattr__(self, "fusion", get_config(self.fusion))
        elif not isinstance(self.fusion, FusionConfig):
            raise TypeError(
                f"fusion must be a FusionConfig or preset name, "
                f"got {type(self.fusion).__name__}")
        if self.force is not None:
            object.__setattr__(self, "force",
                               tuple(float(c) for c in np.asarray(self.force).ravel()))
        if self.max_workers is not None and int(self.max_workers) < 1:
            raise ValueError("max_workers must be >= 1")
        if self.mp_workers is not None and int(self.mp_workers) < 1:
            raise ValueError("mp_workers must be >= 1")
        if self.backend is not None:
            from ..backend import available_backends
            if self.backend not in available_backends():
                raise ValueError(
                    f"unknown backend {self.backend!r}; available: "
                    f"{', '.join(available_backends())}")
        if self.dtype not in DTYPES:
            raise ValueError(f"dtype must be one of {', '.join(DTYPES)}, "
                             f"got {self.dtype!r}")
        if self.backend == "mp" and self.threaded:
            raise ValueError(
                "backend='mp' runs waves on worker processes and cannot "
                "also be threaded; drop threaded=True or pick "
                "backend='compiled'")

    def __setstate__(self, state: dict) -> None:
        # A config pickled before ``dtype`` existed (a parked job's
        # payload) ran, and checkpointed, in float64: it resumes there.
        self.__dict__.update({"dtype": "float64", **state})

    def replace(self, **changes) -> "SimConfig":
        """A copy with ``changes`` applied (re-validated).

        ``viscosity`` and ``omega0`` can be swapped in one call, e.g.
        ``cfg.replace(viscosity=None, omega0=1.2)`` — the safety-profile
        rebuilds of :mod:`repro.resilience` rely on this.
        """
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> dict:
        """JSON-ready digest (served jobs' ``meta`` lines, structured reports)."""
        return {
            "lattice": getattr(self.lattice, "name", self.lattice),
            "collision": (self.collision if isinstance(self.collision, str)
                          else type(self.collision).__name__),
            "viscosity": self.viscosity,
            "omega0": self.omega0,
            "fusion": self.fusion.name,
            "force": list(self.force) if self.force is not None else None,
            "threaded": self.threaded,
            "max_workers": self.max_workers,
            "backend": self.backend,
            "mp_workers": self.mp_workers,
            "dtype": self.dtype,
        }
