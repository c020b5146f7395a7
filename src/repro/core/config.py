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
* **plain data** — names and numbers only: :meth:`SimConfig.as_dict`
  is exact and ``SimConfig(**d)`` reads it back (a served job's
  ``job.json``, its ``meta`` line, structured reports).

Construct simulations with ``Simulation.from_config(spec, config)``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .collision import COLLISIONS
from .fusion import FUSED_FULL, FusionConfig, get_config
from .lattice import get_lattice

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
        Descriptor name, ``"D2Q9"``, ``"D3Q19"`` or ``"D3Q27"`` (any case;
        stored upper-case).
    collision:
        ``"bgk"``, ``"kbc"`` or ``"trt"`` (any case; stored lower-case).
    viscosity / omega0:
        Exactly one of the two fixes the coarse-level relaxation.
    fusion:
        Kernel-fusion preset (a name such as ``"ours-4f"`` or the preset
        :class:`FusionConfig` itself; stored as the preset); defaults to
        the paper's best.
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

    lattice: str = "D3Q19"
    collision: str = "bgk"
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
        if not (isinstance(self.lattice, str) and isinstance(self.collision, str)):
            raise TypeError("lattice and collision must be names")
        object.__setattr__(self, "lattice", get_lattice(self.lattice).name)
        object.__setattr__(self, "collision", self.collision.lower())
        if self.collision not in COLLISIONS:
            raise KeyError(f"unknown collision model {self.collision!r}; "
                           f"choose from {sorted(COLLISIONS)}")
        if not isinstance(self.fusion, (str, FusionConfig)):
            raise TypeError(f"fusion must be a preset name or FusionConfig, "
                            f"got {type(self.fusion).__name__}")
        preset = get_config(getattr(self.fusion, "name", self.fusion))
        if self.fusion not in (preset, preset.name):
            raise ValueError(f"fusion {preset.name!r} differs from its preset")
        object.__setattr__(self, "fusion", preset)
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

    def replace(self, **changes) -> "SimConfig":
        """A copy with ``changes`` applied (re-validated).

        ``viscosity`` and ``omega0`` can be swapped in one call, e.g.
        ``cfg.replace(viscosity=None, omega0=1.2)`` — the safety-profile
        rebuilds of :mod:`repro.resilience` rely on this.
        """
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> dict:
        """The config as JSON-ready data; ``SimConfig(**d)`` reads it back."""
        return {**vars(self), "fusion": self.fusion.name,
                "force": list(self.force) if self.force is not None else None}
