"""Deterministic fault injection for simulations under test.

A production LBM service dies in three characteristic ways, and each has
a deterministic stand-in here:

* **field corruption** — a NaN/Inf lands in a population buffer (soft
  error, bad reduction, numerical blow-up).  Kind ``"nan"`` / ``"inf"``:
  one owned entry of ``f`` at a chosen step/level/cell is overwritten
  via :meth:`repro.core.engine.Engine.corrupt_cell`.
* **kernel failure** — a launch raises (driver error, illegal access).
  Kind ``"kernel"``: the chosen kernel's body raises
  :class:`InjectedKernelError` instead of running.
* **device OOM** — an allocation fails mid-run.  Kind ``"oom"``: the
  body raises :class:`repro.gpu.memory.DeviceOOMError`.

The :class:`FaultInjector` installs on a runtime via the same duck-typed
hook mechanism as the span recorder (:attr:`repro.neon.runtime.Runtime.faults`):
``wrap_body`` may substitute a kernel body — each time the plan loop runs
the kernel, on every in-process backend — and ``on_step`` fires after
every coarse-step marker.  Faults are armed by **absolute** coarse
step (``Runtime.steps_base`` + markers), so a rollback that rebases the
trace does not re-fire a one-shot fault — exactly the transient-fault
semantics the recovery matrix verifies bit-identical recovery against.
Fired state lives in the injector, surviving re-installation onto
rebuilt simulations (the degradation ladder's serial/safety rebuilds).
No backend but ``mp`` (whose bodies live in other processes) changes
path under an injector: faults hit the kernels that ship.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..gpu.memory import DeviceOOMError

__all__ = ["Fault", "FaultInjector", "InjectedKernelError"]


class InjectedKernelError(RuntimeError):
    """A fault-injected kernel body failure (stands in for a device fault)."""

    def __init__(self, fault: "Fault", kernel: str, level: int) -> None:
        super().__init__(
            f"injected kernel failure in {kernel}@{level} at step {fault.step}")
        self.fault = fault
        self.kernel = kernel
        self.level = level


@dataclass
class Fault:
    """One scheduled fault.

    Parameters
    ----------
    kind:
        ``"nan"`` / ``"inf"`` (field corruption), ``"kernel"`` (body
        raises :class:`InjectedKernelError`) or ``"oom"`` (body raises
        :class:`~repro.gpu.memory.DeviceOOMError`).
    step:
        Absolute 1-based coarse step.  Field faults fire when that step
        *completes*; kernel/OOM faults fire *during* it.
    level:
        Grid level of the corrupted cell / kernel filter (kernel faults
        match any level when ``kernel`` is ``None``).
    kernel:
        Kernel-name filter for ``kernel``/``oom`` faults (``"C"``,
        ``"CASE"``, …); ``None`` hits the first kernel of the step.
    cell / q:
        Owned-row and population indices for field corruption.
    times:
        Firings before the fault disarms.  ``1`` (default) models a
        transient fault — recovery must converge to the unfaulted
        reference; negative values never disarm (persistent fault, used
        to exercise the degradation ladder).
    only_threaded:
        Fire only while the simulation's mode is ``"threaded"`` — models
        failures specific to the concurrent path, which the ladder's
        fall-back-to-serial rung must survive.
    """

    kind: str
    step: int
    level: int = 0
    kernel: str | None = None
    cell: int = 0
    q: int = 0
    times: int = 1
    only_threaded: bool = False
    remaining: int = field(init=False)

    _KINDS = ("nan", "inf", "kernel", "oom")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"choose from {self._KINDS}")
        if self.step < 1:
            raise ValueError("faults are armed by 1-based coarse step")
        self.remaining = self.times

    @property
    def armed(self) -> bool:
        return self.remaining != 0

    def consume(self) -> None:
        if self.remaining > 0:
            self.remaining -= 1


class FaultInjector:
    """Arms a list of :class:`Fault`\\ s on a simulation's runtime.

    One injector can serve a whole recovery session: :meth:`install` it
    onto every (re)built simulation and already-fired one-shot faults
    stay fired.  The ``fired`` log records every injection for reports
    and assertions.
    """

    def __init__(self, faults) -> None:
        self.faults: list[Fault] = list(faults)
        #: One dict per injection: kind, step, and the injection site.
        self.fired: list[dict] = []
        self._sim = None

    def install(self, sim) -> "FaultInjector":
        """Attach to ``sim``'s runtime (replacing any previous injector)."""
        self._sim = sim
        sim.runtime.faults_install(self)
        return self

    def uninstall(self) -> None:
        if self._sim is not None:
            self._sim.runtime.faults_install(None)
            self._sim = None

    # -- runtime hook protocol ------------------------------------------------
    def wrap_body(self, name: str, level: int, fn):
        """Substitute a raising body when a kernel/OOM fault matches.

        Called for every kernel by
        :meth:`repro.backend.plan.StepPlan.execute`, the one loop that
        runs bodies (interpreted, compiled serial and threaded alike).
        The wrapper raises when it *runs* and only then consumes
        the fault — a wrapped body that a failing wave never reached
        does not burn a firing.
        """
        rt = self._sim.runtime
        step = rt.steps_base + len(rt.markers) + 1  # the in-flight step
        for f in self.faults:
            if f.kind not in ("kernel", "oom") or not f.armed:
                continue
            if f.step != step:
                continue
            if f.kernel is not None and (f.kernel != name or f.level != level):
                continue
            if f.only_threaded and self._sim.mode != "threaded":
                continue

            def raising(f=f, name=name, level=level) -> None:
                if not f.armed:  # disarmed by a same-wave peer
                    fn()
                    return
                f.consume()
                self.fired.append({"kind": f.kind, "step": f.step,
                                   "kernel": name, "level": level})
                if f.kind == "oom":
                    raise DeviceOOMError(
                        f"injected allocation failure in {name}@{level} "
                        f"at step {f.step}",
                        requested=1 << 33, capacity=1 << 32)
                raise InjectedKernelError(f, name, level)

            return raising
        return fn

    def on_step(self, step: int) -> None:
        """Fire armed field-corruption faults for completed step ``step``."""
        if self._sim is None:
            return
        for f in self.faults:
            if f.kind not in ("nan", "inf") or not f.armed or f.step != step:
                continue
            if f.only_threaded and self._sim.mode != "threaded":
                continue
            value = float("nan") if f.kind == "nan" else float("inf")
            f.consume()
            self._sim.engine.corrupt_cell(f.level, f.cell, f.q, value)
            self.fired.append({"kind": f.kind, "step": step,
                               "level": f.level, "cell": f.cell, "q": f.q})
