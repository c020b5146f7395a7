"""Step-plan compiler: capture, then admit.

Compilation of one coarse step runs in two stages:

1. **Capture** — :func:`bind_stream` runs
   :meth:`~repro.neon.runtime.Runtime.capture_plan` over the step: each
   launch builds its kernel's body (the engine resolves the field views
   it needs beside the grid's flat index maps; a pull table other than
   the grid's, which proved its own, is proven inside ``[0, Q *
   n_owned)``, and the table is frozen) with the body's access report,
   the report is evaluated once, and the launch record is read off what
   it states.  The records, the bodies and the access map — the one
   statement of what each kernel touches — come back together; no body
   runs.
2. **Admission** — the stream must pass the PR-5 contract before any
   body runs: every kernel is one the legality proof decomposes, the
   lint pass reports zero errors, the fusion config is proven a legal
   contraction of the modified baseline (on the *live* engine's
   geometry, not a canned workload), and the assembled step-plan
   certificate validates against the stream (digest + hazard order).
   Failure raises :class:`~repro.backend.base.PlanAdmissionError` — an
   inadmissible plan is never executed.  An admitted plan runs the
   bodies captured in stage 1: a run is the bare closures in a loop
   (:meth:`StepPlan.execute <repro.backend.plan.StepPlan.execute>`).

The interpreted backend and the mp workers run stage 1 alone; the bodies
are the ones :mod:`repro.core.engine` writes once, and this module
indexes no population buffer.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any

from ..analysis.capture import Access, AccessTracer
from ..analysis.certificate import build_certificate, validate_certificate
from ..analysis.lint import LintReport, lint_stream
from ..analysis.static import LegalityProof, check_contraction, decompose
from ..neon.runtime import KernelBody, KernelRecord
from .base import PlanAdmissionError
from .plan import StepPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.stepper import NonUniformStepper

__all__ = ["admit_stream", "bind_steps", "bind_stream", "compile_plan",
           "plan_key", "prove_plan_legality"]


def plan_key(stepper: "NonUniformStepper") -> tuple[Any, ...]:
    """Everything a cached plan's bindings depend on.

    ``SimConfig`` changes and regrids build a new ``Simulation`` (and
    with it a fresh backend instance), so those invalidate by
    construction.  A checkpoint restore writes every buffer in place, so
    the views a plan bound stay valid and the plan is replayed.
    """
    engine = stepper.engine
    force_key = tuple(None if fv is None else tuple(float(c) for c in fv)
                      for fv in engine.force)
    return (stepper.config, tuple(engine.omega), force_key)


def bind_stream(stepper: "NonUniformStepper", tracer: AccessTracer | None = None,
                ) -> tuple[list[KernelRecord], list[KernelBody],
                           dict[int, list[Access]]]:
    """Capture one coarse step: its records, bodies and access map.

    The one capture admission, the interpreted backend and the mp
    workers run (:meth:`~repro.neon.runtime.Runtime.capture_plan`):
    returns ``(records, bodies, accesses)``, ``accesses[i]`` what the
    report of ``bodies[i]`` stated, recorded by ``tracer`` (a fresh one
    by default; sharing one across streams shares their entry sets).  No
    body runs.  A body whose index proof fails is refused.
    """
    tracer = tracer if tracer is not None else AccessTracer()
    try:
        return stepper.engine.rt.capture_plan(lambda: stepper._advance(0), tracer)
    except IndexError as exc:
        raise PlanAdmissionError([str(exc)]) from exc


def bind_steps(stepper: "NonUniformStepper", steps: int, tracer: AccessTracer,
               ) -> tuple[list[KernelRecord], dict[int, list[Access]]]:
    """``steps`` coarse steps of the stream and their access map; no body runs.

    Each step is :func:`bind_stream` with ``tracer``; the records are
    concatenated and ``accesses`` is keyed by index into them.
    """
    records: list[KernelRecord] = []
    accesses: dict[int, list[Access]] = {}
    for _ in range(steps):
        step, _, step_map = bind_stream(stepper, tracer)
        accesses.update((len(records) + i, a) for i, a in step_map.items())
        records.extend(step)
    return records, accesses


def prove_plan_legality(stepper: "NonUniformStepper",
                        records: list[KernelRecord],
                        tracer: AccessTracer, steps: int,
                        base: tuple[list[KernelRecord],
                                    dict[int, list[Access]]] | None = None,
                        ) -> LegalityProof:
    """Prove ``records`` a legal contraction, on the live grid.

    ``records`` are ``steps`` coarse steps of ``stepper``'s stream (plan
    admission proves 1, ``python -m repro analysis`` 2).  The modified
    baseline is captured from the *same* engine for as many steps, with
    ``tracer`` — the plan is admitted for the geometry it will actually
    replay on — unless ``base``, its ``(records, accesses)``, is handed
    in.  The original Fig. 4a layout is a different algorithm, not a
    contraction, and gets the ``"baseline"`` verdict; so do records that
    are the modified baseline's own stream, which the proof would check
    against themselves: it cannot fail.  Any other stream under the
    modified baseline's name is proven like a fused one.
    """
    from ..core.fusion import MODIFIED_BASELINE
    from ..core.stepper import NonUniformStepper

    cfg = stepper.config
    unproven = LegalityProof(config=cfg.name, baseline=cfg.name,
                             verdict="baseline", pairs_checked=0,
                             primitives=0, counterexamples=())
    if cfg.original_layout:
        return unproven
    if base is None:
        base = bind_steps(NonUniformStepper(stepper.engine, MODIFIED_BASELINE),
                          steps, tracer)
    if cfg == MODIFIED_BASELINE and records == base[0]:
        return unproven
    pairs, prims, cex = check_contraction(
        *base, records, partial(decompose, stepper.engine))
    return LegalityProof(
        config=cfg.name, baseline=MODIFIED_BASELINE.name,
        verdict="legal" if not cex else "illegal", pairs_checked=pairs,
        primitives=prims, counterexamples=tuple(cex))


def admit_stream(stepper: "NonUniformStepper", *,
                 workload: str = "") -> tuple[StepPlan, LintReport]:
    """Capture one step, then run plan admission.

    The shared front half of every plan-caching backend: the stream is
    captured (:func:`bind_stream`), every kernel must be one the
    legality proof decomposes, and the stream is linted over its access
    map, proven a legal contraction on the live geometry and tied to a
    validated certificate.  Returns the admitted :class:`StepPlan` — its
    bodies are the ones the capture built — and the lint report; raises
    :class:`~repro.backend.base.PlanAdmissionError` when any part of the
    PR-5 contract fails — an inadmissible stream is never executed, in
    this process or any worker process replaying shards of it.

    The verdict — certificate and lint report — is kept on the grid
    (``MultiGrid.verdicts``), keyed by what admission reads besides the
    grid: the fusion config and the label.  Relaxation rates and force
    enter no record, so a later admission on the same grid (a served
    job at another viscosity) captures its stream and reuses the verdict
    once the certificate validates against the new records, digest
    included; any mismatch runs the full admission.
    """
    from ..core.fusion import MODIFIED_BASELINE
    from ..core.stepper import NonUniformStepper

    engine = stepper.engine
    label = workload or f"live-{engine.mgrid.d}d-{stepper.num_levels}lvl"
    key = (stepper.config, label)
    verdict = engine.mgrid.verdicts.get(key)
    if verdict is not None:
        cert, lint = verdict
        records, bodies, _ = bind_stream(stepper)
        if not validate_certificate(cert, records):
            return _plan(stepper, label, records, bodies, cert), lint
    tracer = AccessTracer()
    records, bodies, accesses = bind_stream(stepper, tracer)
    if not records:
        raise PlanAdmissionError(["captured step stream is empty"])
    unknown = []
    for i, r in enumerate(records):
        try:
            decompose(engine, r)
        except KeyError as exc:
            unknown.append(f"record #{i} (level {r.level}): {exc.args[0]}")
    if unknown:
        raise PlanAdmissionError(unknown)
    lint = lint_stream(records, accesses, engine)
    problems = [str(f) for f in lint.errors]
    # a plain baseline-4b stepper's stream is the modified baseline's
    own = (type(stepper) is NonUniformStepper
           and stepper.config == MODIFIED_BASELINE)
    proof = prove_plan_legality(stepper, records, tracer, 1,
                                base=(records, accesses) if own else None)
    if proof.verdict == "illegal":
        problems.extend(str(c) for c in proof.counterexamples[:3])
    cert = build_certificate(stepper.config.name, label, records, accesses,
                             proof, lint, steps=1)
    problems.extend(validate_certificate(cert, records))
    if problems:
        raise PlanAdmissionError(problems)
    engine.mgrid.verdicts[key] = (cert, lint)
    return _plan(stepper, label, records, bodies, cert), lint


def _plan(stepper: "NonUniformStepper", label: str,
          records: list[KernelRecord], bodies: list[KernelBody],
          cert: dict[str, Any]) -> StepPlan:
    return StepPlan(records, bodies, digest=cert["stream_digest"],
                    certificate=cert, label=f"{stepper.config.name}/{label}")


def compile_plan(stepper: "NonUniformStepper", *,
                 workload: str = "") -> StepPlan:
    """Compile one coarse step of ``stepper`` into a :class:`StepPlan`."""
    return admit_stream(stepper, workload=workload)[0]
