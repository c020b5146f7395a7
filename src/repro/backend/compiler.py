"""Step-plan compiler: capture, bind, admit.

Compilation of one coarse step runs in three stages:

1. **Capture** — :meth:`~repro.neon.runtime.Runtime.capture_plan`
   records the kernel stream: every launch's declaration, with its body
   handle kept next to it, unbound; no body runs.
2. **Bind** — each handle is bound once (:func:`bind_bodies`): the
   engine resolves the field views its body needs beside the grid's
   flat index maps (a pull table other than the grid's, which proved its
   own, is proven inside ``[0, Q * n_owned)``) and freezes the table;
   the body's access report comes with it.  Evaluating
   every report gives the stream's access map (:func:`bind_stream`) —
   the one statement of what each kernel touches; still no body runs.
3. **Admission** — the stream must pass the PR-5 contract before any
   body runs: every launch carries a report, the lint pass reports zero
   errors, the fusion config is proven a legal contraction of the
   modified baseline (on the *live* engine's geometry, not a canned
   workload), and the assembled step-plan certificate validates against
   the stream (digest + hazard order).  Failure raises
   :class:`~repro.backend.base.PlanAdmissionError` — an inadmissible
   plan is never executed.  An admitted plan runs the bodies bound in
   stage 2: a run is the bare closures in a loop (:meth:`StepPlan.execute
   <repro.backend.plan.StepPlan.execute>`).

The interpreted backend runs stages 1 and 2 every step, without
admission; the bodies are the ones :mod:`repro.core.engine` writes once,
and this module indexes no population buffer.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Sequence

from ..analysis.capture import Access, AccessTracer
from ..analysis.certificate import build_certificate, validate_certificate
from ..analysis.lint import LintReport, lint_stream
from ..analysis.static import LegalityProof, check_contraction, decompose
from ..neon.runtime import AccessReport, KernelBody, KernelRecord, LazyBody
from .base import PlanAdmissionError
from .plan import StepPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.stepper import NonUniformStepper

__all__ = ["admit_stream", "bind_bodies", "bind_steps", "bind_stream",
           "compile_plan", "plan_key", "prove_plan_legality"]


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


def bind_bodies(records: Sequence[KernelRecord], handles: Sequence[Any],
                ) -> tuple[list[KernelBody], list[AccessReport | None]]:
    """Bind the body handles captured with ``records``, one per record.

    Returns the body closures and their access reports, aligned with
    ``records``.  A :class:`~repro.neon.runtime.LazyBody` is bound (the
    engine builds its closure and report); a plain callable is its own
    body and reports nothing.  Refused: a launch that carried no body,
    and a body whose index proof fails.
    """
    bodies: list[KernelBody] = []
    reports: list[AccessReport | None] = []
    for i, (rec, fn) in enumerate(zip(records, handles)):
        if fn is None:
            raise PlanAdmissionError(
                [f"kernel {rec.name!r} (record #{i}, level {rec.level}) "
                 f"declares work but was launched without a body"])
        try:
            run, report = fn.bind() if isinstance(fn, LazyBody) else (fn, None)
        except IndexError as exc:
            raise PlanAdmissionError(
                [f"kernel {rec.name!r} (record #{i}): {exc}"]) from exc
        bodies.append(run)
        reports.append(report)
    return bodies, reports


def bind_stream(stepper: "NonUniformStepper", tracer: AccessTracer | None = None,
                ) -> tuple[list[KernelRecord], list[KernelBody],
                           list[AccessReport | None], dict[int, list[Access]]]:
    """Capture one coarse step, bind its bodies, evaluate their reports.

    Returns ``(records, bodies, reports, accesses)``: ``accesses[i]`` is
    what ``reports[i]`` states, recorded by ``tracer`` (a fresh one by
    default; sharing one across streams shares their entry sets).  No
    body runs.  A launch whose body reports nothing (a plain callable)
    is refused, naming it: the access map must cover every kernel a plan
    may run.
    """
    handles: list[Any] = []
    records = stepper.engine.rt.capture_plan(lambda: stepper._advance(0),
                                             handles)
    bodies, reports = bind_bodies(records, handles)
    tracer = tracer if tracer is not None else AccessTracer()
    accesses: dict[int, list[Access]] = {}
    for i, (rec, report) in enumerate(zip(records, reports)):
        if report is None:
            raise PlanAdmissionError(
                [f"record #{i} (level {rec.level}): kernel {rec.name!r} was "
                 f"launched with a plain callable, which reports no accesses"])
        tracer.begin_launch()
        try:
            report(tracer)
        finally:
            accesses[i] = tracer.end_launch()
    return records, bodies, reports, accesses


def bind_steps(stepper: "NonUniformStepper", steps: int, tracer: AccessTracer,
               ) -> tuple[list[KernelRecord], dict[int, list[Access]]]:
    """``steps`` coarse steps of the stream and their access map; no body runs.

    Each step is :func:`bind_stream` with ``tracer``; the records are
    concatenated and ``accesses`` is keyed by index into them.
    """
    records: list[KernelRecord] = []
    accesses: dict[int, list[Access]] = {}
    for _ in range(steps):
        step, _, _, step_map = bind_stream(stepper, tracer)
        accesses.update((len(records) + i, a) for i, a in step_map.items())
        records.extend(step)
    return records, accesses


def prove_plan_legality(stepper: "NonUniformStepper",
                        records: list[KernelRecord],
                        tracer: AccessTracer, steps: int) -> LegalityProof:
    """Prove ``records`` a legal contraction, on the live grid.

    ``records`` are ``steps`` coarse steps of ``stepper``'s stream (plan
    admission proves 1, ``python -m repro analysis`` 2).  The modified
    baseline is captured, bound and reported from the *same* engine for
    as many steps, with ``tracer`` — the plan is admitted for the
    geometry it will actually replay on.  The original Fig. 4a layout is
    a different algorithm, not a contraction, and gets the ``"baseline"``
    verdict; so do records that are the modified baseline's own stream
    (their declarations equal a fresh capture of it), which the proof
    would check against themselves: it cannot fail.  Any other stream
    under the modified baseline's name is proven like a fused one.
    """
    from ..core.fusion import MODIFIED_BASELINE
    from ..core.stepper import NonUniformStepper

    cfg = stepper.config
    base = NonUniformStepper(stepper.engine, MODIFIED_BASELINE)
    if cfg.original_layout or (cfg == MODIFIED_BASELINE and records == [
            r for _ in range(steps)
            for r in stepper.engine.rt.capture_plan(lambda: base._advance(0))]):
        return LegalityProof(config=cfg.name, baseline=cfg.name,
                             verdict="baseline", pairs_checked=0,
                             primitives=0, counterexamples=())
    base_records, base_map = bind_steps(base, steps, tracer)
    pairs, prims, cex = check_contraction(
        base_records, base_map, records, partial(decompose, stepper.engine))
    return LegalityProof(
        config=cfg.name, baseline=MODIFIED_BASELINE.name,
        verdict="legal" if not cex else "illegal", pairs_checked=pairs,
        primitives=prims, counterexamples=tuple(cex))


def admit_stream(stepper: "NonUniformStepper", *,
                 workload: str = "") -> tuple[StepPlan, LintReport]:
    """Capture and bind one step, then run plan admission.

    The shared front half of every plan-caching backend: the stream is
    captured and bound (:func:`bind_stream`), linted over its access
    map, proven a legal contraction on the live geometry and tied to a
    validated certificate.  Returns the admitted :class:`StepPlan` — its
    bodies are the ones bound here — and the lint report; raises
    :class:`~repro.backend.base.PlanAdmissionError` when any part of the
    PR-5 contract fails — an inadmissible stream is never executed, in
    this process or any worker process replaying shards of it.

    The verdict — certificate and lint report — is kept on the grid
    (``MultiGrid.verdicts``), keyed by what admission reads besides the
    grid: the fusion config and the label.  Relaxation rates and force
    enter no record, so a later admission on the same grid (a served
    job at another viscosity) captures and binds its stream and reuses
    the verdict once the certificate validates against the new records,
    digest included; any mismatch runs the full admission.
    """
    engine = stepper.engine
    label = workload or f"live-{engine.mgrid.d}d-{stepper.num_levels}lvl"
    key = (stepper.config, label)
    verdict = engine.mgrid.verdicts.get(key)
    if verdict is not None:
        cert, lint = verdict
        handles: list[Any] = []
        records = engine.rt.capture_plan(lambda: stepper._advance(0), handles)
        bodies, reports = bind_bodies(records, handles)
        if None not in reports and not validate_certificate(cert, records):
            return _plan(stepper, label, records, bodies, cert), lint
    tracer = AccessTracer()
    records, bodies, _, accesses = bind_stream(stepper, tracer)
    if not records:
        raise PlanAdmissionError(["captured step stream is empty"])
    lint = lint_stream(records, accesses, engine)
    problems = [str(f) for f in lint.errors]
    proof = prove_plan_legality(stepper, records, tracer, 1)
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
