"""Step-plan compiler: capture, admit, bind.

Compilation of one coarse step runs in three stages:

1. **Capture** — :meth:`~repro.neon.runtime.Runtime.capture_plan`
   records the kernel stream: every launch's declaration, with its body
   handle kept next to it, unbound; no body runs.
2. **Admission** — the captured stream must pass the PR-5 contract
   before any body is built: every kernel is one the static access
   model knows, the lint pass reports zero errors, the fusion config is
   proven a legal contraction of the modified baseline (on the *live*
   engine's geometry, not a canned workload), and the assembled
   step-plan certificate validates against the stream (digest + hazard
   order).  Failure raises
   :class:`~repro.backend.base.PlanAdmissionError` — an inadmissible
   plan is never executed.
3. **Bind** — each handle is bound once (:func:`bind_bodies`): the
   engine resolves the field views and flat index maps its body needs
   and proves the pull table's entries inside ``[0, Q * n_owned)`` before
   freezing them; the body's access report comes with it.  A run is the
   bare closures in a loop (:meth:`StepPlan.execute
   <repro.backend.plan.StepPlan.execute>`).

The interpreted backend runs stages 1 and 3 every step, without
admission; the bodies are the ones :mod:`repro.core.engine` writes once,
and this module indexes no population buffer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from ..analysis.certificate import build_certificate, validate_certificate
from ..analysis.lint import lint_stream
from ..analysis.static import AccessModel, LegalityProof, check_contraction
from ..neon.runtime import AccessReport, KernelBody, KernelRecord, LazyBody
from .base import PlanAdmissionError
from .plan import StepPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.stepper import NonUniformStepper

__all__ = ["admit_stream", "bind_bodies", "compile_plan", "plan_key",
           "prove_plan_legality"]


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


def prove_plan_legality(stepper: "NonUniformStepper",
                        records: list[KernelRecord],
                        model: AccessModel) -> LegalityProof:
    """Prove the captured stream is a legal contraction, on the live grid.

    Unlike :func:`repro.analysis.static.prove_fusion_legality` (which
    proves configs on a canonical workload), this runs the contraction
    check against a modified-baseline stream captured from the *same*
    engine — the plan is admitted for the geometry it will actually
    replay on.  The original Fig. 4a layout is a different algorithm,
    not a contraction, and keeps its ``"baseline"`` verdict.
    """
    from ..core.fusion import MODIFIED_BASELINE
    from ..core.stepper import NonUniformStepper

    cfg = stepper.config
    if cfg.original_layout:
        return LegalityProof(config=cfg.name, baseline=cfg.name,
                             verdict="baseline", pairs_checked=0,
                             primitives=0, counterexamples=())
    baseline = NonUniformStepper(stepper.engine, MODIFIED_BASELINE)
    base_records = stepper.engine.rt.capture_plan(
        lambda: baseline._advance(0))
    pairs, prims, cex = check_contraction(
        base_records, model.access_map(base_records), records,
        model.decompose)
    return LegalityProof(
        config=cfg.name, baseline=MODIFIED_BASELINE.name,
        verdict="legal" if not cex else "illegal", pairs_checked=pairs,
        primitives=prims, counterexamples=tuple(cex))


def admit_stream(stepper: "NonUniformStepper", *, workload: str = "",
                 bodies: list[Any] | None = None):
    """Capture one step's declaration stream and run plan admission.

    The shared front half of every plan-caching backend: the stream is
    captured (each launch's body handle appended to ``bodies`` when
    given), linted, proven a legal contraction on the
    live geometry and tied to a validated certificate.  Returns
    ``(records, certificate, lint_report)``; raises
    :class:`~repro.backend.base.PlanAdmissionError` when any part of the
    PR-5 contract fails — an inadmissible stream is never executed, in
    this process or any worker process replaying shards of it.
    """
    engine = stepper.engine
    rt = engine.rt
    records = rt.capture_plan(lambda: stepper._advance(0), bodies)
    if not records:
        raise PlanAdmissionError(["captured step stream is empty"])
    model = AccessModel(engine)
    # Plans replay whatever body a launch carried, so this is the check
    # that keeps the executable set closed: only kernels the static model
    # prices (and ``repro analysis`` checks against observed accesses).
    static_map = {}
    for i, rec in enumerate(records):
        try:
            static_map[i] = model.accesses(rec)
        except KeyError as exc:
            raise PlanAdmissionError(
                [f"record #{i} (level {rec.level}): {exc.args[0]}"]) from exc
    lint = lint_stream(records, model, static_map=static_map)
    problems = [str(f) for f in lint.errors]
    proof = prove_plan_legality(stepper, records, model)
    if proof.verdict == "illegal":
        problems.extend(str(c) for c in proof.counterexamples[:3])
    label = workload or f"live-{engine.mgrid.d}d-{stepper.num_levels}lvl"
    cert = build_certificate(stepper.config.name, label, records, model,
                             proof, lint, steps=1, static_map=static_map)
    problems.extend(validate_certificate(cert, records))
    if problems:
        raise PlanAdmissionError(problems)
    return records, cert, lint


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


def compile_plan(stepper: "NonUniformStepper", *,
                 workload: str = "") -> StepPlan:
    """Compile one coarse step of ``stepper`` into a :class:`StepPlan`."""
    engine = stepper.engine
    handles: list[Any] = []
    records, cert, _lint = admit_stream(stepper, workload=workload,
                                        bodies=handles)
    label = workload or f"live-{engine.mgrid.d}d-{stepper.num_levels}lvl"
    return StepPlan(records, *bind_bodies(records, handles),
                    digest=cert["stream_digest"], certificate=cert,
                    label=f"{stepper.config.name}/{label}")
