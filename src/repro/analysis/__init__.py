"""Kernel access analysis and plan admission for the mini-Neon model.

The Neon runtime (paper Section V-C) derives the dependency DAG — and
therefore every synchronisation the schedule contains — from the field
sets each kernel declares.  Here a kernel states what it touches once:
the access report bound with its body in :mod:`repro.core.engine`.  The
launch record the scheduler reads is derived from that report
(:meth:`~repro.neon.runtime.KernelRecord.from_accesses`), so the two
cannot drift apart, and this subsystem reasons over the reports:

* :mod:`repro.analysis.capture` — the :class:`Access` records a report
  states (field, row interval, kind, bytes, exact entries), the
  :class:`AccessTracer` that records them and the :class:`EntrySet`;
* :mod:`repro.analysis.static` — the stream and its access map with no
  body run, and fusion-legality contraction proofs with structured
  counterexamples;
* :mod:`repro.analysis.lint` — dead stores, and redundant-load and
  droppable-buffer opportunities priced by the :mod:`repro.gpu` cost
  model;
* :mod:`repro.analysis.certificate` — machine-readable step-plan
  certificates (access map, the declared wave schedule plan replay
  runs, legality verdict, lint findings) plan admission validates;
* :mod:`repro.analysis.cli` — ``python -m repro analysis`` checks every
  fusion configuration on small multigrid workloads in one pass over
  the capture's access map: legality, lint and certificates.

No race detector runs over the waves: the schedule is built from the
records (:func:`repro.neon.graph.build_dependency_graph`), which order
every two kernels that touch a common field one of them writes, and the
records name every field a report states.

The one remaining check is whether a report covers what its body
actually does: ``tests/test_static_analysis.py`` runs the bodies on
poisoned buffers against their reports.
"""

from .capture import Access, AccessTracer
from .certificate import (CERTIFICATE_VERSION, build_certificate,
                          load_certificate, stream_digest,
                          validate_certificate, write_certificate)
from .cli import ALL_CONFIGS, main, small_workloads, static_check
from .lint import LintFinding, LintReport, lint_stream
from .static import (Counterexample, LegalityProof, plan_stream,
                     prove_fusion_legality, seeded_illegal_proof)

__all__ = [
    "ALL_CONFIGS",
    "Access",
    "AccessTracer",
    "CERTIFICATE_VERSION",
    "Counterexample",
    "LegalityProof",
    "LintFinding",
    "LintReport",
    "build_certificate",
    "lint_stream",
    "load_certificate",
    "main",
    "plan_stream",
    "prove_fusion_legality",
    "seeded_illegal_proof",
    "small_workloads",
    "static_check",
    "stream_digest",
    "validate_certificate",
    "write_certificate",
]
