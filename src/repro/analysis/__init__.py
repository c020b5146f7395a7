"""Declaration checks and plan admission for the mini-Neon model.

The Neon runtime (paper Section V-C) derives the dependency DAG — and
therefore every synchronisation the schedule contains — from the field
sets each kernel *declares*.  A declaration that drifts from what the
kernel body touches silently corrupts the schedule, which on a real GPU
is a data race.  Each kernel's footprint is stated twice, independently:
by its launch declaration, and by the access report bound with its body
in :mod:`repro.core.engine` — the one per-kernel statement of what it
reads and writes.  This subsystem checks the two against each other and
reasons over the reports:

* :mod:`repro.analysis.capture` — the :class:`Access` records a report
  states (field, row interval, kind, bytes, exact entries), the
  :class:`AccessTracer` that records them and the :class:`EntrySet`;
* :mod:`repro.analysis.verify` — diffs each kernel's reported accesses
  against its :class:`~repro.neon.runtime.KernelRecord`'s declared
  reads/writes and byte counts;
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
  the bind-time access map: declarations, legality, lint and
  certificates.

No race detector runs over the waves: the schedule is built from the
declarations (:func:`repro.neon.graph.build_dependency_graph`), which
order every two kernels that declare a common field one of them
writes, and the verifier reports any access to a field a kernel does
not declare — so a same-wave conflict is a verifier finding first.

Whether a report covers what its body actually does is checked by
running the bodies on poisoned buffers (``tests/test_static_analysis.py``).
"""

from .capture import Access, AccessTracer
from .certificate import (CERTIFICATE_VERSION, build_certificate,
                          load_certificate, stream_digest,
                          validate_certificate, write_certificate)
from .cli import ALL_CONFIGS, main, small_workloads, static_check
from .lint import LintFinding, LintReport, lint_stream
from .static import (Counterexample, LegalityProof, plan_stream,
                     prove_fusion_legality, seeded_illegal_proof)
from .verify import Finding, verify_record, verify_trace

__all__ = [
    "ALL_CONFIGS",
    "Access",
    "AccessTracer",
    "CERTIFICATE_VERSION",
    "Counterexample",
    "Finding",
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
    "verify_record",
    "verify_trace",
    "write_certificate",
]
