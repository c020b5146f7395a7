"""Trace-based and declaration-only verification of the mini-Neon model.

The Neon runtime (paper Section V-C) derives the dependency DAG — and
therefore every synchronisation the schedule contains — from the field
sets each kernel *declares*.  A declaration that drifts from the kernel
body's actual buffer accesses silently corrupts the schedule, which on a
real GPU is a data race.  This subsystem closes that loop twice over:

dynamically (PR 1):

* :mod:`repro.analysis.capture` — shadow-records the *actual* per-field,
  per-row-range reads/writes (including atomic Accumulate scatters) each
  kernel body performs while it executes;
* :mod:`repro.analysis.verify` — diffs captured accesses against each
  :class:`~repro.neon.runtime.KernelRecord`'s declared reads/writes and
  byte counts;
* :mod:`repro.analysis.races` — flags same-wave kernels whose observed
  accesses conflict at row-interval granularity (atomic-atomic pairs are
  commutative and exempt);

and statically, from declarations plus grid geometry alone — nothing
executes:

* :mod:`repro.analysis.static` — symbolic per-kernel access sets,
  fusion-legality contraction proofs with structured counterexamples,
  and the static ⊇ dynamic containment cross-check;
* :mod:`repro.analysis.lint` — dead stores, and redundant-load and
  droppable-buffer opportunities priced by the :mod:`repro.gpu` cost
  model;
* :mod:`repro.analysis.certificate` — machine-readable step-plan
  certificates (access sets, wave schedule, legality verdict, lint
  findings) the future compiled backend consumes as its admission
  contract;
* :mod:`repro.analysis.cli` — ``python -m repro analysis`` lints every
  fusion configuration on small multigrid workloads; ``--static`` runs
  the declaration-only gate.
"""

from .capture import Access, AccessTracer
from .certificate import (CERTIFICATE_VERSION, build_certificate,
                          load_certificate, stream_digest,
                          validate_certificate, write_certificate)
from .cli import ALL_CONFIGS, lint_config, main, small_workloads, static_check
from .lint import LintFinding, LintReport, lint_stream
from .races import Race, detect_races
from .static import (AccessModel, Counterexample, LegalityProof, StaticAccess,
                     plan_stream, prove_fusion_legality, seeded_illegal_proof,
                     superset_findings, verify_static)
from .verify import Finding, verify_record, verify_trace

__all__ = [
    "ALL_CONFIGS",
    "Access",
    "AccessModel",
    "AccessTracer",
    "CERTIFICATE_VERSION",
    "Counterexample",
    "Finding",
    "LegalityProof",
    "LintFinding",
    "LintReport",
    "Race",
    "StaticAccess",
    "build_certificate",
    "detect_races",
    "lint_config",
    "lint_stream",
    "load_certificate",
    "main",
    "plan_stream",
    "prove_fusion_legality",
    "seeded_illegal_proof",
    "small_workloads",
    "static_check",
    "stream_digest",
    "superset_findings",
    "validate_certificate",
    "verify_record",
    "verify_static",
    "verify_trace",
    "write_certificate",
]
