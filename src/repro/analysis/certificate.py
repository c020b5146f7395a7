"""Machine-readable step-plan certificates.

A certificate is the static analyzer's output frozen as JSON: the
kernel stream, the access map its bodies' reports state, the wave
schedule of the records' dependency graph (the waves
:attr:`StepPlan.waves <repro.backend.plan.StepPlan.waves>` and the mp
backend replay), the fusion-legality verdict and
the lint findings — everything a compiled backend needs to *admit* a
step plan without re-deriving the analysis (ROADMAP: "compiled step
plans" behind the pluggable backend).

The stream digest binds a certificate to the exact kernel stream it
proves things about: an executor can hash its own records and refuse a
stale certificate.  ``validate_certificate`` re-checks the structural
invariants (digest match, schema version, wave schedule is a permutation
that puts every declared hazard's later kernel in a later wave) so a
tampered or hand-edited file is rejected before anything trusts it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..io.checkpoint import atomic_write
from ..neon.graph import build_dependency_graph, graph_stats, schedule_waves
from ..neon.runtime import FieldRef, KernelRecord
from .capture import Access
from .lint import LintReport
from .static import LegalityProof

__all__ = ["CERTIFICATE_VERSION", "stream_digest", "build_certificate",
           "validate_certificate", "write_certificate", "load_certificate"]

#: Bump on any incompatible change to the certificate layout; consumers
#: must refuse versions they do not know.
CERTIFICATE_VERSION = 1


def stream_digest(records: Sequence[KernelRecord]) -> str:
    """Stable content hash of a kernel stream.

    Covers exactly the declared launch parameters (not accesses — those
    are derived).  Field order inside reads/writes is significant: it is
    part of the declaration.
    """
    h = hashlib.sha256()
    for r in records:
        h.update(repr((r.name, r.level, r.n_cells, r.bytes_read,
                       r.bytes_written, r.atomic_bytes, r.tag,
                       tuple((f.name, f.level) for f in r.reads),
                       tuple((f.name, f.level) for f in r.writes),
                       )).encode())
    return h.hexdigest()


def _ref_json(ref: FieldRef) -> str:
    return f"{ref.name}@{ref.level}"


def _access_json(a: Access) -> dict[str, Any]:
    out: dict[str, Any] = {
        "field": _ref_json(a.field) if a.field is not None else None,
        "kind": a.kind, "rows": [a.lo, a.hi], "nbytes": a.nbytes,
    }
    if a.entries is not None:
        out["exact_entries"] = len(a.entries)
    return out


def build_certificate(config: str, workload: str,
                      records: Sequence[KernelRecord],
                      accesses: Mapping[int, Sequence[Access]],
                      proof: LegalityProof, lint: LintReport,
                      steps: int) -> dict[str, Any]:
    """Assemble the certificate document for one (config, workload) plan."""
    g = build_dependency_graph(list(records))
    waves = schedule_waves(g)
    kernels = []
    for i, r in enumerate(records):
        kernels.append({
            "index": i, "name": r.name, "level": r.level,
            "n_cells": r.n_cells, "bytes_read": r.bytes_read,
            "bytes_written": r.bytes_written, "atomic_bytes": r.atomic_bytes,
            "reads": [_ref_json(f) for f in r.reads],
            "writes": [_ref_json(f) for f in r.writes],
            "accesses": [_access_json(a) for a in accesses[i]],
        })
    return {
        "version": CERTIFICATE_VERSION,
        "config": config,
        "workload": workload,
        "steps": steps,
        "stream_digest": stream_digest(records),
        "kernels": kernels,
        "wave_schedule": [list(w) for w in waves],
        "graph": graph_stats(g, waves),
        "legality": {
            "verdict": proof.verdict,
            "baseline": proof.baseline,
            "pairs_checked": proof.pairs_checked,
            "primitives": proof.primitives,
            "counterexamples": [str(c) for c in proof.counterexamples],
        },
        "lint": {
            "errors": len(lint.errors),
            "opportunities": len(lint.opportunities),
            "findings": [{
                "check": f.check, "severity": f.severity, "field": f.field,
                "index": f.index, "kernel": f.kernel,
                "bytes_saved": f.bytes_saved,
                "capacity_saved": f.capacity_saved,
                "time_saved_us": round(f.time_saved_us, 3),
                "detail": f.detail,
            } for f in lint.findings],
        },
    }


def validate_certificate(cert: Mapping[str, Any],
                         records: Sequence[KernelRecord] | None = None,
                         ) -> list[str]:
    """Structural admission checks a consumer runs before trusting a plan.

    Returns problems (empty = admissible).  With ``records``, the digest
    is recomputed against the live stream — the staleness check a
    compiled backend performs at load time.
    """
    problems: list[str] = []
    version = cert.get("version")
    if version != CERTIFICATE_VERSION:
        problems.append(f"unknown certificate version {version!r} "
                        f"(expected {CERTIFICATE_VERSION})")
        return problems
    for key in ("config", "workload", "stream_digest", "kernels",
                "wave_schedule", "legality", "lint"):
        if key not in cert:
            problems.append(f"missing field {key!r}")
    if problems:
        return problems

    kernels = cert["kernels"]
    n = len(kernels)
    waves: list[list[int]] = [list(w) for w in cert["wave_schedule"]]
    flat = [i for w in waves for i in w]
    if sorted(flat) != list(range(n)):
        problems.append("wave schedule is not a permutation of the kernels")
    else:
        # a kernel must sit in a later wave than every predecessor it
        # shares a declared field with, one of the two writing it.
        wave_of = {i: w for w, wave in enumerate(waves) for i in wave}
        writes: dict[str, list[int]] = {}
        reads: dict[str, list[int]] = {}
        for k in kernels:
            i = k["index"]
            for fld in k["reads"]:
                for j in writes.get(fld, ()):  # RAW
                    if wave_of[i] <= wave_of[j]:
                        problems.append(
                            f"wave schedule breaks RAW {fld}: #{j} -> #{i}")
            for fld in k["writes"]:
                for j in reads.get(fld, []) + writes.get(fld, []):
                    if j != i and wave_of[i] <= wave_of[j]:
                        problems.append(
                            f"wave schedule breaks hazard on {fld}: "
                            f"#{j} -> #{i}")
            for fld in k["reads"]:
                reads.setdefault(fld, []).append(i)
            for fld in k["writes"]:
                writes.setdefault(fld, []).append(i)
    verdict = cert["legality"].get("verdict")
    if verdict not in ("legal", "illegal", "baseline"):
        problems.append(f"unknown legality verdict {verdict!r}")
    if verdict == "illegal" and not cert["legality"].get("counterexamples"):
        problems.append("illegal verdict without a counterexample")
    if records is not None:
        digest = stream_digest(records)
        if digest != cert["stream_digest"]:
            problems.append("stream digest mismatch: certificate was built "
                            "for a different kernel stream")
    # keep only unique problems, first occurrence wins
    seen: set[str] = set()
    unique: list[str] = []
    for p in problems:
        if p not in seen:
            seen.add(p)
            unique.append(p)
    return unique[:20]


def write_certificate(cert: Mapping[str, Any], path: str | Path) -> Path:
    """Serialise one certificate to ``path`` (parent dirs created)."""
    text = json.dumps(cert, indent=2, sort_keys=False) + "\n"
    atomic_write(str(path), lambda fh: fh.write(text), "w")
    return Path(path)


def load_certificate(path: str | Path) -> dict[str, Any]:
    """Read a certificate back; raises on malformed JSON."""
    out = json.loads(Path(path).read_text())
    if not isinstance(out, dict):
        raise ValueError(f"{path}: certificate must be a JSON object")
    return out
