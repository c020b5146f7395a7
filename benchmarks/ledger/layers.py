"""Where the traced pass brackets the program: one span name per layer call.

Every entry is a public function, method or class of ``repro`` reached
by attribute; :func:`install` swaps each for a timing wrapper
(:meth:`SpanLog.instrument`) and :meth:`SpanLog.uninstrument` puts the
originals back.  Nothing under ``src/`` is edited and the wrapped code is
the code that runs untraced.  Span names are ``<layer>.<call>`` with the
layer being the ``repro`` subpackage that owns the call.
"""

from __future__ import annotations

import sys
from typing import Any, Callable

from spans import Span, SpanLog

__all__ = ["install"]


def install(log: SpanLog,
            adopt: Callable[[Any], None] | None = None) -> list[str]:
    """Instrument every layer boundary; return the span names not found.

    ``adopt(refinement_spec)`` is called on the worker thread that is
    about to build a served job's simulation, before any span opens
    there, so the serve workload can hang the worker's spans under the
    job's operation span.
    """
    import repro.backend.compiled as compiled
    import repro.backend.compiler as compiler
    import repro.core.simulation as simulation
    import repro.serve.server as server
    from repro.backend.plan import StepPlan
    from repro.core.engine import Engine
    from repro.io.checkpoint import CheckpointStore
    from repro.neon.runtime import Runtime
    from repro.resilience.runner import ResilientRunner

    def adopt_job(_self: Any, spec: Any, *a: Any, **kw: Any) -> None:
        if adopt is not None:
            adopt(spec)

    def count_cells(mgrid: Any, sp: Span) -> Any:
        sp.args["cells"] = sum(mgrid.active_per_level())
        return mgrid

    def trace_bodies(plan: Any, sp: Span) -> Any:
        return log.wrap_bodies(plan)

    sim_cls = simulation.Simulation
    table = [
        (sim_cls, "from_config", "core.from_config", {}),
        (sim_cls, "run", "core.run", {}),
        (sim_cls, "close", "core.close", {}),
        (simulation, "build_multigrid", "grid.build_multigrid",
         {"after": count_cells}),
        (Engine, "__init__", "core.Engine", {}),
        (Engine, "initialize", "core.Engine.initialize", {}),
        (Runtime, "capture_plan", "neon.capture_plan", {}),
        (compiler, "admit_stream", "analysis.admit_stream", {}),
        (compiler, "lint_stream", "analysis.lint_stream", {}),
        (compiler, "prove_plan_legality", "analysis.prove_plan_legality", {}),
        (compiler, "build_certificate", "analysis.build_certificate", {}),
        (compiler, "validate_certificate", "analysis.validate_certificate", {}),
        (compiled, "compile_plan", "backend.compile_plan",
         {"after": trace_bodies}),
        (StepPlan, "execute", "backend.StepPlan.execute", {}),
        (CheckpointStore, "save", "io.checkpoint_save", {}),
        (CheckpointStore, "restore_latest", "io.checkpoint_restore", {}),
        (ResilientRunner, "__init__", "resilience.build", {"before": adopt_job}),
        (ResilientRunner, "run", "resilience.run", {}),
        (ResilientRunner, "close", "resilience.close", {}),
        (server, "state_digest", "serve.state_digest", {}),
        (server.JobServer, "predict", "serve.predict_cost", {}),
    ]
    missing = [name for owner, attr, name, kw in table
               if not log.instrument(owner, attr, name, **kw)]
    for name in missing:
        print(f"ledger: warning: nothing to instrument for span {name!r}; "
              f"its layer metrics will read 0", file=sys.stderr)
    return missing
