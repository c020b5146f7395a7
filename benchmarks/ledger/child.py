"""One workload, one process: what ``run.py`` starts for every run.

``run.py`` sets the environment (BLAS pinned to one thread, allocator
pinned, ``REPRO_*`` overrides removed, ``PYTHONPATH`` pointing at
``src``) and starts this file; it runs the workload and prints one JSON
object — the run's full record — as the last line of its output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from time import perf_counter

T_START = perf_counter()

import numpy as np  # noqa: E402  (the clock starts before the heavy imports)

import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.bench.history import git_sha, host_fingerprint  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")
#: A one-minute load average above this at start means other work shares
#: the two cores; the numbers are still printed, with a warning.
LOAD_WARN = 1.5


def fingerprint(seed: int) -> dict:
    """The repo's own host identity plus what a timing also depends on."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        **host_fingerprint(),
        "load_avg": list(os.getloadavg()),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": git_sha(ROOT),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)

    host = fingerprint(args.seed)
    load1 = host["load_avg"][0]
    if load1 > LOAD_WARN:
        print(f"ledger: warning: load average {load1:.2f} > {LOAD_WARN} at start; "
              f"timings below share the cores with other work", file=sys.stderr)

    run = workloads.Run(workload=args.workload, seed=args.seed,
                        seconds=args.seconds, trace=bool(args.trace),
                        sizes=inputs.QUICK if args.quick else inputs.FULL,
                        scratch=os.path.join(RESULTS, "tmp"))
    with run.log.span("workload", op=args.workload):
        workloads.run_workload(run)

    ops = run.ops
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "quick": args.quick, "host": host,
        "inputs_digest": inputs.input_digest(run.inputs),
        "attempted": run.attempted, "failed": run.failed,
        "failures": run.failures, "op_count": len(ops),
        "op_seconds": ops, "setup_seconds": run.setup,
        "wall_s": perf_counter() - T_START,
    }
    if not run.trace:
        record["end_to_end"] = {
            "setup_s": spans.median(run.setup),
            "mlups": spans.median(run.mlups),
            "op_p50_s": spans.median(ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        run.layer["bench.host_load1"] = load1
        record["per_layer"] = run.layer
        os.makedirs(RESULTS, exist_ok=True)
        suffix = "-quick" if args.quick else ""
        path = os.path.join(RESULTS, f"trace-{args.workload}{suffix}.json")
        spans.chrome_trace(run.log.spans, path, {"host": host,
                                                 "workload": args.workload})
        record["trace_file"] = os.path.relpath(path, ROOT)
        record["self_time_residual"] = spans.self_time_residual(run.log.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
