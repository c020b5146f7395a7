#!/usr/bin/env python3
"""The layered performance ledger: one command, every metric by name.

    python3 benchmarks/ledger/run.py --seed 1            # all four workloads,
                                                         # untraced then traced
    python3 benchmarks/ledger/run.py --workload cavity3d-steady \\
            --seed 1 --seconds 10 --trace 0              # one run, as the driver makes it
    python3 benchmarks/ledger/run.py --agree R1.json R2.json
    python3 benchmarks/ledger/run.py --selftest

Every run happens in a child process of its own (``child.py``) started
with the same environment on every commit: BLAS pinned to one thread,
the allocator pinned so freed memory stays with the process (on this
host a first-touch page fault costs 5-150 us, which otherwise swamps
every cold-start timing), ``REPRO_BACKEND`` / ``REPRO_THREADED`` unset.
With ``--workload`` the last line printed is the JSON object the driver
reads; without it, results go to ``results/ledger-seed<N>.json``.

Exit code: 0 when every operation was correct, 1 when any failed or was
wrong (after printing all metrics), 2 when the harness itself could not
run (bad arguments, ``src/repro`` not found).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
#: A run the driver makes must end within 180 s; the child gets less.
CHILD_TIMEOUT = 170


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env() -> dict[str, str]:
    """The environment every workload runs in — the same on every commit."""
    env = dict(os.environ)
    for name in ("REPRO_BACKEND", "REPRO_THREADED", "REPRO_MP_WORKERS",
                 "REPRO_MP_TIMEOUT"):
        env.pop(name, None)
    env.update(
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        # glibc malloc: serve every request from the heap and never give
        # memory back, so that after the discarded warming build no timed
        # operation pays first-touch page faults.
        MALLOC_MMAP_MAX_="0", MALLOC_TRIM_THRESHOLD_=str(1 << 40),
        MALLOC_TOP_PAD_=str(256 << 20),
        PYTHONPATH=os.pathsep.join(
            [SRC, HERE] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int,
              quick: bool = False) -> dict:
    """Run one workload in its own process group; return its record."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, text=True,
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        # the child may have workers of its own (mp leg); none may outlive it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None:
        raise RuntimeError(f"{workload}: no result within {CHILD_TIMEOUT} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: child exited {proc.returncode} "
                           f"without a result")
    return json.loads(lines[-1])


def contract_metrics(record: dict, bench: dict) -> dict:
    """The metrics object of the driver's result line, units from BENCHMARK.json.

    With tracing off: every ``end_to_end`` metric.  With tracing on:
    every ``per_layer`` metric, reading 0 where this workload does not
    exercise the layer call behind it (README, "Reading a zero").
    """
    if record["trace"]:
        declared, measured = bench["per_layer"], record["per_layer"]
        unknown = sorted(set(measured) - {m["name"] for m in declared})
        if unknown:
            raise RuntimeError(f"metrics not in BENCHMARK.json: {unknown}")
        return {m["name"]: {"value": float(measured.get(m["name"], 0.0)),
                            "unit": m["unit"]} for m in declared}
    return {m["name"]: {"value": float(record["end_to_end"][m["name"]]),
                        "unit": m["unit"]} for m in bench["end_to_end"]}


def print_metrics(title: str, metrics: dict) -> None:
    print(f"== {title}")
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:>16.6g} {m['unit']}")


def run_one(args: argparse.Namespace, bench: dict) -> int:
    record = run_child(args.workload, args.seed, args.seconds, args.trace,
                       args.quick)
    metrics = contract_metrics(record, bench)
    print_metrics(f"{record['workload']} seed={record['seed']} "
                  f"trace={int(record['trace'])} ops={record['op_count']}", metrics)
    for what in record["failures"]:
        print(f"  FAILED: {what}")
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 1 if record["failed"] else 0


def run_all(args: argparse.Namespace, bench: dict) -> int:
    """Every workload, tracing off; then every workload again, traced."""
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    result = {"seed": args.seed, "seconds": seconds, "quick": args.quick,
              "workloads": {n: {} for n in names}}
    failed = 0
    for trace in (0, 1):
        for name in names:
            record = run_child(name, args.seed, seconds, trace, args.quick)
            failed += record["failed"]
            metrics = contract_metrics(record, bench)
            entry = result["workloads"][name]
            entry["traced" if trace else "untraced"] = record
            entry["per_layer" if trace else "end_to_end"] = metrics
            result.setdefault("host", record["host"])
            print_metrics(f"{name} seed={args.seed} trace={trace} "
                          f"ops={record['op_count']} "
                          f"failed={record['failed']}/{record['attempted']} "
                          f"wall={record['wall_s']:.1f}s", metrics)
            for what in record["failures"]:
                print(f"  FAILED: {what}")
    os.makedirs(RESULTS, exist_ok=True)
    out = args.out or os.path.join(
        RESULTS, f"ledger-seed{args.seed}{'-quick' if args.quick else ''}.json")
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(f"results: {os.path.relpath(out)}   failed operations: {failed}")
    return 1 if failed else 0


def agree(paths: list[str], bench: dict) -> int:
    """Do two result sets of one commit agree within the benchmark's bounds?

    For every workload and end-to-end metric the second set may not read
    worse than the first by more than the metric's bound.
    """
    with open(paths[0]) as fh:
        first = json.load(fh)
    with open(paths[1]) as fh:
        second = json.load(fh)
    bad = 0
    for name in first["workloads"]:
        for m in bench["end_to_end"]:
            a = first["workloads"][name]["end_to_end"][m["name"]]["value"]
            b = second["workloads"][name]["end_to_end"][m["name"]]["value"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            ok = worse <= m["bound"]
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name:<20} {m['name']:<12} "
                  f"{a:>12.6g} -> {b:>12.6g} {m['unit']:<4} "
                  f"worse by {worse:+.1%} (bound {m['bound']:.0%})")
    print("agree" if not bad else f"{bad} pairing(s) outside their bound")
    return 1 if bad else 0


def selftest() -> int:
    env = child_env()
    return subprocess.run([sys.executable, "-m", "unittest", "-v",
                           "selftest_ledger"], env=env, cwd=HERE).returncode


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="run this one workload and print the "
                    "driver's result line (default: all, untraced then traced)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: BENCHMARK.json's)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes, for the self-tests; not a measurement")
    ap.add_argument("--out", help="result file of an all-workload run")
    ap.add_argument("--agree", nargs=2, metavar="RESULT")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"ledger: {SRC}/repro not found: nothing to measure", file=sys.stderr)
        return 2
    bench = load_benchmark()
    if args.selftest:
        return selftest()
    if args.agree:
        return agree(args.agree, bench)
    if args.workload:
        if args.workload not in [w["name"] for w in bench["workloads"]]:
            ap.error(f"unknown workload {args.workload!r}")
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        return run_one(args, bench)
    return run_all(args, bench)


if __name__ == "__main__":
    sys.exit(main())
