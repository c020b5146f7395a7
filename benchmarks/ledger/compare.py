#!/usr/bin/env python3
"""Compare a parent commit with a change, pair by pair.

    python3 benchmarks/ledger/compare.py P1.json C1.json P2.json C2.json ...

The files are result sets written by ``run.py`` (all-workload runs) and
alternate parent, change, parent, change: make the runs in that order,
swapping which side goes first from pair to pair, so drift of the host
lands on both sides.  Ten pairs or more are needed for a claim.

For every workload and end-to-end metric it prints each side's median
and quartiles, the share of pairs the change wins (ties count for
neither side), and one verdict, by the rule of the choosing-metrics
guide:

* ``gain``       — the change wins at least nine tenths of the pairs and
                   the medians differ by more than the parent's own
                   spread (the distance between its quartiles);
* ``regression`` — the change's median is worse than the parent's by more
                   than the bound ``BENCHMARK.json`` fixes for the metric;
* ``unresolved`` — the parent's spread is wider than the bound, so a
                   regression of the size the bound forbids could hide in
                   it — unless every run of the change reads better than
                   every run of the parent;
* ``same``       — none of the above.

Exit code 1 if any pairing is a regression, else 0.
"""

from __future__ import annotations

import json
import os
import sys

from spans import quartiles

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
WIN_SHARE = 0.9


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> dict:
    """Judge one metric on one workload from paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pairs = len(parent)
    spread = pq3 - pq1
    delta = sign * (cmed - pmed)          # > 0: the change reads better
    worse_by = -delta / abs(pmed) if pmed else 0.0
    all_better = (min(change) > max(parent) if better == "higher"
                  else max(change) < min(parent))
    if pairs and wins >= WIN_SHARE * pairs and delta > spread:
        what = "gain"
    elif worse_by > bound:
        what = "regression"
    elif pmed and spread / abs(pmed) > bound and not all_better:
        what = "unresolved"
    else:
        what = "same"
    return {"verdict": what, "pairs": pairs, "wins": wins, "losses": losses,
            "parent": (pq1, pmed, pq3), "change": (cq1, cmed, cq3),
            "worse_by": worse_by}


def load(paths: list[str]) -> tuple[list[dict], list[dict]]:
    if len(paths) < 2 or len(paths) % 2:
        raise SystemExit("need an even number of result files: "
                         "parent change [parent change ...]")
    sets = []
    for path in paths:
        with open(path) as fh:
            sets.append(json.load(fh))
    return sets[0::2], sets[1::2]


def main(argv: list[str] | None = None) -> int:
    paths = list(sys.argv[1:] if argv is None else argv)
    if not paths or paths[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    parents, changes = load(paths)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if len(parents) < 10:
        print(f"note: {len(parents)} pair(s); a claim needs at least ten")
    regressions = 0
    for w in bench["workloads"]:
        name = w["name"]
        print(f"== {name}")
        for m in bench["end_to_end"]:
            def values(sets: list[dict]) -> list[float]:
                return [s["workloads"][name]["end_to_end"][m["name"]]["value"]
                        for s in sets]
            v = verdict(values(parents), values(changes), m["better"], m["bound"])
            regressions += v["verdict"] == "regression"
            p, c = v["parent"], v["change"]
            print(f"  {m['name']:<12} parent {p[1]:>10.5g} [{p[0]:.5g}, {p[2]:.5g}]"
                  f"  change {c[1]:>10.5g} [{c[0]:.5g}, {c[2]:.5g}] {m['unit']:<5}"
                  f" wins {v['wins']}/{v['pairs']} losses {v['losses']}"
                  f"  worse by {v['worse_by']:+.1%} (bound {m['bound']:.0%})"
                  f"  -> {v['verdict']}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
