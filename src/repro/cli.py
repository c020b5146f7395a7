"""``python -m repro`` — the unified CLI facade.

One front door for every tool the repo grew::

    python -m repro analysis    # fusion-legality verifier, race gate, certs
    python -m repro obs         # telemetry runner (trace + metrics + watchdog)
    python -m repro report      # observatory run report (text/HTML/JSON)
    python -m repro resilience  # fault matrix, bit-identical recovery gate
    python -m repro history     # ledger comparisons, parent → change per PR
    python -m repro serve       # multi-tenant job server (flood demo, summary)

Conventions shared across subcommands: ``--out-dir`` names the artifact
directory everywhere (subcommands whose native flag is ``--out`` get it
translated by the facade), ``--config`` selects a fusion config where
one applies, and ``--json`` switches machine-readable output where the
tool supports it.
"""

from __future__ import annotations

import sys
from typing import Callable, Sequence

__all__ = ["main", "SUBCOMMANDS"]


def _analysis(argv: list[str]) -> int:
    from .analysis.cli import main
    return main(argv)


def _obs(argv: list[str]) -> int:
    from .obs.cli import main
    return main(_translate_out(argv))


def _report(argv: list[str]) -> int:
    from .obs.cli import main
    return main(["report"] + _translate_out(argv))


def _resilience(argv: list[str]) -> int:
    from .resilience.cli import main
    return main(_translate_out(argv))


def _history(argv: list[str]) -> int:
    from .bench.history import main
    return main(argv)


def _serve(argv: list[str]) -> int:
    from .serve.cli import main
    return main(argv)


#: subcommand -> (runner, one-line help)
SUBCOMMANDS: dict[str, tuple[Callable[[list[str]], int], str]] = {
    "analysis": (_analysis, "static/dynamic kernel-stream analyzer: "
                 "fusion legality, race gate, certificates"),
    "obs": (_obs, "telemetry runner: span trace, metrics, watchdog"),
    "report": (_report, "observatory run report (text/HTML/JSON)"),
    "resilience": (_resilience, "fault matrix with bit-identical "
                   "recovery gate"),
    "history": (_history, "recorded ledger comparisons: parent → change "
                "per PR"),
    "serve": (_serve, "async multi-tenant simulation job server"),
}


def _translate_out(argv: Sequence[str]) -> list[str]:
    """Map the facade's ``--out-dir`` onto a tool's native ``--out``."""
    out: list[str] = []
    for arg in argv:
        if arg == "--out-dir":
            out.append("--out")
        elif arg.startswith("--out-dir="):
            out.append("--out=" + arg[len("--out-dir="):])
        else:
            out.append(arg)
    return out


def _usage(stream=None) -> None:
    stream = stream if stream is not None else sys.stdout
    print("usage: python -m repro <subcommand> [options]\n", file=stream)
    print("subcommands:", file=stream)
    width = max(len(name) for name in SUBCOMMANDS)
    for name, (_, help_line) in SUBCOMMANDS.items():
        print(f"  {name.ljust(width)}  {help_line}", file=stream)
    print("\nRun 'python -m repro <subcommand> --help' for that tool's "
          "options.", file=stream)


def main(argv: Sequence[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] in ("-h", "--help", "help"):
        _usage()
        return 0
    name, rest = args[0], args[1:]
    entry = SUBCOMMANDS.get(name)
    if entry is None:
        print(f"python -m repro: unknown subcommand {name!r}\n",
              file=sys.stderr)
        _usage(sys.stderr)
        return 2
    return entry[0](rest)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
