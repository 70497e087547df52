"""Command line: ``python -m benchmarks.perf {run,record-golden}``.

Run from the repository root.  The package finds ``src/`` itself, so
``PYTHONPATH=src`` is optional.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from benchmarks.perf.harness import ROOT, WORKLOAD_NAMES


def _import_repro() -> None:
    """Import the program under test from this checkout's ``src/`` only."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"cannot import the program under test from {src}: {exc}")
    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro was imported from {repro.__file__}, not {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    commands = parser.add_subparsers(dest="command", required=True)

    def measuring(name: str, help: str):
        sub = commands.add_parser(name, help=help)
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--seconds", type=float, default=25.0)
        sub.add_argument(
            "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
            help="1 (or the bare flag) measures per-layer metrics instead",
        )
        return sub

    run = measuring("run", "measure workloads and print every metric")
    run.add_argument("--workload", choices=WORKLOAD_NAMES)
    child = measuring("_measure", argparse.SUPPRESS)
    child.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    child.add_argument("--t0", type=float, required=True)
    child.add_argument("--setup-only", action="store_true")
    commands.add_parser("record-golden", help="regenerate golden/seed{0,1,2}.json")

    args = parser.parse_args(argv)
    if args.command == "run" and args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_repro()

    from benchmarks.perf import harness

    if args.command == "record-golden":
        return harness.record_golden()
    if args.command == "_measure":
        return harness.measure(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.t0, args.setup_only,
        )
    workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    return harness.run(workloads, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
