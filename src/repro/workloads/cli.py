"""``python -m repro.workloads`` — run specs, print the leaderboard.

* ``--leaderboard`` runs the committed production specs
  (:data:`~repro.workloads.specs.DEFAULT_SPECS`; ``--smoke`` switches
  to the CI smoke set) fanned over ``--workers`` processes, and prints
  the ranked per-category report as text or JSON.
* ``--spec FILE`` runs a single spec from a JSON file instead (the
  exact ``WorkloadSpec.as_dict`` schema).
* ``--list`` prints the committed spec names without running anything.

The payload is byte-identical for any ``--workers`` value.  Exit
status: 0 when every workload converged to mutual consistency, 1
otherwise, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict

from .leaderboard import build_leaderboard, leaderboard_json, render_text
from .runners import run_parallel_workloads
from .spec import WorkloadSpec
from .specs import DEFAULT_SPECS, SMOKE_SPECS

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads",
        description="deterministic production-shaped workloads and the "
        "per-category throughput leaderboard",
    )
    parser.add_argument("--leaderboard", action="store_true",
                        help="run the committed specs and print the "
                        "ranked report")
    parser.add_argument("--smoke", action="store_true",
                        help="use the CI smoke spec set")
    parser.add_argument("--spec", type=Path, default=None,
                        help="run one spec from a JSON file instead of "
                        "the committed sets")
    parser.add_argument("--list", action="store_true",
                        help="list the committed specs and exit")
    parser.add_argument("--workers", type=int, default=1,
                        help="pool size; 1 = in-process (default 1)")
    parser.add_argument("--format", choices=("json", "text"),
                        default="text", help="output format")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the JSON payload to this path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        for spec in (SMOKE_SPECS if args.smoke else DEFAULT_SPECS):
            print(f"{spec.name}  category={spec.category} "
                  f"rate={spec.rate} duration={spec.duration} "
                  f"universe={spec.universe} zipf={spec.zipf}")
        return 0
    if not args.leaderboard and args.spec is None:
        print("nothing to do: pass --leaderboard, --spec or --list",
              file=sys.stderr)
        return 2
    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    if args.spec is not None:
        try:
            data = json.loads(args.spec.read_text())
            specs = (WorkloadSpec.from_dict(data),)
        except (OSError, ValueError, TypeError, KeyError) as exc:
            print(f"cannot load spec {args.spec}: {exc}", file=sys.stderr)
            return 2
    else:
        specs = SMOKE_SPECS if args.smoke else DEFAULT_SPECS

    board = build_leaderboard(
        run_parallel_workloads(specs, workers=args.workers)
    )
    output: Dict[str, object] = {"leaderboard": board}
    if args.out is not None:
        args.out.write_text(leaderboard_json(output))
    if args.format == "json":
        print(json.dumps(output, sort_keys=True, indent=2))
    else:
        print(render_text(board))
    return 0 if board["consistent"] else 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
