"""``python -m repro.perf.campaign`` — deterministic parallel campaigns.

Fans seeded chaos runs (:func:`repro.chaos.cli.run_index`) and merge
hot-path seed cells (:mod:`repro.perf.cells`) across a
``multiprocessing`` pool.  The determinism contract:

* every run's randomness derives from ``(seed, index)`` alone via
  name-derived :class:`~repro.sim.rng.SeededStreams`, never from
  execution order or worker identity;
* workers return results tagged with their index; the merge sorts by
  index, so result order is scheduling-independent;
* the JSON payload contains no timings, worker counts or host facts —
  :func:`campaign_json` of the same ``(seed, runs, scenario)`` is
  byte-identical at ``--workers 1`` and ``--workers N``;
* the ``aggregate_fingerprint`` hashes the per-run fingerprints in index
  order, so one short string certifies a whole campaign.

Nothing here reads a clock: how long a campaign takes is
``benchmarks/shardbench``'s question, not this module's.

Exit status: 0 when every run passed every oracle, 1 when any oracle
was violated, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..chaos.cli import campaign_summary, run_index
from ..chaos.harness import ChaosScenario
from .cells import DEFAULT_CELLS, CellSpec, run_cell


def aggregate_fingerprint(fingerprints: Sequence[str]) -> str:
    """One hash over the per-run fingerprints, in index order."""
    digest = hashlib.sha256()
    for fingerprint in fingerprints:
        digest.update(fingerprint.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def campaign_json(payload: Dict[str, object]) -> str:
    """The canonical byte form of a campaign payload (what the
    determinism regression tests compare across worker counts)."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# -- pool plumbing ---------------------------------------------------------
# Task functions must be module-level so the pool can pickle them by
# reference; each returns (index, result).

def _chaos_task(task) -> Tuple[int, Dict[str, object]]:
    seed, index, scenario, oracles, shrink = task
    return index, run_index(
        seed, index, scenario=scenario, oracles=oracles, shrink=shrink
    )


def _cell_task(task) -> Tuple[int, Dict[str, object]]:
    index, runner, spec = task
    return index, runner(spec)


def fan_out(worker, tasks, workers: int) -> List:
    """Run ``worker`` over ``tasks``; in-process when ``workers <= 1``,
    else over an unordered pool.  Results come back in index order.

    ``worker`` must be module-level (picklable by reference) and return
    ``(index, result)`` — this is the shared fan-out primitive behind
    chaos campaigns, merge seed cells and the workload leaderboard."""
    tasks = list(tasks)
    if workers <= 1 or len(tasks) <= 1:
        outcomes = [worker(task) for task in tasks]
    else:
        chunksize = max(1, len(tasks) // (workers * 8))
        with multiprocessing.Pool(processes=workers) as pool:
            outcomes = list(
                pool.imap_unordered(worker, tasks, chunksize=chunksize)
            )
    outcomes.sort(key=lambda outcome: outcome[0])
    return [result for _, result in outcomes]


# -- campaigns -------------------------------------------------------------

def run_parallel_campaign(
    seed: int,
    runs: int,
    workers: int = 1,
    scenario: Optional[ChaosScenario] = None,
    oracles: Optional[Tuple[str, ...]] = None,
    shrink: bool = True,
) -> Dict[str, object]:
    """A seeded chaos campaign fanned over ``workers`` processes.

    Returns the same summary shape as
    :func:`repro.chaos.cli.run_campaign` plus the per-run fingerprint
    list and their ``aggregate_fingerprint`` — and is bit-identical to
    the ``workers=1`` payload for any worker count.
    """
    base = scenario if scenario is not None else ChaosScenario()
    tasks = [(seed, index, base, oracles, shrink) for index in range(runs)]
    results = fan_out(_chaos_task, tasks, workers)
    fingerprints = [r["fingerprint"] for r in results]
    return {
        **campaign_summary(seed, base, oracles, results),
        "fingerprints": fingerprints,
        "aggregate_fingerprint": aggregate_fingerprint(fingerprints),
    }


def run_parallel_cells(
    specs: Sequence[CellSpec] = DEFAULT_CELLS,
    workers: int = 1,
    runner: Callable[[CellSpec], Dict[str, object]] = run_cell,
) -> List[Dict[str, object]]:
    """Run ``runner`` (module-level: :func:`~repro.perf.cells.run_cell`
    or :func:`~repro.perf.cells.run_certify_cell`) on each cell over
    the pool; rows come back in spec order."""
    tasks = [(index, runner, spec) for index, spec in enumerate(specs)]
    return fan_out(_cell_task, tasks, workers)


# -- CLI -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.campaign",
        description="deterministic parallel chaos campaigns and merge "
        "seed cells",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed (default 0)")
    parser.add_argument("--runs", type=int, default=10,
                        help="number of chaos runs (default 10)")
    parser.add_argument("--workers", type=int, default=1,
                        help="pool size; 1 = in-process (default 1)")
    parser.add_argument("--format", choices=("json", "text"),
                        default="text", help="output format")
    parser.add_argument("--cells", action="store_true",
                        help="also run the merge hot-path seed cells")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip shrinking failing plans")
    return parser


def _render_text(output: Dict[str, object]) -> str:
    campaign = output["campaign"]
    lines = [
        f"perf campaign: seed={campaign['seed']} runs={campaign['runs']} "
        f"violations={campaign['violations']} "
        f"fingerprint={campaign['aggregate_fingerprint']}"
    ]
    for failure in campaign["failures"]:
        lines.append(
            f"  run {failure['run']}: oracles={','.join(failure['oracles'])}"
        )
    if not campaign["failures"]:
        lines.append("  all runs passed every oracle")
    for row in output.get("cells", ()):
        lines.append(
            f"  cell {row['cell']}: inserts={row['inserts']} "
            f"fastpath={row['fastpath_rate']:.2%} "
            f"cost-cache hits={row['cost_hit_rate']:.2%}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.runs < 1:
        print("--runs must be >= 1", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    campaign = run_parallel_campaign(
        args.seed, args.runs,
        workers=args.workers, shrink=not args.no_shrink,
    )
    output: Dict[str, object] = {"campaign": campaign}
    if args.cells:
        output["cells"] = run_parallel_cells(
            DEFAULT_CELLS, workers=args.workers
        )
    if args.format == "json":
        print(json.dumps(output, sort_keys=True, indent=2))
    else:
        print(_render_text(output))
    return 0 if campaign["violations"] == 0 else 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
