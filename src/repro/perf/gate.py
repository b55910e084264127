"""``python -m repro.perf.gate`` — the CI perf-regression gate.

Compares the committed ``benchmarks/results/BENCH_perf.json`` against a
fresh smoke run, honestly split by what is comparable across machines:

* **deterministic sections** (campaign fingerprints, per-cell work
  counters, state fingerprints) must match the committed baseline
  *exactly* — any drift means the merge path, the cost cache or the
  campaign derivation changed behaviour;
* **worker independence** is re-proven: the smoke baseline is computed
  at ``workers=1`` and ``workers=N`` and the two payloads must be
  identical;
* **float metrics** (the pooled cost-cache hit rate) are held within a
  tolerance band of the committed value;
* **wall-clock** gates nothing: the serial and parallel smoke timings
  are reported for the reader and never turned into a verdict, so the
  gate's answer is the same on any machine (timing is
  ``benchmarks/shardbench``'s job).

``--certify`` switches to the certified-merge gate: fresh
baseline-vs-certified smoke cells compared against the committed
``benchmarks/results/BENCH_certify.json``, requiring exact counter
agreement, state equivalence between the arms, and a certified skip
that demonstrably fires.

``--workloads`` switches to the workload-leaderboard gate: the smoke
spec set (every app category under Zipfian skew over a million-key
universe) re-run fresh at ``workers=1`` and ``workers=N``, the two
payloads required identical, and every deterministic row counter plus
the aggregate fingerprint required to match the committed
``benchmarks/results/BENCH_workloads.json`` exactly — so the
throughput leaderboard is a tracked PR-over-PR series, not a one-off.

``--runtime`` switches to the E21 runtime-throughput gate over the
committed ``benchmarks/results/BENCH_runtime.json``: the
``smoke_baseline`` section must equal the deterministic rows recomputed
from the committed smoke specs (the event stream is a pure function of
the spec, so this is exact with no cluster boot), the committed
headline must carry a >= 10x speedup over the pre-pipelining baseline
with clean oracle + consistency verdicts, and — when CI hands the gate
a fresh smoke bench via ``--fresh`` — the fresh payload's deterministic
section must match the committed one exactly while its wall-clock
numbers are only held to same-machine sanity (the pipelined arm at
least matches the serial arm, verification clean).

Exit status: 0 clean, 1 any regression, 2 usage/baseline errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..chaos.harness import ChaosScenario
from .campaign import run_parallel_campaign, run_parallel_cells
from .cells import (
    CERTIFY_SMOKE_CELLS,
    SMOKE_CELLS,
    aggregate_hit_rate,
    run_certify_cell,
)
from .timer import PerfTimer

#: the smoke workload re-run by the gate; small enough for CI, fixed so
#: the committed baseline and every fresh run compute the same thing.
SMOKE_SEED = 0
SMOKE_RUNS = 6
SMOKE_SCENARIO = ChaosScenario(duration=8.0)

#: per-cell counters that must match the committed baseline exactly.
EXACT_CELL_KEYS = (
    "log_length", "inserts", "updates_applied", "fastpath_hits",
    "undo_redo_merges", "batch_merges", "batched_inserts",
    "cost_evaluations", "cost_hits", "state_fingerprint",
)

DEFAULT_BASELINE = Path("benchmarks/results/BENCH_perf.json")
CERTIFY_BASELINE = Path("benchmarks/results/BENCH_certify.json")
WORKLOADS_BASELINE = Path("benchmarks/results/BENCH_workloads.json")
RUNTIME_BASELINE = Path("benchmarks/results/BENCH_runtime.json")

#: the headline speedup the committed runtime bench must demonstrate
#: over the pre-pipelining closed-loop baseline.
RUNTIME_MIN_SPEEDUP = 10.0

#: per-workload leaderboard counters that must match the committed
#: baseline exactly (everything deterministic in a row except the
#: embedded spec echo and derived rates).
EXACT_WORKLOAD_KEYS = (
    "category", "events", "reads", "rejected", "ops_per_sim_sec",
    "log_length", "inserts", "updates_applied", "fastpath_hits",
    "undo_redo_merges", "certified_hits", "batch_merges",
    "batched_inserts", "cost_evaluations", "cost_hits", "wire_bytes",
    "convergence_lag", "final_cost", "consistent", "state_fingerprint",
)

#: per-arm counters of a certify cell that must match exactly.
EXACT_CERTIFY_KEYS = (
    "log_length", "inserts", "updates_applied", "fastpath_hits",
    "undo_redo_merges", "certified_hits", "state_fingerprint",
)

#: regimes where the certified skip must demonstrably pay.
CERTIFY_OUT_OF_ORDER = ("jittery", "partitioned")


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def smoke_baseline(
    workers: int = 1, timer: Optional[PerfTimer] = None
) -> Dict[str, object]:
    """The gate's deterministic smoke payload (identical for every
    worker count; that identity is itself one of the gate's checks)."""
    campaign = run_parallel_campaign(
        SMOKE_SEED, SMOKE_RUNS,
        workers=workers, scenario=SMOKE_SCENARIO, shrink=False, timer=timer,
    )
    cells = run_parallel_cells(SMOKE_CELLS, workers=workers, timer=timer)
    return {
        "seed": SMOKE_SEED,
        "runs": SMOKE_RUNS,
        "scenario": SMOKE_SCENARIO.as_dict(),
        "aggregate_fingerprint": campaign["aggregate_fingerprint"],
        "fingerprints": campaign["fingerprints"],
        "violations": campaign["violations"],
        "cells": cells,
        "cost_hit_rate": round(aggregate_hit_rate(cells), 4),
    }


def _compare_rows(
    kind: str, exact_keys, fresh_rows, committed_rows, problems: List[str]
) -> None:
    """Hold every fresh row (named by its ``kind`` field: ``"cell"`` or
    ``"workload"``) to the committed row of the same name, key by key."""
    committed_by_name = {row[kind]: row for row in committed_rows}
    for row in fresh_rows:
        committed = committed_by_name.pop(row[kind], None)
        if committed is None:
            problems.append(f"{kind} {row[kind]}: missing from baseline")
            continue
        for key in exact_keys:
            if row.get(key) != committed.get(key):
                problems.append(
                    f"{kind} {row[kind]}: {key} changed "
                    f"{committed.get(key)!r} -> {row.get(key)!r}"
                )
    for name in committed_by_name:
        problems.append(f"{kind} {name}: in baseline but not re-run")


def _load_baseline(
    baseline_path: Path,
) -> Tuple[Dict[str, object], Optional[str]]:
    """The committed payload, or the usage error (exit status 2) when
    the file is unreadable or carries no ``smoke_baseline`` section."""
    try:
        committed = json.loads(Path(baseline_path).read_text())
    except (OSError, ValueError) as exc:
        return {}, f"cannot read baseline {baseline_path}: {exc}"
    if not isinstance(committed.get("smoke_baseline"), dict):
        return {}, f"baseline {baseline_path} has no smoke_baseline section"
    return committed, None


def _fresh_worker_independent(
    build: Callable[..., Dict[str, object]], workers: int
) -> Tuple[Dict[str, object], List[str], Dict[str, object]]:
    """``build`` at ``workers=1`` and again at ``workers=workers``: the
    serial payload, the problem list (non-empty iff the two differ),
    and how long each took — reported, never judged."""
    timer = PerfTimer()
    with timer.span("gate_serial"):
        serial = build(workers=1)
    with timer.span("gate_parallel"):
        parallel = build(workers=workers)
    problems = [] if serial == parallel else [
        f"worker count changed the deterministic payload "
        f"(workers=1 vs workers={workers})"
    ]
    return serial, problems, {
        "cores": usable_cores(),
        "serial_s": round(timer.timings.total("gate_serial"), 3),
        "parallel_s": round(timer.timings.total("gate_parallel"), 3),
    }


def run_gate(
    baseline_path: Path = DEFAULT_BASELINE,
    tolerance: float = 0.02,
    workers: int = 2,
) -> Tuple[int, Dict[str, object]]:
    """Run the gate; returns (exit_status, JSON-ready report)."""
    committed, error = _load_baseline(baseline_path)
    if error is not None:
        return 2, {"error": error}
    expected = committed["smoke_baseline"]

    fresh_serial, problems, wall_check = _fresh_worker_independent(
        smoke_baseline, workers
    )
    if (
        fresh_serial["aggregate_fingerprint"]
        != expected.get("aggregate_fingerprint")
    ):
        problems.append(
            "campaign fingerprint drifted: "
            f"{expected.get('aggregate_fingerprint')!r} -> "
            f"{fresh_serial['aggregate_fingerprint']!r}"
        )
    if fresh_serial["violations"] != expected.get("violations"):
        problems.append(
            f"smoke violations changed {expected.get('violations')!r} -> "
            f"{fresh_serial['violations']!r}"
        )
    _compare_rows(
        "cell", EXACT_CELL_KEYS,
        fresh_serial["cells"], expected.get("cells", ()), problems,
    )
    committed_rate = expected.get("cost_hit_rate", 0.0)
    if fresh_serial["cost_hit_rate"] < committed_rate - tolerance:
        problems.append(
            f"cost-cache hit rate fell below band: "
            f"{fresh_serial['cost_hit_rate']} < {committed_rate} - {tolerance}"
        )

    report = {
        "baseline": str(baseline_path),
        "workers": workers,
        "tolerance": tolerance,
        "problems": problems,
        "wall_clock": wall_check,
        "fresh": {
            "aggregate_fingerprint": fresh_serial["aggregate_fingerprint"],
            "cost_hit_rate": fresh_serial["cost_hit_rate"],
        },
    }
    return (1 if problems else 0), report


def certify_smoke_baseline() -> Dict[str, object]:
    """The certify gate's deterministic smoke payload: every certify
    regime run baseline-vs-certified at smoke duration."""
    cells = [run_certify_cell(spec) for spec in CERTIFY_SMOKE_CELLS]
    return {
        "cells": cells,
        "certified_hits": sum(r["certified"]["certified_hits"] for r in cells),
        "replay_reduction": sum(r["replay_reduction"] for r in cells),
    }


def run_certify_gate(
    baseline_path: Path = CERTIFY_BASELINE,
) -> Tuple[int, Dict[str, object]]:
    """The certified-merge gate: fresh smoke certify cells must match
    the committed ``BENCH_certify.json`` exactly, the certified arm
    must agree with the baseline state, and the skip must actually fire
    (certified hits > 0, replays reduced in an out-of-order regime)."""
    committed, error = _load_baseline(baseline_path)
    if error is not None:
        return 2, {"error": error}
    expected = committed["smoke_baseline"]

    fresh = certify_smoke_baseline()
    problems: List[str] = []
    committed_by_name = {
        row["cell"]: row for row in expected.get("cells", ())
    }
    for row in fresh["cells"]:
        committed_row = committed_by_name.pop(row["cell"], None)
        if not row["states_agree"]:
            problems.append(
                f"cell {row['cell']}: certified arm diverged from baseline "
                f"state"
            )
        if committed_row is None:
            problems.append(f"cell {row['cell']}: missing from baseline")
            continue
        for arm in ("baseline", "certified"):
            for key in EXACT_CERTIFY_KEYS:
                got = row[arm].get(key)
                want = committed_row.get(arm, {}).get(key)
                if got != want:
                    problems.append(
                        f"cell {row['cell']}: {arm}.{key} changed "
                        f"{want!r} -> {got!r}"
                    )
    for name in committed_by_name:
        problems.append(f"cell {name}: in baseline but not re-run")

    if fresh["certified_hits"] <= 0:
        problems.append("certified skip never fired in the smoke cells")
    if not any(
        row["regime"] in CERTIFY_OUT_OF_ORDER
        and row["certified"]["certified_hits"] > 0
        and row["replay_reduction"] > 0
        for row in fresh["cells"]
    ):
        problems.append(
            "no out-of-order regime showed certified hits with a replay "
            "reduction"
        )

    report = {
        "baseline": str(baseline_path),
        "mode": "certify",
        "problems": problems,
        "fresh": {
            "certified_hits": fresh["certified_hits"],
            "replay_reduction": fresh["replay_reduction"],
        },
    }
    return (1 if problems else 0), report


def workloads_smoke_baseline(
    workers: int = 1, timer: Optional[PerfTimer] = None
) -> Dict[str, object]:
    """The workloads gate's deterministic smoke payload: the smoke spec
    set's full leaderboard (identical for every worker count)."""
    # imported here, not at module top: repro.workloads.runners pulls in
    # the shard cluster stack, which the plain perf gates never need.
    from ..workloads.leaderboard import build_leaderboard
    from ..workloads.runners import run_parallel_workloads
    from ..workloads.specs import SMOKE_SPECS

    rows, _ = run_parallel_workloads(SMOKE_SPECS, workers=workers,
                                     timer=timer)
    return build_leaderboard(rows)


def run_workloads_gate(
    baseline_path: Path = WORKLOADS_BASELINE,
    workers: int = 2,
) -> Tuple[int, Dict[str, object]]:
    """The workload-leaderboard gate (see module docstring): worker
    independence re-proven fresh, every deterministic row counter and
    the aggregate fingerprint pinned to the committed baseline."""
    committed, error = _load_baseline(baseline_path)
    if error is not None:
        return 2, {"error": error}
    expected = committed["smoke_baseline"]

    fresh_serial, problems, wall_check = _fresh_worker_independent(
        workloads_smoke_baseline, workers
    )
    if fresh_serial["fingerprint"] != expected.get("fingerprint"):
        problems.append(
            "leaderboard fingerprint drifted: "
            f"{expected.get('fingerprint')!r} -> "
            f"{fresh_serial['fingerprint']!r}"
        )
    if not fresh_serial["consistent"]:
        problems.append(
            "a fresh smoke workload failed mutual consistency"
        )
    _compare_rows(
        "workload", EXACT_WORKLOAD_KEYS,
        fresh_serial["rows"], expected.get("rows", ()), problems,
    )

    report = {
        "baseline": str(baseline_path),
        "mode": "workloads",
        "workers": workers,
        "problems": problems,
        "wall_clock": wall_check,
        "fresh": {
            "fingerprint": fresh_serial["fingerprint"],
            "total_events": fresh_serial["total_events"],
            "categories": fresh_serial["categories"],
        },
    }
    return (1 if problems else 0), report


def _runtime_smoke_rows() -> List[Dict[str, object]]:
    """The deterministic half of the runtime smoke series, recomputed
    from the committed specs — no cluster boot, exact by construction."""
    # imported here: the runtime bench pulls in the asyncio cluster
    # stack, which the plain perf gates never need.
    from ..runtime.bench import (
        DEFAULT_PIPELINE,
        E21_SMOKE_SPECS,
        deterministic_row,
    )

    return [
        deterministic_row(workload, DEFAULT_PIPELINE)
        for workload in sorted(E21_SMOKE_SPECS, key=lambda s: s.name)
    ]


def _headline_clean(headline: Dict[str, object]) -> bool:
    checks = headline.get("checks")
    return isinstance(checks, dict) and checks.get("clean") is True


def run_runtime_gate(
    baseline_path: Path = RUNTIME_BASELINE,
    fresh_path: Optional[Path] = None,
    min_speedup: float = RUNTIME_MIN_SPEEDUP,
) -> Tuple[int, Dict[str, object]]:
    """The E21 runtime-throughput gate (see module docstring)."""
    committed, error = _load_baseline(baseline_path)
    if error is not None:
        return 2, {"error": error}
    expected = committed["smoke_baseline"]

    problems: List[str] = []
    recomputed = _runtime_smoke_rows()
    if expected.get("rows") != recomputed:
        problems.append(
            "committed smoke_baseline drifted from the rows the smoke "
            "specs deterministically produce"
        )

    headline = committed.get("headline", {})
    speedup = headline.get("speedup_vs_committed_baseline", 0.0)
    if not isinstance(speedup, (int, float)) or speedup < min_speedup:
        problems.append(
            f"committed headline speedup {speedup!r} is below the "
            f"required {min_speedup}x over the pre-pipelining baseline"
        )
    if not _headline_clean(headline):
        problems.append(
            "committed headline lacks clean oracle + consistency checks"
        )
    series = committed.get("series", ())
    rates = [row.get("ops_per_sec", 0.0) for row in series]
    if rates != sorted(rates, reverse=True):
        problems.append("committed series is not ranked by ops_per_sec")
    for row in series:
        if not row.get("converged"):
            problems.append(
                f"committed series row {row.get('workload')!r} did not "
                f"converge"
            )

    fresh_report: Optional[Dict[str, object]] = None
    if fresh_path is not None:
        try:
            fresh = json.loads(Path(fresh_path).read_text())
        except (OSError, ValueError) as exc:
            return 2, {"error": f"cannot read fresh bench {fresh_path}: {exc}"}
        if fresh.get("smoke_baseline") != {"rows": recomputed}:
            problems.append(
                "fresh smoke bench's deterministic section does not match "
                "the committed smoke_baseline"
            )
        fresh_headline = fresh.get("headline", {})
        serial = fresh_headline.get("serial_ops_per_sec", 0.0)
        pipelined = fresh_headline.get("pipelined_ops_per_sec", 0.0)
        # wall-clock is same-machine-only: both arms ran on this host,
        # so the only claim gated is that pipelining does not lose.
        if pipelined < serial:
            problems.append(
                f"fresh pipelined arm ({pipelined} ops/sec) fell below "
                f"the fresh serial arm ({serial} ops/sec)"
            )
        if not _headline_clean(fresh_headline):
            problems.append(
                "fresh headline lacks clean oracle + consistency checks"
            )
        for row in fresh.get("series", ()):
            if not row.get("converged"):
                problems.append(
                    f"fresh series row {row.get('workload')!r} did not "
                    f"converge"
                )
        fresh_report = {
            "path": str(fresh_path),
            "serial_ops_per_sec": serial,
            "pipelined_ops_per_sec": pipelined,
        }

    report = {
        "baseline": str(baseline_path),
        "mode": "runtime",
        "min_speedup": min_speedup,
        "problems": problems,
        "committed": {
            "speedup_vs_committed_baseline": speedup,
            "pipelined_ops_per_sec": headline.get(
                "pipelined_ops_per_sec"
            ),
        },
    }
    if fresh_report is not None:
        report["fresh"] = fresh_report
    return (1 if problems else 0), report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.gate",
        description="perf-regression gate: committed BENCH_perf.json vs "
        "a fresh smoke run",
    )
    parser.add_argument("--baseline", type=Path, default=None,
                        help=f"baseline JSON (default {DEFAULT_BASELINE}; "
                        f"{CERTIFY_BASELINE} with --certify, "
                        f"{WORKLOADS_BASELINE} with --workloads)")
    parser.add_argument("--certify", action="store_true",
                        help="gate the certified merge fast path against "
                        "BENCH_certify.json instead of the perf smoke")
    parser.add_argument("--workloads", action="store_true",
                        help="gate the workload leaderboard against "
                        "BENCH_workloads.json instead of the perf smoke")
    parser.add_argument("--runtime", action="store_true",
                        help="gate the E21 runtime throughput series "
                        "against BENCH_runtime.json instead of the perf "
                        "smoke")
    parser.add_argument("--fresh", type=Path, default=None,
                        help="with --runtime: a fresh smoke bench JSON "
                        "to hold against the committed deterministic "
                        "section (wall numbers same-machine only)")
    parser.add_argument("--tolerance", type=float, default=0.02,
                        help="hit-rate tolerance band (default 0.02)")
    parser.add_argument("--workers", type=int, default=2,
                        help="parallel worker count to prove against "
                        "(default 2)")
    parser.add_argument("--format", choices=("json", "text"),
                        default="text", help="output format")
    return parser


def _wall_line(wall: Dict[str, object]) -> str:
    return (
        f"  wall-clock (reported, not gated): serial {wall['serial_s']}s, "
        f"parallel {wall['parallel_s']}s on {wall['cores']} core(s)"
    )


def _render_text(status: int, report: Dict[str, object]) -> str:
    if "error" in report:
        return f"perf gate error: {report['error']}"
    lines = [
        f"perf gate vs {report['baseline']}: "
        + ("CLEAN" if status == 0 else "REGRESSED")
    ]
    if report.get("mode") == "runtime":
        committed = report["committed"]
        lines.append(
            f"  committed headline: "
            f"{committed['pipelined_ops_per_sec']} ops/sec pipelined, "
            f"{committed['speedup_vs_committed_baseline']}x the "
            f"pre-pipelining baseline (min {report['min_speedup']}x)"
        )
        if "fresh" in report:
            fresh = report["fresh"]
            lines.append(
                f"  fresh smoke (same machine): "
                f"{fresh['pipelined_ops_per_sec']} ops/sec pipelined vs "
                f"{fresh['serial_ops_per_sec']} serial"
            )
    elif report.get("mode") == "certify":
        lines.append(
            f"  certified hits {report['fresh']['certified_hits']}, "
            f"replay reduction {report['fresh']['replay_reduction']}"
        )
    elif report.get("mode") == "workloads":
        lines.append(_wall_line(report["wall_clock"]))
        lines.append(
            f"  fresh leaderboard fingerprint "
            f"{report['fresh']['fingerprint']}, "
            f"{len(report['fresh']['categories'])} categories, "
            f"{report['fresh']['total_events']} events"
        )
    else:
        lines.append(_wall_line(report["wall_clock"]))
        lines.append(
            f"  fresh fingerprint "
            f"{report['fresh']['aggregate_fingerprint']}, "
            f"cost-cache hit rate {report['fresh']['cost_hit_rate']}"
        )
    for problem in report["problems"]:
        lines.append(f"  problem: {problem}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    if sum((args.certify, args.workloads, args.runtime)) > 1:
        print("--certify, --workloads and --runtime are mutually "
              "exclusive", file=sys.stderr)
        return 2
    if args.fresh is not None and not args.runtime:
        print("--fresh only applies with --runtime", file=sys.stderr)
        return 2
    if args.runtime:
        status, report = run_runtime_gate(
            baseline_path=args.baseline or RUNTIME_BASELINE,
            fresh_path=args.fresh,
        )
    elif args.certify:
        status, report = run_certify_gate(
            baseline_path=args.baseline or CERTIFY_BASELINE,
        )
    elif args.workloads:
        status, report = run_workloads_gate(
            baseline_path=args.baseline or WORKLOADS_BASELINE,
            workers=args.workers,
        )
    else:
        status, report = run_gate(
            baseline_path=args.baseline or DEFAULT_BASELINE,
            tolerance=args.tolerance,
            workers=args.workers,
        )
    if args.format == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(_render_text(status, report))
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
