"""``python -m repro.perf.gate`` — the one deterministic CI gate.

Three committed baselines, one procedure.  Each row of :data:`GATES`
names a ``benchmarks/results/BENCH_*.json`` file, the builder that
recomputes its ``smoke_baseline`` section from committed specs alone,
the keys that must match exactly, and its verdict checks:

* ``perf`` — the seeded chaos campaign's aggregate fingerprint and the
  merge hot-path cells' work counters (``BENCH_perf.json``), pooled
  cost-cache hit rate within :data:`HIT_RATE_BAND` of the committed one;
* ``certify`` — baseline-vs-certified merge cells, every counter of
  both arms (``BENCH_certify.json``); the arms must agree on the final
  state and the certified skip must demonstrably fire and pay;
* ``workloads`` — the smoke leaderboard, every deterministic row
  counter and the aggregate fingerprint (``BENCH_workloads.json``);
  every workload must quiesce to mutual consistency.

:func:`run_gate` runs the stages cheapest first.  ``schema`` (the file
reads, has a ``smoke_baseline`` and every gated key) fails before
anything is run.  Then one payload is built at ``workers=1`` and again
at ``workers=N`` — ``workers``: the two must be identical — and the
serial one is held to the baseline payload key by payload key
(``fingerprint``), row by row and key by key (``rows``) and through the
row's verdict checks (``verdict``); these four report together, so a
fingerprint drift still names the row that moved.  Findings are typed
:class:`Problem` records rendered ``stage:reason subject detail``.

Everything judged is an exact count or a fingerprint: the gate reads no
clock and reports no time (that is ``benchmarks/shardbench``'s job).
Exit status: 0 clean, 1 any regression, 2 usage/baseline errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..chaos.harness import ChaosScenario
from .campaign import run_parallel_campaign, run_parallel_cells
from .cells import (
    CERTIFY_ARM_KEYS,
    CERTIFY_SMOKE_CELLS,
    SMOKE_CELLS,
    aggregate_hit_rate,
    run_certify_cell,
)

Payload = Dict[str, object]

#: the smoke workload re-run by the gate; small enough for CI, fixed so
#: the committed baseline and every fresh run compute the same thing.
SMOKE_SEED = 0
SMOKE_RUNS = 6
SMOKE_SCENARIO = ChaosScenario(duration=8.0)

#: how far the pooled cost-cache hit rate may fall below the committed one.
HIT_RATE_BAND = 0.02

#: regimes where the certified skip must demonstrably pay.
CERTIFY_OUT_OF_ORDER = ("jittery", "partitioned")


@dataclass(frozen=True)
class Problem:
    """One typed gate finding: which ``stage`` failed and why, on what."""

    stage: str
    reason: str
    subject: str = ""
    detail: str = ""

    def __str__(self) -> str:
        head = f"{self.stage}:{self.reason}"
        return " ".join(p for p in (head, self.subject, self.detail) if p)


# -- fresh-payload builders (what the E16/E19/E20 benches commit as
# ``smoke_baseline``): pure in committed specs, same at any worker count.

def smoke_baseline(workers: int = 1) -> Payload:
    """The ``perf`` payload: smoke chaos campaign + merge seed cells."""
    campaign = run_parallel_campaign(
        SMOKE_SEED, SMOKE_RUNS,
        workers=workers, scenario=SMOKE_SCENARIO, shrink=False,
    )
    cells = run_parallel_cells(SMOKE_CELLS, workers=workers)
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


def certify_smoke_baseline(workers: int = 1) -> Payload:
    """The ``certify`` payload: every certify regime run
    baseline-vs-certified at smoke duration."""
    cells = run_parallel_cells(
        CERTIFY_SMOKE_CELLS, workers=workers, runner=run_certify_cell
    )
    return {
        "cells": cells,
        "certified_hits": sum(r["certified"]["certified_hits"] for r in cells),
        "replay_reduction": sum(r["replay_reduction"] for r in cells),
    }


def workloads_smoke_baseline(workers: int = 1) -> Payload:
    """The ``workloads`` payload: the smoke spec set's leaderboard."""
    # imported here, not at module top: repro.workloads.runners pulls in
    # the shard cluster stack and itself imports repro.perf.campaign.
    from ..workloads.leaderboard import build_leaderboard
    from ..workloads.runners import run_parallel_workloads
    from ..workloads.specs import SMOKE_SPECS

    return build_leaderboard(
        run_parallel_workloads(SMOKE_SPECS, workers=workers)
    )


# -- verdict checks --------------------------------------------------------

def _hit_rate_in_band(fresh: Payload, expected: Payload) -> Iterator[Problem]:
    committed = expected.get("cost_hit_rate", 0.0)
    if fresh["cost_hit_rate"] < committed - HIT_RATE_BAND:
        yield Problem(
            "verdict", "hit-rate-below-band", "cost_hit_rate",
            f"{fresh['cost_hit_rate']} < {committed} - {HIT_RATE_BAND}",
        )


def _skip_pays(fresh: Payload, expected: Payload) -> Iterator[Problem]:
    for row in fresh["cells"]:
        if not row["states_agree"]:
            yield Problem("verdict", "states-diverged", row["cell"])
    if fresh["certified_hits"] <= 0:
        yield Problem("verdict", "skip-never-fired")
    if not any(
        row["regime"] in CERTIFY_OUT_OF_ORDER
        and row["certified"]["certified_hits"] > 0
        and row["replay_reduction"] > 0
        for row in fresh["cells"]
    ):
        yield Problem("verdict", "no-out-of-order-payoff")


def _all_consistent(fresh: Payload, expected: Payload) -> Iterator[Problem]:
    for row in fresh["rows"]:
        if not row["consistent"]:
            yield Problem("verdict", "inconsistent", row["workload"])


# -- the table -------------------------------------------------------------

@dataclass(frozen=True)
class Gate:
    """One gated baseline: where it is committed, how to recompute it,
    and what must hold between the two."""

    baseline: Path
    build: Callable[[int], Payload]
    #: payload key holding the row list, and the row key naming a row.
    rows: str
    name: str
    #: payload-level keys that must match the baseline exactly.
    payload_keys: Tuple[str, ...]
    #: per-row keys that must match exactly (``a.b`` reads row[a][b]).
    row_keys: Tuple[str, ...]
    verdicts: Tuple[Callable[[Payload, Payload], Iterator[Problem]], ...]


_RESULTS = Path("benchmarks/results")

GATES: Dict[str, Gate] = {
    "perf": Gate(
        _RESULTS / "BENCH_perf.json", smoke_baseline, "cells", "cell",
        ("aggregate_fingerprint", "violations"),
        (
            "log_length", "inserts", "updates_applied", "fastpath_hits",
            "undo_redo_merges", "batch_merges", "batched_inserts",
            "cost_evaluations", "cost_hits", "state_fingerprint",
        ),
        (_hit_rate_in_band,),
    ),
    "certify": Gate(
        _RESULTS / "BENCH_certify.json", certify_smoke_baseline,
        "cells", "cell",
        ("certified_hits", "replay_reduction"),
        tuple(
            f"{arm}.{key}"
            for arm in ("baseline", "certified") for key in CERTIFY_ARM_KEYS
        ),
        (_skip_pays,),
    ),
    # everything deterministic in a leaderboard row except the embedded
    # spec echo and the derived rates.
    "workloads": Gate(
        _RESULTS / "BENCH_workloads.json", workloads_smoke_baseline,
        "rows", "workload",
        ("fingerprint",),
        (
            "category", "events", "reads", "rejected", "ops_per_sim_sec",
            "log_length", "inserts", "updates_applied", "fastpath_hits",
            "undo_redo_merges", "certified_hits", "batch_merges",
            "batched_inserts", "cost_evaluations", "cost_hits",
            "wire_bytes", "convergence_lag", "final_cost", "consistent",
            "state_fingerprint",
        ),
        (_all_consistent,),
    ),
}


# -- stages ----------------------------------------------------------------

def _dig(row: Dict[str, object], dotted: str) -> object:
    for part in dotted.split("."):
        row = row[part]
    return row


def _changed(stage: str, subject: str, want, got) -> Iterator[Problem]:
    if got != want:
        yield Problem(stage, "changed", subject, f"{want!r} -> {got!r}")


def _committed(
    spec: Gate, path: Path
) -> Tuple[Optional[Payload], List[Problem]]:
    """The ``schema`` stage: the committed ``smoke_baseline`` section,
    or why it cannot be gated against."""
    try:
        committed = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return None, [Problem("schema", "unreadable", str(path), str(exc))]
    expected = (
        committed.get("smoke_baseline") if isinstance(committed, dict) else None
    )
    if not isinstance(expected, dict):
        return None, [Problem("schema", "no-smoke-baseline", str(path))]
    problems = [
        Problem("schema", "missing-key", key)
        for key in spec.payload_keys + (spec.rows,) if key not in expected
    ]
    for index, row in enumerate(expected.get(spec.rows, ())):
        for key in (spec.name,) + spec.row_keys:
            try:
                _dig(row, key)
            except (KeyError, TypeError):
                problems.append(Problem(
                    "schema", "missing-key", f"{spec.rows}[{index}].{key}"
                ))
    return expected, problems


def _regressions(
    spec: Gate, workers: int, fresh: Payload, expected: Payload
) -> Iterator[Problem]:
    """The four stages that share one fresh payload, in order."""
    if spec.build(workers) != fresh:
        yield Problem(
            "workers", "payload-differs", f"workers=1 vs workers={workers}"
        )
    for key in spec.payload_keys:
        yield from _changed("fingerprint", key, expected[key], fresh[key])
    committed_by_name = {row[spec.name]: row for row in expected[spec.rows]}
    for row in fresh[spec.rows]:
        name = row[spec.name]
        committed = committed_by_name.pop(name, None)
        if committed is None:
            yield Problem("rows", "missing", name, "not in the baseline")
            continue
        for key in spec.row_keys:
            yield from _changed(
                "rows", f"{name}.{key}", _dig(committed, key), _dig(row, key)
            )
    for name in committed_by_name:
        yield Problem("rows", "extra", name, "in the baseline but not re-run")
    for verdict in spec.verdicts:
        yield from verdict(fresh, expected)


def run_gate(
    gate: str,
    baseline_path: Optional[Path] = None,
    workers: int = 2,
) -> Tuple[int, Dict[str, object]]:
    """Run one row of :data:`GATES` (see the module docstring); returns
    ``(exit_status, JSON-ready report)``."""
    spec = GATES[gate]
    path = Path(baseline_path) if baseline_path is not None else spec.baseline
    report: Dict[str, object] = {
        "gate": gate, "baseline": str(path), "workers": workers,
    }
    expected, problems = _committed(spec, path)
    status = 2
    if not problems:  # a failed schema stage runs nothing.
        fresh = spec.build(1)
        problems = list(_regressions(spec, workers, fresh, expected))
        report["fresh"] = {key: fresh[key] for key in spec.payload_keys}
        status = 1 if problems else 0
    report.update(
        status=status, problems=[asdict(problem) for problem in problems]
    )
    return status, report


# -- CLI -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.gate",
        description="deterministic regression gate: every committed "
        f"smoke_baseline ({', '.join(GATES)}) vs a fresh run",
    )
    parser.add_argument("--workers", type=int, default=2,
                        help="parallel worker count to prove against "
                        "(default 2)")
    parser.add_argument("--format", choices=("json", "text"),
                        default="text", help="output format")
    return parser


def _render_text(report: Dict[str, object]) -> str:
    verdict = ("CLEAN", "REGRESSED", "ERROR")[report["status"]]
    lines = [f"{report['gate']} gate vs {report['baseline']}: {verdict}"]
    if "fresh" in report:
        lines.append("  fresh " + ", ".join(
            f"{key}={value}" for key, value in report["fresh"].items()
        ))
    lines += [f"  problem: {Problem(**p)}" for p in report["problems"]]
    return "\n".join(lines)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    reports = [run_gate(name, workers=args.workers)[1] for name in GATES]
    status = max(report["status"] for report in reports)
    if args.format == "json":
        print(json.dumps(
            {"status": status, "gates": reports}, sort_keys=True, indent=2
        ))
    else:
        print("\n".join(_render_text(report) for report in reports))
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
