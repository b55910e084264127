"""``python -m repro.chaos`` — seeded chaos campaigns from the shell.

A campaign runs ``--runs`` independent chaos runs, each with a fresh
random fault plan and cluster seed derived from ``--seed``, evaluates
every oracle, and greedily shrinks any failing plan to a minimal JSON
reproducer.  Exit status: 0 when every run passed, 1 when any oracle
was violated, 2 on usage errors — so CI can gate on it directly.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..sim.rng import SeededStreams
from .harness import ChaosScenario, run_chaos
from .oracles import ORACLES
from .plans import generate_plan
from .shrink import shrink_plan


def run_index(
    seed: int,
    index: int,
    scenario: Optional[ChaosScenario] = None,
    oracles: Optional[Tuple[str, ...]] = None,
    shrink: bool = True,
) -> Dict[str, object]:
    """One campaign run, derived deterministically from (seed, index).

    Module-level and picklable on purpose: the serial loop below and the
    parallel runner (:mod:`repro.perf.campaign`) both call exactly this
    function, so the worker count cannot change what any run computes.
    Every name-derived seeded stream depends only on (seed, index), not
    on execution order.

    The generated plan is validated against the cluster size *once*,
    here; the chaos run itself and every shrink probe (a subplan of the
    validated plan) skip the injector's re-validation.
    """
    base = scenario if scenario is not None else ChaosScenario()
    streams = SeededStreams(seed)
    plan_rng = streams.stream(f"plan:{index}")
    run_seed = streams.stream(f"cluster:{index}").randrange(2 ** 31)
    run_scenario = replace(base, seed=run_seed)
    plan = generate_plan(plan_rng, run_scenario)
    plan.check_nodes(run_scenario.n_nodes)
    report = run_chaos(
        run_scenario, plan, oracles=oracles, plan_validated=True
    )
    result: Dict[str, object] = {
        "run": index,
        "cluster_seed": run_seed,
        "fingerprint": report.fingerprint,
        "ok": report.ok,
        "violations": len(report.violations),
        "failure": None,
    }
    if report.ok:
        return result
    failing_oracles = tuple(sorted(
        {v.oracle for v in report.violations}
    ))
    failure: Dict[str, object] = {
        "run": index,
        "cluster_seed": run_seed,
        "oracles": list(failing_oracles),
        "violations": [v.as_dict() for v in report.violations],
        "plan": plan.to_dicts(),
    }
    if shrink:
        def still_fails(candidate) -> bool:
            rerun = run_chaos(
                run_scenario, candidate,
                oracles=oracles, plan_validated=True,
            )
            return any(
                v.oracle in failing_oracles for v in rerun.violations
            )

        shrunk = shrink_plan(plan, still_fails)
        failure["shrunk_plan"] = shrunk.plan.to_dicts()
        failure["shrunk_size"] = len(shrunk.plan)
        failure["shrink_probes"] = shrunk.probes
    result["failure"] = failure
    return result


def campaign_summary(
    seed: int,
    scenario: ChaosScenario,
    oracles: Optional[Tuple[str, ...]],
    results: List[Dict[str, object]],
) -> Dict[str, object]:
    """The JSON-ready summary of a campaign's :func:`run_index` results,
    given in index order (the parallel runner extends it)."""
    failures = [r["failure"] for r in results if r["failure"] is not None]
    return {
        "seed": seed,
        "runs": len(results),
        "scenario": scenario.as_dict(),
        "oracles": list(oracles) if oracles is not None else list(ORACLES),
        "violations": sum(r["violations"] for r in results),
        "failing_runs": len(failures),
        "failures": failures,
    }


def run_campaign(
    seed: int,
    runs: int,
    scenario: Optional[ChaosScenario] = None,
    oracles: Optional[Tuple[str, ...]] = None,
    shrink: bool = True,
) -> Dict[str, object]:
    """Run a seeded campaign; returns a JSON-ready summary dict."""
    base = scenario if scenario is not None else ChaosScenario()
    results = [
        run_index(seed, index, scenario=base, oracles=oracles, shrink=shrink)
        for index in range(runs)
    ]
    return campaign_summary(seed, base, oracles, results)


def _render_text(result: Dict[str, object]) -> str:
    lines = [
        f"chaos campaign: seed={result['seed']} runs={result['runs']} "
        f"violations={result['violations']}"
    ]
    for failure in result["failures"]:
        lines.append(
            f"  run {failure['run']}: oracles={','.join(failure['oracles'])} "
            f"plan={len(failure['plan'])} faults"
            + (
                f" -> shrunk to {failure['shrunk_size']}"
                if "shrunk_size" in failure else ""
            )
        )
        for violation in failure["violations"]:
            lines.append(
                f"    [{violation['oracle']}] {violation['description']}"
            )
    if not result["failures"]:
        lines.append("  all runs passed every oracle")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="seeded fault-injection campaigns with invariant "
        "oracles and counterexample shrinking",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed (default 0)")
    parser.add_argument("--runs", type=int, default=10,
                        help="number of independent runs (default 10)")
    parser.add_argument("--format", choices=("json", "text"),
                        default="text", help="output format")
    parser.add_argument("--oracles", default=None,
                        help="comma-separated oracle subset (default: all)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip shrinking failing plans")
    parser.add_argument("--no-piggyback", action="store_true",
                        help="run the weakened intransitive ablation")
    parser.add_argument("--duration", type=float, default=None,
                        help="override workload duration")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.runs < 1:
        print("--runs must be >= 1", file=sys.stderr)
        return 2
    scenario = ChaosScenario()
    if args.no_piggyback:
        scenario = replace(scenario, piggyback=False, delay="fixed")
    if args.duration is not None:
        scenario = replace(scenario, duration=args.duration)
    oracles: Optional[Tuple[str, ...]] = None
    if args.oracles:
        oracles = tuple(
            name.strip() for name in args.oracles.split(",") if name.strip()
        )
        unknown = [name for name in oracles if name not in ORACLES]
        if unknown:
            print(f"unknown oracles: {', '.join(unknown)}", file=sys.stderr)
            return 2
    result = run_campaign(
        args.seed, args.runs,
        scenario=scenario, oracles=oracles, shrink=not args.no_shrink,
    )
    if args.format == "json":
        print(json.dumps(result, sort_keys=True, indent=2))
    else:
        print(_render_text(result))
    return 0 if result["violations"] == 0 else 1
