"""Compare two shardbench result files against the benchmark's bounds.

    python3 benchmarks/shardbench/compare.py A.json B.json

``A`` is the base (the parent commit, or the first of two runs of one
commit), ``B`` the candidate.  For every workload and every end-to-end
metric the direction and regression bound come from ``BENCHMARK.json``;
one row is printed per (workload, metric) with both values and the ratio
B/A, and the exit code is non-zero if any metric got worse by more than
its bound, if more operations failed, or — when both files ran the same
seed — if a simulator workload's exact counts or final state differ.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def worse_by(base: float, value: float, better: str) -> float:
    """How much worse ``value`` is than ``base``, as a share of
    ``base`` (negative when it is better)."""
    if base == 0:
        raise ValueError("base value is 0: no ratio to take")
    change = (value - base) / abs(base)
    return change if better == "lower" else -change


def compare(
    base: Dict[str, object],
    candidate: Dict[str, object],
    benchmark: Dict[str, object],
) -> Tuple[List[str], List[str]]:
    """Returns ``(rows, breaches)``: the printed table and one line per
    breach."""
    rows: List[str] = []
    breaches: List[str] = []
    same_seed = base.get("seed") == candidate.get("seed")
    for entry in benchmark["workloads"]:
        workload = entry["name"]
        a = base["workloads"].get(workload)
        b = candidate["workloads"].get(workload)
        if a is None or b is None:
            missing = "A" if a is None else "B"
            breaches.append(f"{workload}: no metrics in {missing}")
            continue
        for metric in benchmark["end_to_end"]:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            va = a["end_to_end"][name]["value"]
            vb = b["end_to_end"][name]["value"]
            worse = worse_by(va, vb, better)
            verdict = "ok"
            if worse > bound:
                verdict = f"BREACH (worse by {worse:.1%} > {bound:.0%})"
                breaches.append(f"{workload} {name}: {verdict}")
            rows.append(
                f"{workload:20s} {name:20s} A={va:<12.6g} B={vb:<12.6g} "
                f"B/A={vb / va:.4f} ({better} is better, "
                f"bound {bound:.0%}) {verdict}"
            )
        share_a = a["failed"] / a["attempted"]
        share_b = b["failed"] / b["attempted"]
        verdict = "ok"
        if share_b > share_a:
            verdict = "BREACH (more operations failed)"
            breaches.append(f"{workload} failed_ops_share: {verdict}")
        rows.append(
            f"{workload:20s} {'failed_ops_share':20s} A={share_a:<12.6g} "
            f"B={share_b:<12.6g} (any rise is a breach) {verdict}"
        )
        counts_a = a["detail"].get("counts")
        if same_seed and counts_a is not None:
            # a simulator workload: one seed, one scheduler, so counts
            # and the final state repeat exactly or something is wrong.
            counts_b = b["detail"].get("counts")
            if counts_a != counts_b or (
                a["detail"]["fingerprint"] != b["detail"]["fingerprint"]
            ):
                breaches.append(
                    f"{workload}: exact counts or final state differ "
                    "between two runs of one seed"
                )
    return rows, breaches


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="result file A (the base)")
    parser.add_argument("candidate", help="result file B (compared to A)")
    parser.add_argument("--benchmark", default=str(BENCHMARK),
                        help="BENCHMARK.json holding directions and bounds")
    args = parser.parse_args(argv)
    loaded = []
    for path in (args.base, args.candidate, args.benchmark):
        with open(path, "r", encoding="utf-8") as handle:
            loaded.append(json.load(handle))
    rows, breaches = compare(*loaded)
    for row in rows:
        print(row)
    if breaches:
        print(f"\n{len(breaches)} breach(es):")
        for breach in breaches:
            print(f"  {breach}")
        return 1
    print("\nno metric worse than its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
