"""E20 — the production-workload leaderboard at million-key scale.

Every application category runs a committed :class:`WorkloadSpec` —
Zipfian key skew over a **10**6-key universe**, diurnal and flash-crowd
load shapes — through the full replicated stack, and the results roll
up into one leaderboard.  Three claims, all exact (wall throughput is
``benchmarks/shardbench``'s measurement, not this experiment's):

* **worker independence** — the leaderboard payload is byte-identical
  at ``workers=1`` and ``workers=N``;
* **million-key scale needs no setup** — rejection-inversion Zipf
  sampling is O(1) per draw with no per-key table, so every category
  runs over >= 1M distinct simulated client keys;
* **convergence under skew** — every workload quiesces to mutual
  consistency, and the per-category merge economics (undo/redo work,
  cost-cache and certified-hit rates, wire bytes, convergence lag) are
  pinned exactly by the ``smoke_baseline`` section the CI gate
  (``python -m repro.perf.gate``) re-runs.

The run writes ``BENCH_workloads.json`` (leaderboard + smoke baseline)
and the rendered ``E20_workloads.txt`` table.
"""

import json
import os

from common import RESULTS_DIR, run_once, save_tables

from repro.harness import Table
from repro.perf import workloads_smoke_baseline
from repro.workloads.leaderboard import (
    build_leaderboard,
    leaderboard_json,
    render_text,
)
from repro.workloads.runners import run_parallel_workloads
from repro.workloads.specs import DEFAULT_SPECS, MILLION, SMOKE_SPECS

BENCH_SMOKE = bool(os.environ.get("BENCH_SMOKE"))
SPECS = SMOKE_SPECS if BENCH_SMOKE else DEFAULT_SPECS
PARALLEL_WORKERS = 2 if BENCH_SMOKE else 8

#: the profile-driven interning decision (satellite of the workloads
#: PR): recorded here so the leaderboard notes travel with the numbers.
INTERNING_NOTES = (
    "profiled run_workload with cProfile: >90% of wall time is gossip "
    "flood + merge, not key synthesis; replica/engine record ids are "
    "plain int txids (nothing to intern). Key-name interning in "
    "ZipfKeys is kept as a memory measure (one shared string per "
    "distinct hot key across the log and every replica state); a "
    "200k-draw microbench put memo+intern at ~62ms vs ~37ms for fresh "
    "f-strings, so it is not a throughput lever and the engine was "
    "left unchanged."
)


def _experiment():
    board = build_leaderboard(run_parallel_workloads(SPECS, workers=1))
    board_parallel = build_leaderboard(
        run_parallel_workloads(SPECS, workers=PARALLEL_WORKERS)
    )
    smoke = workloads_smoke_baseline(workers=1)

    table = Table(
        f"E20: workload leaderboard ({len(SPECS)} workloads, "
        f"{MILLION} keys)",
        ["measure", "value"],
    )
    table.add("workloads", len(SPECS))
    table.add("categories", len(board["categories"]))
    table.add("key universe (per workload)", MILLION)
    table.add("total events", board["total_events"])
    table.add("payloads identical (1 vs "
              f"{PARALLEL_WORKERS} workers)",
              board == board_parallel)
    table.add("leaderboard fingerprint", board["fingerprint"])
    table.add("all mutually consistent", board["consistent"])

    payload = {
        "experiment": "E20",
        "smoke": BENCH_SMOKE,
        "key_universe": MILLION,
        "leaderboard": board,
        "identical_across_workers": board == board_parallel,
        "notes": {"interning": INTERNING_NOTES},
        "smoke_baseline": smoke,
    }
    return table, (board, board_parallel, payload)


def test_e20_workloads(benchmark):
    table, (board, board_parallel, payload) = run_once(
        benchmark, _experiment
    )
    leaderboard_text = render_text(payload["leaderboard"])
    save_tables("E20_workloads", [table])
    with open(RESULTS_DIR / "E20_workloads.txt", "a") as fh:
        fh.write("\n" + leaderboard_text + "\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_workloads.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    # worker independence: byte-identical leaderboards.
    assert leaderboard_json(board) == leaderboard_json(board_parallel)
    assert payload["identical_across_workers"]

    # every category converges to mutual consistency under skew.
    assert board["consistent"]
    assert len(board["categories"]) == 6

    # every category genuinely runs at million-key scale.
    assert all(
        row["spec"]["universe"] >= MILLION for row in board["rows"]
    )

    # the smoke baseline section is what the CI gate re-runs; it must
    # itself be consistent and cover every category.
    smoke = payload["smoke_baseline"]
    assert smoke["consistent"]
    assert smoke["categories"] == board["categories"]
