"""E16 — deterministic parallel campaigns and the merge hot path.

Two claims, both exact counts (how long any of it takes is
``benchmarks/shardbench``'s measurement, not this experiment's):

* **worker independence** — the parallel campaign runner produces a
  byte-identical payload (and hence aggregate fingerprint) at
  ``workers=1`` and ``workers=N``: parallelism never changes results;
* **cost-cache effectiveness** — on E11's out-of-order merge regimes
  the incremental per-prefix constraint-cost cache avoids the great
  majority of cost re-evaluations (pooled hit rate > 80%), while the
  in-order regime rides the fast path and needs no cache at all.

Beyond the rendered table, the run emits machine-readable numbers —
including the ``smoke_baseline`` section the CI perf gate
(``python -m repro.perf.gate``) re-runs and compares — to
``benchmarks/results/BENCH_perf.json``.
"""

import json
import os

from common import RESULTS_DIR, run_once, save_tables

from repro.chaos.harness import ChaosScenario
from repro.harness import Table
from repro.perf import (
    DEFAULT_CELLS,
    campaign_json,
    run_parallel_campaign,
    run_parallel_cells,
    smoke_baseline,
)
from repro.perf.cells import aggregate_hit_rate

BENCH_SMOKE = bool(os.environ.get("BENCH_SMOKE"))
#: the headline campaign: 1,000 seeded chaos runs (smoke: 30).
CAMPAIGN_RUNS = 30 if BENCH_SMOKE else 1000
CAMPAIGN_SEED = 0
CAMPAIGN_SCENARIO = ChaosScenario(duration=8.0 if BENCH_SMOKE else 12.0)
PARALLEL_WORKERS = 2 if BENCH_SMOKE else 8
#: regimes where undo/redo (and hence the cache) does real work.
OUT_OF_ORDER = ("jittery", "partitioned")


def _campaign_pass(workers):
    return run_parallel_campaign(
        CAMPAIGN_SEED, CAMPAIGN_RUNS,
        workers=workers, scenario=CAMPAIGN_SCENARIO, shrink=False,
    )


def _experiment():
    serial = _campaign_pass(1)
    parallel = _campaign_pass(PARALLEL_WORKERS)

    cells = run_parallel_cells(DEFAULT_CELLS, workers=1)
    pooled_rate = aggregate_hit_rate(cells)
    out_of_order = [r for r in cells if r["regime"] in OUT_OF_ORDER]
    out_of_order_rate = aggregate_hit_rate(out_of_order)

    smoke = smoke_baseline(workers=1)

    table = Table(
        "E16: parallel campaign + merge hot path "
        f"({CAMPAIGN_RUNS} runs)",
        ["measure", "value"],
    )
    table.add("workers (parallel pass)", PARALLEL_WORKERS)
    table.add("payloads identical", serial == parallel)
    table.add("aggregate fingerprint", serial["aggregate_fingerprint"])
    table.add("campaign violations", serial["violations"])
    table.add("cost-cache hit rate (pooled)", round(pooled_rate, 4))
    table.add("cost-cache hit rate (out-of-order)",
              round(out_of_order_rate, 4))
    for row in cells:
        table.add(f"cell {row['cell']} hit rate", row["cost_hit_rate"])

    payload = {
        "experiment": "E16",
        "smoke": BENCH_SMOKE,
        "campaign": {
            "seed": CAMPAIGN_SEED,
            "runs": CAMPAIGN_RUNS,
            "scenario": CAMPAIGN_SCENARIO.as_dict(),
            "workers": PARALLEL_WORKERS,
            "identical_across_workers": serial == parallel,
            "aggregate_fingerprint": serial["aggregate_fingerprint"],
            "violations": serial["violations"],
        },
        "cells": cells,
        "cost_hit_rate": round(pooled_rate, 4),
        "cost_hit_rate_out_of_order": round(out_of_order_rate, 4),
        "smoke_baseline": smoke,
    }
    return table, (serial, parallel, payload)


def test_e16_perf_campaign(benchmark):
    table, (serial, parallel, payload) = run_once(benchmark, _experiment)
    save_tables("E16_perf_campaign", [table])
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_perf.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    # worker independence: byte-identical payloads, any worker count.
    assert campaign_json(serial) == campaign_json(parallel)
    assert payload["campaign"]["identical_across_workers"]

    # the healthy campaign passes every oracle.
    assert payload["campaign"]["violations"] == 0

    # cost cache: where undo/redo does real work the cache absorbs the
    # great majority of re-evaluations.
    assert payload["cost_hit_rate_out_of_order"] > 0.80
    cell = {r["regime"]: r for r in payload["cells"]}
    assert cell["jittery"]["cost_hit_rate"] > 0.80
    assert cell["partitioned"]["cost_hit_rate"] > 0.80
    # the in-order regime rides the fast path instead.
    assert cell["single-writer"]["fastpath_rate"] >= 0.95
