"""E11 — undo/redo merge cost (Sections 1.2, 3.3; [BK], [SKS]).

SHARD's only inter-node concurrency control is undo/redo: replicas insert
arriving updates into timestamp order and recompute the suffix.  This
bench runs identical workloads (decisions and messages are byte-identical
across engines) and compares the number of update applications performed
by:

* the naive engine (recompute the full log on every insert — the spec);
* the suffix engine ([BK]'s optimization: work ∝ how far out of order
  the message was);
* the checkpoint engine ([SKS]'s storage/recompute tradeoff);
* the replica layer's bounded-memory policies (geometric ladder,
  tail window, adaptive window), which keep suffix-like redo cost at
  O(interval) snapshots instead of one snapshot per log position.

Claims: all engines agree on every state (mutual consistency), the
suffix engine does dramatically less work than naive, out-of-order
pressure (delay spread, partitions) increases redo work, the tail-window
replica holds a bounded number of snapshots while applying no more
updates than the seed checkpoint engine, and in-order-ish traffic rides
the tail fast path for ≥ 95% of inserts.

Beyond the rendered table, the run emits machine-readable per-engine
stats (peak snapshot count, fast-path hit rate, ...) to
``benchmarks/results/BENCH_undo_redo.json``.
"""

import json
import math

from common import RESULTS_DIR, run_once, save_tables

from repro.apps.airline.simulation import AirlineScenario, run_airline_scenario
from repro.harness import Table
from repro.network import PartitionSchedule, UniformDelay
from repro.replica import (
    AdaptiveWindowPolicy,
    EveryPositionPolicy,
    FixedIntervalPolicy,
    GeometricPolicy,
    InitialOnlyPolicy,
    TailWindowPolicy,
    policy_engine_factory,
)

CAPACITY = 10
WINDOW = 16
ENGINES = (
    ("naive", policy_engine_factory(InitialOnlyPolicy, fast_path=False)),
    ("suffix", policy_engine_factory(EveryPositionPolicy)),
    (
        "checkpoint-16",
        policy_engine_factory(
            lambda: FixedIntervalPolicy(WINDOW), fast_path=False
        ),
    ),
    (
        "tail-window-16",
        policy_engine_factory(lambda: TailWindowPolicy(WINDOW)),
    ),
    ("geometric", policy_engine_factory(GeometricPolicy)),
    (
        "adaptive",
        policy_engine_factory(
            lambda: AdaptiveWindowPolicy(
                initial_window=WINDOW, min_window=4, max_window=256
            )
        ),
    ),
)
#: (name, delay, partitions, scenario overrides).  "single-writer" is the
#: paper's centralized regime: every transaction initiates at node 0, so
#: remote deliveries arrive in timestamp order — the in-order workload
#: the tail fast path is built for.
REGIMES = (
    (
        "single-writer (delay 0.005-0.02)",
        UniformDelay(0.005, 0.02),
        None,
        {"request_nodes": [0], "mover_nodes": [0]},
    ),
    ("in-order-ish (delay 0.1-0.3)", UniformDelay(0.1, 0.3), None, {}),
    ("jittery (delay 0.1-5.0)", UniformDelay(0.1, 5.0), None, {}),
    (
        "partitioned 30s",
        UniformDelay(0.1, 0.3),
        PartitionSchedule.split(10, 40, [0], [1, 2]),
        {},
    ),
)
SEQUENTIAL = REGIMES[0][0]
IN_ORDER = REGIMES[1][0]


def _run(factory, delay, partitions, overrides):
    return run_airline_scenario(
        AirlineScenario(
            capacity=CAPACITY,
            n_nodes=3,
            duration=60,
            seed=5,
            request_rate=2.0,
            delay=delay,
            partitions=partitions,
            merge_factory=factory,
            **overrides,
        )
    )


def _experiment():
    table = Table(
        "E11: updates applied during merging, by engine and regime",
        ["regime", "engine", "log length", "updates applied",
         "x naive", "peak snapshots", "fastpath %"],
    )
    rows = []
    states = {}
    for regime_name, delay, partitions, overrides in REGIMES:
        naive_total = None
        for engine_name, factory in ENGINES:
            run = _run(factory, delay, partitions, overrides)
            stats = [node.merge.stats for node in run.cluster.nodes]
            total = sum(s.updates_applied for s in stats)
            inserts = sum(s.inserts for s in stats)
            fastpath = sum(s.fastpath_hits for s in stats)
            rate = fastpath / inserts if inserts else 0.0
            peak = max(s.snapshots_held for s in stats)
            log_len = len(run.execution)
            if engine_name == "naive":
                naive_total = total
            ratio = total / naive_total if naive_total else 0.0
            table.add(regime_name, engine_name, log_len, total,
                      round(ratio, 3), peak, round(100 * rate, 1))
            rows.append({
                "regime": regime_name,
                "engine": engine_name,
                "log_length": log_len,
                "inserts": inserts,
                "updates_applied": total,
                "vs_naive": round(ratio, 4),
                "peak_snapshots": peak,
                "fastpath_hits": fastpath,
                "fastpath_rate": round(rate, 4),
                "undo_redo_merges": sum(s.undo_redo_merges for s in stats),
                "max_displacement": max(s.max_displacement for s in stats),
            })
            states[(regime_name, engine_name)] = run.final_state
    return table, (rows, states)


def test_e11_undo_redo(benchmark):
    table, (rows, states) = run_once(benchmark, _experiment)
    save_tables("E11_undo_redo", [table])
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_undo_redo.json").write_text(
        json.dumps({"experiment": "E11", "window": WINDOW, "rows": rows},
                   indent=2) + "\n"
    )
    cell = {(r["regime"], r["engine"]): r for r in rows}
    work = {k: r["updates_applied"] for k, r in cell.items()}
    for regime_name, _, _, _ in REGIMES:
        # all engines compute identical final states.
        reference = states[(regime_name, "naive")]
        for engine_name, _ in ENGINES:
            assert states[(regime_name, engine_name)] == reference
        # the suffix engine beats naive recomputation by a wide margin.
        assert work[(regime_name, "suffix")] < work[(regime_name, "naive")] / 5
        # checkpointing sits in between (or better than naive, at least).
        assert work[(regime_name, "checkpoint-16")] < work[(regime_name, "naive")]
        # bounded-memory replicas: suffix-like redo cost at O(window)
        # snapshots — no worse than the seed checkpoint engine on work,
        # while the seed suffix engine holds one snapshot per position.
        bounded = cell[(regime_name, "tail-window-16")]
        budget = WINDOW + math.log2(max(bounded["log_length"], 2)) + 3
        assert bounded["peak_snapshots"] <= budget
        assert bounded["updates_applied"] <= work[(regime_name, "checkpoint-16")]
        assert (
            cell[(regime_name, "suffix")]["peak_snapshots"]
            > bounded["peak_snapshots"]
        )
    # in-order traffic rides the tail fast path almost always.
    for engine_name in ("suffix", "tail-window-16", "geometric", "adaptive"):
        assert cell[(SEQUENTIAL, engine_name)]["fastpath_rate"] >= 0.95
    # out-of-order pressure increases suffix redo work.
    assert (
        work[("jittery (delay 0.1-5.0)", "suffix")]
        > work[(IN_ORDER, "suffix")]
    )
