"""E10 — the "continuous flavor" and the deferred probabilistic analysis.

The paper's closing claim: "small changes in available information lead
to small perturbations in correctness conditions" — in contrast to
serializability's all-or-nothing character.  Two experiments:

* **continuity sweep** — degrade the information regime gradually
  (anti-entropy interval with flooding off) and measure both the realized
  deficit k* of the MOVE_UPs and the worst overbooking cost: cost moves
  gradually with information, and every run respects 900·k*;
* **part (2) of Section 1.3** — across many seeds, form the empirical
  distribution of k* and compose it with the conditional bound to produce
  statements of the paper's desired form "with probability p, the cost
  remains at most c";
* **bandwidth/delay frontier** — the same interval sweep under full-set
  vs delta anti-entropy: the delivered-delay distribution each regime
  buys and the modeled bytes it costs, quantifying what delta
  reconciliation saves at every point of the continuity curve.
"""

from contextlib import nullcontext

from common import run_once, save_tables
from fullset import full_set_gossip

from repro.analysis import (
    CalibrationPoint,
    KDistribution,
    compose,
    verify_conditional,
)
from repro.apps.airline import make_airline_application, overbooking_bound
from repro.apps.airline.simulation import AirlineScenario, run_airline_scenario
from repro.gossip import GossipConfig
from repro.harness import Table
from repro.sim.metrics import Summary

CAPACITY = 10
INTERVALS = (0.5, 2.0, 8.0, 20.0)
SEEDS = range(8)
#: seeds for the (more expensive) full-vs-delta frontier sweep.
WIRE_SEEDS = range(3)


def _run(seed, interval, mode="delta"):
    """``mode`` "full" runs the whole-set reference arm
    (benchmarks/fullset.py) instead of the production delta gossip."""
    with full_set_gossip() if mode == "full" else nullcontext():
        return run_airline_scenario(
            AirlineScenario(
                capacity=CAPACITY,
                n_nodes=3,
                duration=60,
                seed=seed,
                request_rate=1.5,
                broadcast=GossipConfig(
                    flood=False, anti_entropy_interval=interval
                ),
            )
        )


def _mover_k(execution):
    return max(
        (execution.deficit(i) for i in execution.indices
         if execution.transactions[i].name == "MOVE_UP"),
        default=0,
    )


def _experiment():
    app = make_airline_application(capacity=CAPACITY)
    bound = overbooking_bound()

    t1 = Table(
        "E10a: continuity — cost tracks information (gossip interval sweep)",
        ["gossip interval (s)", "mean mover k*", "max mover k*",
         "worst overbooking ($)", "900k* respected"],
    )
    points_by_interval = {}
    for interval in INTERVALS:
        points = []
        for seed in SEEDS:
            run = _run(seed, interval)
            e = run.execution
            k_star = _mover_k(e)
            worst = max(app.cost(s, "overbooking") for s in e.actual_states)
            points.append(CalibrationPoint(k_star, worst))
        points_by_interval[interval] = points
        mean_k = sum(p.k_star for p in points) / len(points)
        max_k = max(p.k_star for p in points)
        worst_cost = max(p.max_cost for p in points)
        t1.add(interval, round(mean_k, 1), max_k, worst_cost,
               verify_conditional(points, bound))

    # part (2): empirical P(k* <= k) at the middling regime, composed
    # with the conditional bound.
    calibration = points_by_interval[INTERVALS[2]]
    dist = KDistribution(tuple(p.k_star for p in calibration))
    t2 = Table(
        "E10b: probabilistic composition, gossip interval "
        f"{INTERVALS[2]}s ({len(SEEDS)} runs)",
        ["k", "P(k* <= k)", "=> P(overbooking <= $)"],
    )
    for pb in compose(dist, bound):
        t2.add(pb.k, round(pb.probability, 3), pb.cost_limit)

    # the same composition with the Theorem 20 witness-refined k* — the
    # paper's own remedy for the plain bound's looseness.
    from repro.analysis import refined_deficits

    refined_samples = []
    refined_points = []
    for seed in SEEDS:
        run = _run(seed, INTERVALS[2])
        refined = refined_deficits(run.execution)
        movers = [
            i for i in run.execution.indices
            if run.execution.transactions[i].name == "MOVE_UP"
        ]
        k_ref = max((refined.overbooking[i] for i in movers), default=0)
        worst = max(
            app.cost(s, "overbooking")
            for s in run.execution.actual_states
        )
        refined_samples.append(k_ref)
        refined_points.append(CalibrationPoint(k_ref, worst))
    refined_dist = KDistribution(tuple(refined_samples))
    t3 = Table(
        "E10c: same composition with Theorem 20's refined k*",
        ["refined k", "P(k* <= k)", "=> P(overbooking <= $)"],
    )
    for pb in compose(refined_dist, bound):
        t3.add(pb.k, round(pb.probability, 3), pb.cost_limit)

    return (t1, t2, t3), (points_by_interval, refined_points)


def _wire_experiment():
    """E10d: every point of the continuity curve, priced in bytes — the
    delivered-delay distribution each gossip interval buys, under
    full-set versus delta anti-entropy."""
    table = Table(
        "E10d: bandwidth/delay frontier — full-set vs delta anti-entropy"
        f" ({len(WIRE_SEEDS)} seeds per cell)",
        ["gossip interval (s)", "mode", "item copies", "wire bytes",
         "delay p50", "delay p95"],
    )
    totals = {}
    for interval in INTERVALS:
        for mode in ("full", "delta"):
            copies = 0
            wire_bytes = 0
            delays = []
            for seed in WIRE_SEEDS:
                run = _run(seed, interval, mode=mode)
                cluster = run.cluster
                assert cluster.converged()
                assert cluster.mutually_consistent()
                stats = cluster.broadcast.stats
                copies += stats.items_carried
                wire_bytes += stats.wire.bytes
                delays.extend(stats.delivery_delays)
            summary = Summary.of(delays)
            totals[(interval, mode)] = (copies, wire_bytes)
            table.add(interval, mode, copies, wire_bytes,
                      round(summary.p50, 3), round(summary.p95, 3))
    return table, totals


def test_e10d_wire_frontier(benchmark):
    table, totals = run_once(benchmark, _wire_experiment)
    save_tables("E10d_wire_frontier", [table])
    for interval in INTERVALS:
        full_copies, full_bytes = totals[(interval, "full")]
        delta_copies, delta_bytes = totals[(interval, "delta")]
        # delta reconciliation is cheaper at EVERY information regime:
        # the continuity curve keeps its shape, the price tag shrinks.
        assert delta_copies < full_copies, (interval, totals)
        assert delta_bytes < full_bytes, (interval, totals)


def test_e10_continuity(benchmark):
    tables, (points_by_interval, refined_points) = run_once(
        benchmark, _experiment
    )
    save_tables("E10_continuity", list(tables))
    bound = overbooking_bound()
    # the conditional theorem leaves an empirical footprint on EVERY run.
    for points in points_by_interval.values():
        assert verify_conditional(points, bound)
    # the refined-k conditional holds too, and is much tighter.
    assert verify_conditional(refined_points, bound)
    plain_max = max(
        p.k_star for p in points_by_interval[INTERVALS[2]]
    )
    refined_max = max(p.k_star for p in refined_points)
    assert refined_max < plain_max
    # continuity: information deficit grows with the gossip interval.
    mean_k = {
        interval: sum(p.k_star for p in pts) / len(pts)
        for interval, pts in points_by_interval.items()
    }
    assert mean_k[INTERVALS[0]] < mean_k[INTERVALS[-1]]
