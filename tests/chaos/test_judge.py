"""One judge: a simulated run and its own recording get the same verdicts.

The simulator judges a run from the cluster (``cluster.records``, the
gossip service's convergence); :func:`check_recorded_run` judges it from
what the nodes' logs and the tracer recorded.  Both go through
:func:`repro.chaos.oracles.judge`, so over the offline oracle set they
must agree.  The plans have no ``lose_volatile`` crash: there,
``cluster.records`` keeps records that no node's log survived, by
design, and the two inputs differ.
"""

from repro.apps.airline.state import AirlineState
from repro.chaos.faults import Crash, FaultPlan, Partition
from repro.chaos.harness import ChaosScenario, run_chaos
from repro.chaos.offline import OFFLINE_ORACLES, RecordedRun, check_recorded_run

PLAN = FaultPlan((
    Partition(start=5.0, end=20.0, groups=((0,), (1, 2))),
    Crash(node=2, at=22.0, recover_at=26.0),
))


def verdicts(scenario):
    report = run_chaos(
        scenario, PLAN, oracles=OFFLINE_ORACLES, keep_cluster=True
    )
    cluster = report.cluster
    recorded = RecordedRun(
        AirlineState(),
        {node.node_id: tuple(node.log) for node in cluster.nodes},
        cluster.tracer.events,
    )
    offline, _ = check_recorded_run(
        recorded, capacity=scenario.capacity, names=OFFLINE_ORACLES
    )
    return (
        [v.as_dict() for v in report.violations],
        [v.as_dict() for v in offline],
    )


class TestSimAndOfflineAgree:
    def test_healthy_plan(self):
        sim, offline = verdicts(ChaosScenario(seed=3))
        assert sim == offline == []

    def test_intransitive_ablation_fails_transitivity_in_both(self):
        sim, offline = verdicts(
            ChaosScenario(seed=3, piggyback=False, delay="fixed")
        )
        assert sim == offline
        assert "transitivity" in {v["oracle"] for v in sim}
