"""The consistency_* oracle family inside chaos campaigns and offline."""

from repro.apps.airline.state import AirlineState
from repro.apps.airline.transactions import MoveUp, Request
from repro.apps.airline.updates import MoveUpUpdate, RequestUpdate
from repro.chaos.faults import Crash, FaultPlan, Partition
from repro.chaos.harness import ChaosScenario, run_chaos
from repro.chaos.offline import OFFLINE_ORACLES, RecordedRun
from repro.chaos.oracles import (
    CONSISTENCY_ORACLES,
    ORACLES,
    OracleContext,
    run_oracles,
)
from repro.core.update import IDENTITY
from repro.replica.log import UpdateRecord
from repro.replica.timestamps import Timestamp

CONSISTENCY_SET = tuple(CONSISTENCY_ORACLES)


def record(txid, origin, txn, update, seen, at=None):
    return UpdateRecord(
        ts=Timestamp(txid, origin),
        txid=txid,
        transaction=txn,
        update=update,
        origin=origin,
        real_time=float(txid) if at is None else at,
        seen_txids=frozenset(seen),
    )


def ctx_for(records, expect_transitive=True, events=()):
    run = RecordedRun(
        AirlineState(), {0: tuple(records)}, tuple(events)
    )
    return OracleContext(
        cluster=run,
        plan=FaultPlan(()),
        capacity=3,
        execution=None,
        extract_error=None,
        expect_transitive=expect_transitive,
        movers_centralized=False,
        t_bound=float("inf"),
        events=tuple(events),
        records=run.records,
    )


class TestRegistration:
    def test_family_is_registered(self):
        for name in CONSISTENCY_SET:
            assert name in ORACLES

    def test_offline_set_includes_rc_ra_causal_not_prefix(self):
        assert "consistency_rc" in OFFLINE_ORACLES
        assert "consistency_ra" in OFFLINE_ORACLES
        assert "consistency_causal" in OFFLINE_ORACLES
        assert "consistency_prefix" not in OFFLINE_ORACLES


class TestDefaultGating:
    def stale_session_records(self):
        # same node, second decision misses the first: breaks every
        # model down to read committed.
        return [
            record(1, 0, Request("P"), RequestUpdate("P"), seen=()),
            record(
                2, 0, MoveUp(capacity=3), MoveUpUpdate("P"), seen=()
            ),
        ]

    def test_default_set_runs_rc_and_ra(self):
        violations = run_oracles(ctx_for(self.stale_session_records()))
        oracles = {v.oracle for v in violations}
        assert "consistency_rc" in oracles
        assert "consistency_ra" in oracles
        assert "consistency_prefix" not in oracles

    def test_causal_gated_on_expect_transitive(self):
        ctx = ctx_for(
            self.stale_session_records(), expect_transitive=False
        )
        defaults = {v.oracle for v in run_oracles(ctx)}
        assert "consistency_causal" not in defaults
        named = run_oracles(ctx, names=("consistency_causal",))
        assert [v.oracle for v in named] == ["consistency_causal"]

    def test_prefix_runs_only_when_named(self):
        ctx = ctx_for(self.stale_session_records())
        named = run_oracles(ctx, names=("consistency_prefix",))
        assert [v.oracle for v in named] == ["consistency_prefix"]

    def test_violation_carries_witness_details(self):
        (violation,) = run_oracles(
            ctx_for(self.stale_session_records()),
            names=("consistency_rc",),
        )
        assert violation.details["status"] == "violation"
        assert violation.details["cycle"]
        assert "read_committed" in violation.description

    def test_clean_records_produce_no_violations(self):
        records = [
            record(1, 0, Request("P"), RequestUpdate("P"), seen=()),
            record(2, 0, Request("Q"), RequestUpdate("Q"), seen=(1,)),
        ]
        assert run_oracles(ctx_for(records), names=CONSISTENCY_SET) == []

    def test_identity_only_history_is_trivially_consistent(self):
        records = [
            record(1, 0, MoveUp(capacity=3), IDENTITY, seen=()),
        ]
        assert run_oracles(ctx_for(records), names=CONSISTENCY_SET) == []


class TestLiveRuns:
    def test_healthy_run_passes_default_oracles(self):
        report = run_chaos(ChaosScenario(seed=11), FaultPlan(()))
        assert report.ok, [v.as_dict() for v in report.violations]

    def test_crash_with_volatile_loss_stays_clean_split_sessions(self):
        plan = FaultPlan((
            Crash(node=1, at=8.0, recover_at=14.0, lose_volatile=True),
        ))
        report = run_chaos(
            ChaosScenario(seed=5), plan, oracles=CONSISTENCY_SET
        )
        assert report.ok, [v.as_dict() for v in report.violations]

    def test_partition_separates_prefix_from_causal(self):
        """The E18 headline separation, pinned at fixed seeds: a healed
        partition yields non-prefix snapshots at some seed while causal
        consistency holds at every seed."""
        plan = FaultPlan((
            Partition(start=5.0, end=20.0, groups=((0,), (1, 2))),
        ))
        prefix_broke = 0
        for seed in range(12):
            report = run_chaos(
                ChaosScenario(seed=seed, delay="fixed"), plan,
                oracles=CONSISTENCY_SET,
            )
            oracles = {v.oracle for v in report.violations}
            assert "consistency_rc" not in oracles
            assert "consistency_ra" not in oracles
            assert "consistency_causal" not in oracles
            if "consistency_prefix" in oracles:
                prefix_broke += 1
        assert prefix_broke > 0

    def test_keep_cluster_attaches_cluster_without_serializing(self):
        report = run_chaos(
            ChaosScenario(seed=1), FaultPlan(()), keep_cluster=True
        )
        assert report.cluster is not None
        assert "cluster" not in report.as_dict()
        forgotten = run_chaos(ChaosScenario(seed=1), FaultPlan(()))
        assert forgotten.cluster is None
        # equality (and so determinism fingerprints) ignore the field.
        assert report.fingerprint == forgotten.fingerprint
