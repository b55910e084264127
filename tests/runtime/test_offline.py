"""Offline oracles: recorded histories convict or acquit a dead cluster."""

import dataclasses
import json
import random

from repro.apps.airline.state import AirlineState
from repro.chaos import offline as oracle_cli
from repro.chaos.offline import RecordedRun, check_recorded_run
from repro.apps.airline.transactions import Cancel, MoveUp, Request
from repro.shard.cluster import ClusterConfig, ShardCluster
from repro.runtime.history import HistoryWriter, dump_records


def healthy_logs(seed=0, n_ops=12):
    """Produce logs the honest way: run a simulated cluster to
    convergence and take each node's delivered records."""
    cluster = ShardCluster(
        AirlineState(), ClusterConfig(n_nodes=3, seed=seed)
    )
    rng = random.Random(seed)
    persons = [f"p{i}" for i in range(6)]
    for i in range(n_ops):
        person = rng.choice(persons)
        txn = rng.choice((
            Request(person), Cancel(person), MoveUp(capacity=3)
        ))
        cluster.submit(i % 3, txn, at=float(i))
    cluster.sim.run(until=200.0)
    assert cluster.converged()
    return {
        node.node_id: tuple(node.log) for node in cluster.nodes
    }


def forged_copy_logs(seen_txids, shift):
    """Healthy logs where node 2's copy of txid 3 is replaced by one
    with ``seen_txids`` (unless None) and ``real_time`` moved by
    ``shift``."""
    logs = healthy_logs()
    tampered = list(logs[2])
    (index,) = [i for i, r in enumerate(tampered) if r.txid == 3]
    victim = tampered[index]
    assert set(victim.seen_txids) == {0, 1}
    tampered[index] = dataclasses.replace(
        victim,
        seen_txids=victim.seen_txids if seen_txids is None else seen_txids,
        real_time=victim.real_time + shift,
    )
    logs[2] = tuple(tampered)
    return logs


class TestRecordedRun:
    def test_healthy_run_passes_every_offline_oracle(self):
        run = RecordedRun(AirlineState(), healthy_logs())
        violations, execution = check_recorded_run(run, capacity=3)
        assert violations == ()
        assert execution is not None and len(execution) > 0
        assert run.converged()
        assert run.mutually_consistent()

    def test_dropped_record_is_a_convergence_violation(self):
        logs = healthy_logs()
        logs[2] = logs[2][:-1]  # node 2 "lost" its last delivery
        run = RecordedRun(AirlineState(), logs)
        violations, _ = check_recorded_run(run, capacity=3)
        assert any(v.oracle == "convergence" for v in violations)
        assert run.missing_counts()[2] == 1

    def test_forged_update_is_a_conditions_violation(self):
        """Rewriting a shipped update so it no longer matches what the
        transaction decides over its recorded prefix must trip the
        conditions oracle (condition (2) re-derivation)."""
        logs = healthy_logs()
        tampered = list(logs[0])
        victim = next(
            i for i, r in enumerate(tampered)
            if r.transaction.name == "REQUEST"
        )
        other = next(
            r for r in tampered
            if r.transaction.name == "REQUEST"
            and r.update != tampered[victim].update
        )
        forged = dataclasses.replace(tampered[victim], update=other.update)
        tampered[victim] = forged
        run = RecordedRun(
            AirlineState(),
            {0: tuple(tampered), 1: tuple(tampered), 2: tuple(tampered)},
        )
        violations, execution = check_recorded_run(run, capacity=3)
        assert any(v.oracle == "conditions" for v in violations)
        assert execution is None

    def test_dangling_seen_txid_is_a_typed_conditions_violation(self):
        """A record naming a seen txid that no log carries is reported
        as a Section 3.1 extraction failure, not as a bare KeyError."""
        logs = healthy_logs()
        tampered = list(logs[0])
        victim = tampered[3]
        tampered[3] = dataclasses.replace(
            victim, seen_txids=victim.seen_txids | {1234}
        )
        run = RecordedRun(
            AirlineState(),
            {0: tuple(tampered), 1: tuple(tampered), 2: tuple(tampered)},
        )
        violations, execution = check_recorded_run(run, capacity=3)
        assert execution is None
        (violation,) = [v for v in violations if v.oracle == "conditions"]
        assert violation.details["error"] == (
            f"InvalidExecutionError: transaction {victim.txid} saw "
            "transaction 1234, which is not among the records"
        )

    def test_forged_copy_is_a_convergence_violation(self):
        """A node's copy of a record that differs from the others' --
        here node 2's txid 3 claims it saw {0} instead of {0, 1} and
        carries another real time -- is convicted by name, although
        node 2's log also extracts and validates on its own."""
        logs = forged_copy_logs(seen_txids=frozenset({0}), shift=5.0)
        run = RecordedRun(AirlineState(), logs)
        violations, _ = check_recorded_run(run, capacity=3)
        (violation,) = [v for v in violations if v.oracle == "convergence"]
        assert violation.details["at"] == (3,)
        assert "[3]" in violation.description
        assert run.disagreeing == (3,)
        assert not run.mutually_consistent()
        alone = RecordedRun(AirlineState(), {2: logs[2]})
        assert check_recorded_run(alone, capacity=3)[0] == ()

    def test_copy_differing_only_in_real_time_is_convicted(self):
        logs = forged_copy_logs(seen_txids=None, shift=0.5)
        run = RecordedRun(AirlineState(), logs)
        violations, _ = check_recorded_run(run, capacity=3)
        assert [v.oracle for v in violations] == ["convergence"]
        assert run.disagreeing == (3,)

    def test_all_records_dedupes_by_txid(self):
        logs = healthy_logs()
        run = RecordedRun(AirlineState(), logs)
        union = run.records
        assert len(union) == len({r.txid for r in union})
        assert len(union) == len(logs[0])


class TestOracleCli:
    def write_history(self, tmp_path, logs):
        for node_id, records in logs.items():
            dump_records(
                str(tmp_path / f"records-{node_id}.jsonl"), records
            )
        writer = HistoryWriter(str(tmp_path / "events-client.jsonl"))
        for record in sorted(logs[0], key=lambda r: r.ts):
            writer.record(
                record.real_time, "initiate", record.origin,
                txid=record.txid, family=record.transaction.name,
                seen=len(record.seen_txids),
            )
        writer.close()

    def test_cli_acquits_a_healthy_history(self, tmp_path, capsys):
        self.write_history(tmp_path, healthy_logs())
        code = oracle_cli.main(
            ["--history", str(tmp_path), "--capacity", "3",
             "--format", "json"]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["ok"] is True
        # campaign-report shape: a count plus the detailed list.
        assert report["violations"] == 0
        assert report["failures"] == []
        assert report["nodes"] == [0, 1, 2]
        # the consistency checkers are part of the offline default set.
        assert "consistency_rc" in report["oracles"]

    def test_cli_rejects_unknown_oracles(self, tmp_path, capsys):
        self.write_history(tmp_path, healthy_logs())
        code = oracle_cli.main(
            ["--history", str(tmp_path), "--oracles", "entropy"]
        )
        assert code == 2
        assert "unknown oracle" in capsys.readouterr().out

    def test_cli_runs_named_oracles_only(self, tmp_path, capsys):
        self.write_history(tmp_path, healthy_logs())
        code = oracle_cli.main(
            ["--history", str(tmp_path), "--capacity", "3",
             "--oracles", "consistency_rc,consistency_prefix",
             "--format", "json"]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["oracles"] == [
            "consistency_rc", "consistency_prefix"
        ]

    def test_cli_convicts_a_forged_copy(self, tmp_path, capsys):
        logs = forged_copy_logs(seen_txids=frozenset({0}), shift=5.0)
        self.write_history(tmp_path, logs)
        code = oracle_cli.main(
            ["--history", str(tmp_path), "--capacity", "3",
             "--format", "json"]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [f["oracle"] for f in report["failures"]] == ["convergence"]
        assert report["failures"][0]["details"] == {"at": "(3,)"}

    def test_cli_convicts_a_tampered_history(self, tmp_path, capsys):
        logs = healthy_logs()
        logs[1] = logs[1][:-2]
        self.write_history(tmp_path, logs)
        code = oracle_cli.main(
            ["--history", str(tmp_path), "--capacity", "3"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "convergence" in out
