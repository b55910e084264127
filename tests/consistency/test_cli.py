"""``python -m repro.consistency``: exit codes, reporters, both inputs."""

import json
import random

from repro.apps.airline.state import AirlineState
from repro.apps.airline.transactions import Cancel, MoveUp, Request
from repro.consistency import History, HTransaction
from repro.consistency.cli import main
from repro.runtime.history import HistoryWriter, dump_records
from repro.shard.cluster import ClusterConfig, ShardCluster
from tests.runtime import test_offline


def write_history_dir(tmp_path, seed=0, n_ops=12):
    cluster = ShardCluster(
        AirlineState(), ClusterConfig(n_nodes=3, seed=seed)
    )
    rng = random.Random(seed)
    persons = [f"p{i}" for i in range(5)]
    for i in range(n_ops):
        person = rng.choice(persons)
        txn = rng.choice((
            Request(person), Cancel(person), MoveUp(capacity=3)
        ))
        cluster.submit(i % 3, txn, at=float(i))
    cluster.sim.run(until=200.0)
    assert cluster.converged()
    for node in cluster.nodes:
        dump_records(
            str(tmp_path / f"records-{node.node_id}.jsonl"),
            tuple(node.log),
        )
    writer = HistoryWriter(str(tmp_path / "events-client.jsonl"))
    for record in sorted(cluster.records.values(), key=lambda r: r.ts):
        writer.record(
            record.real_time, "initiate", record.origin,
            txid=record.txid, family=record.transaction.name,
            seen=len(record.seen_txids),
        )
    writer.close()
    return cluster


class TestHistoryDirMode:
    def test_healthy_directory_exits_zero(self, tmp_path, capsys):
        write_history_dir(tmp_path)
        code = main(["--history", str(tmp_path), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["ok"] is True
        assert report["violations"] == 0
        assert set(report["models"]) == {
            "read_committed", "read_atomic", "causal", "prefix",
        }
        assert all(
            v["status"] == "ok" for v in report["models"].values()
        )
        assert report["transactions"] > 0

    def test_text_reporter_prints_verdict_lines(self, tmp_path, capsys):
        write_history_dir(tmp_path)
        code = main(["--history", str(tmp_path), "--models", "rc,ra"])
        out = capsys.readouterr().out
        assert code == 0
        assert "read_committed: ok" in out
        assert "read_atomic: ok" in out
        assert "ok" in out.splitlines()[-1]

    def test_ok_verdicts_name_the_timestamp_order_witness(
        self, tmp_path, capsys
    ):
        write_history_dir(tmp_path)
        main(["--history", str(tmp_path), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        for model in ("read_committed", "read_atomic", "causal"):
            assert report["models"][model]["stats"] == {
                "witness": "timestamp order"
            }
        assert "failures" not in report

    def test_forged_copy_is_a_typed_failure(self, tmp_path, capsys):
        """Node 2's copy of txid 3 saw ``{0}`` where the others saw
        ``{0, 1}``: the union passes every model, but the copies
        disagree, and that alone fails the run."""
        test_offline.TestOracleCli().write_history(
            tmp_path,
            test_offline.forged_copy_logs(
                seen_txids=frozenset({0}), shift=5.0
            ),
        )
        code = main(["--history", str(tmp_path), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["ok"] is False
        assert all(v["ok"] for v in report["models"].values())
        assert report["violations"] == 1
        (failure,) = report["failures"]
        assert failure["check"] == "copies"
        assert failure["txids"] == [3]
        code = main(["--history", str(tmp_path), "--models", "rc"])
        assert code == 1
        out = capsys.readouterr().out.splitlines()
        assert out[-2].startswith("copies: ")
        assert out[-1] == "copies failed"

    def test_missing_directory_exits_two(self, tmp_path, capsys):
        code = main(["--history", str(tmp_path / "nope")])
        assert code == 2
        assert "error" in capsys.readouterr().out

    def test_empty_directory_exits_two(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        code = main(["--history", str(tmp_path / "empty")])
        assert code == 2


class TestHistoryFileMode:
    def test_violating_file_exits_one_with_witness(self, tmp_path, capsys):
        h = History([
            HTransaction(1, "a", reads=(), writes=("x",)),
            HTransaction(2, "a", reads=(("x", None),), writes=()),
        ])
        path = tmp_path / "history.json"
        path.write_text(h.to_json(), encoding="utf-8")
        code = main(["--file", str(path), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["ok"] is False
        assert report["violations"] == 4  # every model rejects
        witness = report["models"]["read_committed"]["witness"]
        assert witness["kind"] == "cycle"
        assert witness["edges"]

    def test_unknown_model_exits_two(self, tmp_path, capsys):
        path = tmp_path / "history.json"
        path.write_text(
            History([HTransaction(1, "a")]).to_json(), encoding="utf-8"
        )
        code = main(["--file", str(path), "--models", "serializable"])
        assert code == 2
        assert "unknown consistency model" in capsys.readouterr().out

    def test_corrupt_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code = main(["--file", str(path)])
        assert code == 2

    def test_a_checker_that_raises_exits_two_without_a_traceback(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.consistency.prefix as prefix

        def broken(history, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(prefix, "check_prefix", broken)
        path = tmp_path / "history.json"
        path.write_text(
            History([HTransaction(1, "a", writes=("x",))]).to_json(),
            encoding="utf-8",
        )
        code = main(["--file", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out.splitlines()[-1] == (
            "error: prefix check failed: RecursionError: maximum recursion "
            "depth exceeded"
        )
        assert "Traceback" not in captured.out + captured.err
