"""Specs across the process boundary; histories across the run boundary."""

import pytest

from repro.apps.airline.state import AirlineState
from repro.apps.airline.transactions import Request
from repro.chaos.faults import Crash, FaultPlan, Partition
from repro.replica import UpdateRecord
from repro.replica.timestamps import Timestamp
from repro.runtime.config import (
    ClusterSpec,
    NodeSpec,
    SEQ_SPACE,
    txid_origin,
)
from repro.runtime.history import (
    HistoryWriter,
    dump_records,
    load_history,
    load_records,
    merged_events,
    read_events,
)


def make_cluster_spec(**kwargs) -> ClusterSpec:
    defaults = dict(
        n_nodes=3, ports=(7001, 7002, 7003), epoch=1000.0, seed=7
    )
    defaults.update(kwargs)
    return ClusterSpec(**defaults)


class TestSpecs:
    def test_cluster_spec_roundtrips_with_plan(self):
        plan = FaultPlan((
            Partition(start=1.0, end=2.0, groups=((0,), (1, 2))),
            Crash(node=1, at=3.0, recover_at=4.0),
        ))
        spec = make_cluster_spec(plan_json=plan.to_json())
        again = ClusterSpec.from_json(spec.to_json())
        assert again == spec
        assert again.plan().to_json() == plan.to_json()

    def test_node_spec_roundtrips(self):
        spec = NodeSpec(
            cluster=make_cluster_spec(), node_id=2, incarnation=3
        )
        assert NodeSpec.from_json(spec.to_json()) == spec

    def test_ports_must_match_nodes(self):
        with pytest.raises(ValueError):
            make_cluster_spec(ports=(7001,))

    def test_txids_unique_across_nodes_incarnations_sequences(self):
        cluster = make_cluster_spec()
        txids = set()
        for node_id in range(cluster.n_nodes):
            for incarnation in range(3):
                spec = NodeSpec(cluster, node_id, incarnation)
                for seq in range(40):
                    txid = spec.txid(seq)
                    assert txid not in txids
                    txids.add(txid)

    def test_txids_monotone_in_sequence(self):
        spec = NodeSpec(make_cluster_spec(), 1, 1)
        assert spec.txid(5) < spec.txid(6)

    def test_txid_packing_decodes_back(self):
        spec = NodeSpec(make_cluster_spec(), 2, 5)
        assert txid_origin(spec.txid(9)) == (2, 5, 9)

    def test_one_incarnation_issues_consecutive_txids(self):
        spec = NodeSpec(make_cluster_spec(), 1, 2)
        assert spec.txid(6) == spec.txid(5) + 1
        assert txid_origin(spec.txid(SEQ_SPACE - 1)) == (1, 2, SEQ_SPACE - 1)

    def test_txid_rejects_a_sequence_past_its_space(self):
        spec = NodeSpec(make_cluster_spec(), 0, 0)
        with pytest.raises(ValueError):
            spec.txid(SEQ_SPACE)
        with pytest.raises(ValueError):
            spec.txid(-1)


class TestHistory:
    def test_events_roundtrip(self, tmp_path):
        path = str(tmp_path / "events-0.jsonl")
        writer = HistoryWriter(path)
        writer.record(1.0, "initiate", 0, txid=1, family="REQUEST", seen=0)
        writer.record(2.0, "deliver", 1, txid=1, origin=0)
        writer.record(3.0, "crash", 2)
        writer.close()
        events = read_events(path)
        assert [e.kind for e in events] == ["initiate", "deliver", "crash"]
        assert events[0].get("family") == "REQUEST"
        assert events[2].node == 2

    def test_writer_rejects_schema_drift(self, tmp_path):
        writer = HistoryWriter(str(tmp_path / "events-x.jsonl"))
        with pytest.raises(ValueError):
            writer.record(0.0, "no_such_kind", 0)
        with pytest.raises(ValueError):
            writer.record(0.0, "deliver", 0, wrong_key=1)
        writer.close()

    def test_merged_events_sort_by_time(self, tmp_path):
        a = HistoryWriter(str(tmp_path / "events-0.jsonl"))
        a.record(5.0, "crash", 0)
        a.close()
        b = HistoryWriter(str(tmp_path / "events-1.jsonl"))
        b.record(1.0, "recover", 1)
        b.close()
        merged = merged_events([
            str(tmp_path / "events-0.jsonl"),
            str(tmp_path / "events-1.jsonl"),
        ])
        assert [e.kind for e in merged] == ["recover", "crash"]

    def test_records_roundtrip_and_load_history(self, tmp_path):
        txn = Request("alice")
        record = UpdateRecord(
            ts=Timestamp(1, 0),
            txid=64,
            transaction=txn,
            update=txn.decide(AirlineState()).update,
            origin=0,
            real_time=0.5,
            seen_txids=frozenset(),
        )
        dump_records(str(tmp_path / "records-0.jsonl"), [record])
        writer = HistoryWriter(str(tmp_path / "events-0.jsonl"))
        writer.record(0.5, "initiate", 0, txid=64, family="REQUEST", seen=0)
        writer.close()
        events, logs = load_history(str(tmp_path))
        assert logs == {0: (record,)}
        assert load_records(str(tmp_path / "records-0.jsonl")) == (record,)
        assert len(events) == 1
