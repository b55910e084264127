"""The spec-driven load generator: draw-for-draw parity with the
hand-rolled airline split it replaced, and stream replay against a
(stubbed) cluster client."""

import asyncio
import random

from repro.apps.airline.transactions import Cancel, MoveDown, MoveUp, Request
from repro.runtime.clock import RuntimeClock, wall_epoch
from repro.runtime.client import NodeUnreachable
from repro.runtime.loadgen import LoadGenerator
from repro.workloads.spec import WorkloadSpec
from repro.workloads.stream import generate_stream
from repro.workloads.synth import uniform_airline_spec


class _FakeSpec:
    node_ids = (0, 1, 2)


class _FakeClient:
    """Records submissions; one node can be marked dead."""

    def __init__(self, dead=()):
        self.spec = _FakeSpec()
        self.clock = RuntimeClock(epoch=wall_epoch(), scale=0.001)
        self.submissions = []
        self.dead = set(dead)
        self._txid = 0

    async def submit(self, node_id, transaction):
        if node_id in self.dead:
            raise NodeUnreachable(f"node {node_id} is down")
        self._txid += 1
        self.submissions.append((node_id, transaction))
        return self._txid


def hand_rolled_split(rng, n, capacity=2, persons=12, mover_weight=0.4):
    """The reference: the generator's original hand-rolled airline
    synthesis, which the ``uniform`` spec must reproduce draw for draw."""
    pool = [f"p{i}" for i in range(persons)]
    out = []
    for _ in range(n):
        roll = rng.random()
        if roll < mover_weight / 2:
            out.append(MoveUp(capacity))
        elif roll < mover_weight:
            out.append(MoveDown(capacity))
        else:
            person = rng.choice(pool)
            if roll < mover_weight + (1.0 - mover_weight) * 0.75:
                out.append(Request(person))
            else:
                out.append(Cancel(person))
    return out


class TestParity:
    def test_spec_mode_matches_legacy_draw_for_draw(self):
        spec_mode = LoadGenerator(client=None, rng=random.Random(7))
        assert hand_rolled_split(random.Random(7), 3000) == [
            spec_mode._next_transaction() for _ in range(3000)
        ]

    def test_parity_across_knobs(self):
        for capacity, persons, mover_weight in [
            (2, 12, 0.4), (5, 3, 0.4), (1, 50, 0.4)
        ]:
            spec_mode = LoadGenerator(
                client=None, rng=random.Random(99),
                capacity=capacity, persons=persons,
                mover_weight=mover_weight,
            )
            assert hand_rolled_split(
                random.Random(99), 1000,
                capacity=capacity, persons=persons,
                mover_weight=mover_weight,
            ) == [spec_mode._next_transaction() for _ in range(1000)]

    def test_uniform_spec_weights_sum_to_exactly_one(self):
        # bit-exact parity hinges on ``roll * total == roll``; the
        # legacy split's weights must therefore sum to exactly 1.0.
        spec = uniform_airline_spec(mover_weight=0.4)
        assert sum(dict(spec.op_weights()).values()) == 1.0


class TestRun:
    def test_run_spreads_ops_and_counts_rejections(self):
        client = _FakeClient(dead={1})
        generator = LoadGenerator(client=client, rng=random.Random(3))
        stats = asyncio.run(generator.run(60))
        assert stats.submitted + stats.rejected == 60
        assert stats.rejected > 0  # node 1 is dead and gets picked
        assert len(stats.txids) == stats.submitted
        assert {n for n, _ in client.submissions} <= {0, 2}


class TestRunStream:
    def test_replays_the_spec_stream_in_order(self):
        spec = WorkloadSpec(
            name="stream-replay", category="airline", seed=21,
            duration=10.0, rate=5.0, universe=1000, zipf=1.1, n_nodes=3,
        )
        client = _FakeClient()
        generator = LoadGenerator(
            client=client, rng=random.Random(0), spec=spec
        )
        stats = asyncio.run(generator.run_stream(time_scale=10_000.0))
        events = generate_stream(spec)
        assert stats.submitted == len(events)
        assert stats.rejected == 0
        # the runtime saw exactly the simulator's event stream.
        assert [txn for _, txn in client.submissions] == [
            e.transaction for e in events
        ]
        assert [n for n, _ in client.submissions] == [
            client.spec.node_ids[e.node % 3] for e in events
        ]

    def test_time_scale_must_be_positive(self):
        generator = LoadGenerator(
            client=_FakeClient(), rng=random.Random(0)
        )
        try:
            asyncio.run(generator.run_stream(time_scale=0.0))
        except ValueError as exc:
            assert "time_scale" in str(exc)
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")
