"""The airline spec the live cluster runs: draw-for-draw parity with the
hand-rolled split it replaced, and the demo's replay of its stream
against a (stubbed) cluster client."""

import asyncio
import random

from repro.apps.airline.transactions import Cancel, MoveDown, MoveUp, Request
from repro.runtime.clock import RuntimeClock, wall_epoch
from repro.runtime.client import NodeUnreachable
from repro.runtime.demo import _replay
from repro.workloads.stream import generate_stream
from repro.workloads.synth import make_synthesizer, uniform_airline_spec


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
    """The reference: the runtime's original hand-rolled airline
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


def spec_draws(rng, n, **knobs):
    synth = make_synthesizer(uniform_airline_spec(**knobs))
    return [synth(rng) for _ in range(n)]


class TestParity:
    def test_spec_mode_matches_legacy_draw_for_draw(self):
        assert hand_rolled_split(random.Random(7), 3000) == spec_draws(
            random.Random(7), 3000
        )

    def test_parity_across_knobs(self):
        for capacity, persons, mover_weight in [
            (2, 12, 0.4), (5, 3, 0.4), (1, 50, 0.4)
        ]:
            knobs = dict(
                capacity=capacity, persons=persons,
                mover_weight=mover_weight,
            )
            assert hand_rolled_split(
                random.Random(99), 1000, **knobs
            ) == spec_draws(random.Random(99), 1000, **knobs)

    def test_uniform_spec_weights_sum_to_exactly_one(self):
        # bit-exact parity hinges on ``roll * total == roll``; the
        # legacy split's weights must therefore sum to exactly 1.0.
        spec = uniform_airline_spec(mover_weight=0.4)
        assert sum(dict(spec.op_weights()).values()) == 1.0


def _stream(seed=21):
    return generate_stream(uniform_airline_spec(
        seed=seed, duration=0.2, rate=300.0, n_nodes=3,
    ))


class TestRun:
    def test_run_spreads_ops_and_counts_rejections(self):
        """The demo's replay spreads the stream over every node; submits
        to a dead node are counted as rejected and the replay goes on."""
        events = _stream(seed=3)
        client = _FakeClient(dead={1})
        submitted, rejected, _ = asyncio.run(_replay(client, events))
        assert submitted + rejected == len(events)
        assert rejected == sum(1 for e in events if e.node == 1) > 0
        assert submitted == len(client.submissions)
        assert {n for n, _ in client.submissions} == {0, 2}


class TestRunStream:
    def test_replays_the_spec_stream_in_order(self):
        """Every event goes, in stream order, to its own node, each no
        earlier than its due time."""
        events = _stream()
        client = _FakeClient()
        submitted, rejected, elapsed = asyncio.run(_replay(client, events))
        assert (submitted, rejected) == (len(events), 0)
        # the runtime saw exactly the simulator's event stream.
        assert client.submissions == [
            (client.spec.node_ids[e.node], e.transaction) for e in events
        ]
        # paced: the last submit waited for its due time.
        assert elapsed >= events[-1].time
