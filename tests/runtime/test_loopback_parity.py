"""Transcript parity: the protocol core cannot tell its adapters apart.

The same :class:`GossipService` (same seeds, same publishes) is driven
once through the simulator adapters (``Simulator`` + ``Network``) and
once through the in-memory asyncio adapters (``VirtualClock`` +
``LoopbackNet``).  If the port refactor really decoupled the protocol
from its environment, the two runs must emit *identical* protocol
transcripts — every SYN, ACK, DELTA and rumor, with identical payloads
(run-sets included), at identical virtual times, in identical order.
Hypothesis drives the schedule: any divergence over any workload is a
leak of environment detail into the protocol core.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.gossip import GossipConfig, GossipService
from repro.network import FixedDelay, Network
from repro.runtime.loopback import LoopbackNet, VirtualClock
from repro.sim import Simulator
from tests.helpers import attach_bare

N_NODES = 3


class RecordingTransport:
    """A Transport wrapper logging every protocol send."""

    def __init__(self, inner, clock):
        self.inner = inner
        self.clock = clock
        self.transcript = []

    def send(self, src, dst, payload):
        self.transcript.append((self.clock.now, src, dst, payload))
        return self.inner.send(src, dst, payload)

    def register(self, node_id, handler):
        self.inner.register(node_id, handler)

    @property
    def node_ids(self):
        return self.inner.node_ids


def drive(clock, transport, seed, publishes, until):
    """Run one gossip scenario; returns (transcript, delivered sets)."""
    recording = RecordingTransport(transport, clock)
    service = GossipService(
        clock,
        recording,
        GossipConfig(anti_entropy_interval=3.0),
        rng=random.Random(seed),
    )
    delivered = {i: [] for i in range(N_NODES)}
    for i in range(N_NODES):
        attach_bare(
            service, i, lambda key, item, n=i: delivered[n].append(key)
        )
    for at, node, key in publishes:
        clock.schedule(
            at, lambda n=node, k=key: service.publish(n, k, f"value-{k}")
        )
    service.start_anti_entropy()
    if isinstance(clock, Simulator):
        clock.run(until=until)
    else:
        clock.run_sync(until=until)
    return recording.transcript, delivered


publish_schedules = st.lists(
    st.tuples(
        st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
        st.integers(0, N_NODES - 1),
    ),
    min_size=1,
    max_size=6,
).map(
    lambda pairs: tuple(
        (at, node, i) for i, (at, node) in enumerate(pairs)
    )
)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16), publishes=publish_schedules)
def test_sim_and_loopback_transcripts_identical(seed, publishes):
    sim = Simulator()
    sim_net = Network(sim, delay=FixedDelay(1.0), rng=random.Random(seed))
    sim_transcript, sim_delivered = drive(
        sim, sim_net, seed, publishes, until=40.0
    )

    clock = VirtualClock()
    loop_net = LoopbackNet(clock, delay=1.0)
    loop_transcript, loop_delivered = drive(
        clock, loop_net, seed, publishes, until=40.0
    )

    assert sim_transcript == loop_transcript
    assert sim_delivered == loop_delivered
    # the scenario actually exercised the protocol.
    kinds = {payload[0] for _, _, _, payload in sim_transcript}
    assert "gossip_rumor" in kinds or "gossip_syn" in kinds


def test_transcripts_diverge_across_seeds():
    """Sanity: the comparison is not vacuous — different seeds change
    peer choices, so transcripts differ."""
    publishes = ((0.0, 0, 0), (1.0, 1, 1))
    sim_a = Simulator()
    transcript_a, _ = drive(
        sim_a,
        Network(sim_a, delay=FixedDelay(1.0), rng=random.Random(1)),
        seed=1, publishes=publishes, until=60.0,
    )
    sim_b = Simulator()
    transcript_b, _ = drive(
        sim_b,
        Network(sim_b, delay=FixedDelay(1.0), rng=random.Random(2)),
        seed=2, publishes=publishes, until=60.0,
    )
    assert transcript_a != transcript_b
