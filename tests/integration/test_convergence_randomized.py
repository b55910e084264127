"""Randomized convergence tests: eventual delivery and mutual consistency
survive arbitrary partition schedules, message loss, and crashes.

These are the "barring permanent communication failures, every node will
eventually receive information about every transaction" and "they will
agree on the result of merging identical sets of transactions" claims of
Section 1.2, stress-tested over seeded random failure schedules.
"""

import random

import pytest

from repro.apps.airline import AirlineState, Cancel, MoveDown, MoveUp, Request
from repro.gossip import GossipConfig
from repro.network import PartitionSchedule, UniformDelay
from repro.shard import ClusterConfig, ShardCluster


def random_partition_schedule(rng, n_nodes, horizon):
    """A random pile of overlapping partition intervals."""
    schedule = PartitionSchedule()
    for _ in range(rng.randint(0, 4)):
        start = rng.uniform(0, horizon * 0.7)
        end = start + rng.uniform(1, horizon * 0.3)
        nodes = list(range(n_nodes))
        rng.shuffle(nodes)
        cut = rng.randint(1, n_nodes - 1)
        schedule.add(start, end, nodes[:cut], nodes[cut:])
    return schedule


def random_workload(cluster, rng, horizon, n_nodes):
    person = 0
    known_people = []
    t = 0.0
    while t < horizon:
        t += rng.expovariate(1.0)
        node = rng.randrange(n_nodes)
        roll = rng.random()
        if roll < 0.5 or not known_people:
            person += 1
            known_people.append(f"P{person}")
            cluster.submit(node, Request(known_people[-1]), at=t)
        elif roll < 0.65:
            cluster.submit(node, Cancel(rng.choice(known_people)), at=t)
        elif roll < 0.85:
            cluster.submit(node, MoveUp(5), at=t)
        else:
            cluster.submit(node, MoveDown(5), at=t)


@pytest.mark.parametrize("seed", range(8))
def test_convergence_under_random_partitions(seed):
    rng = random.Random(seed)
    n_nodes = rng.randint(2, 5)
    horizon = 50.0
    cluster = ShardCluster(
        AirlineState(),
        ClusterConfig(
            n_nodes=n_nodes,
            seed=seed,
            delay=UniformDelay(0.1, 2.0),
            partitions=random_partition_schedule(rng, n_nodes, horizon),
            loss_probability=rng.choice([0.0, 0.1, 0.3]),
        ),
    )
    random_workload(cluster, rng, horizon, n_nodes)
    cluster.run(until=horizon)
    cluster.quiesce()
    assert cluster.converged()
    assert cluster.mutually_consistent()
    states = cluster.states
    assert all(s == states[0] for s in states)
    execution = cluster.extract_execution()
    execution.validate()
    assert execution.final_state == states[0]


@pytest.mark.parametrize("seed", range(4))
def test_convergence_with_crashes(seed):
    rng = random.Random(100 + seed)
    cluster = ShardCluster(
        AirlineState(),
        ClusterConfig(n_nodes=3, seed=seed, delay=UniformDelay(0.1, 1.0)),
    )
    # two random crash windows.
    for _ in range(2):
        node = rng.randrange(3)
        start = rng.uniform(1, 25)
        cluster.schedule_crash(node, start, start + rng.uniform(2, 15))
    random_workload(cluster, rng, 40.0, 3)
    cluster.run(until=60.0)
    cluster.quiesce()
    assert cluster.converged()
    assert cluster.mutually_consistent()
    cluster.extract_execution().validate()


@pytest.mark.parametrize("seed", range(4))
def test_gossip_only_convergence(seed):
    """No flooding at all: anti-entropy alone must still converge."""
    rng = random.Random(200 + seed)
    cluster = ShardCluster(
        AirlineState(),
        ClusterConfig(
            n_nodes=4,
            seed=seed,
            broadcast=GossipConfig(flood=False, anti_entropy_interval=2.0),
        ),
    )
    random_workload(cluster, rng, 30.0, 4)
    cluster.run(until=80.0)
    cluster.quiesce()
    assert cluster.converged()
    assert cluster.mutually_consistent()
