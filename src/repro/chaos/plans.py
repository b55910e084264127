"""Seeded random fault-plan generation.

:func:`generate_plan` draws a small random plan from a seeded
``random.Random``: a mix of crashes (sometimes volatile-state-losing),
partitions, duplication/reordering windows, delay spikes and clock
skews, all confined to the front of the workload window so the run has
time to heal before quiescence.  Identical (rng state, scenario) pairs
yield identical plans — the campaign derives one rng per run index from
its master seed.
"""

from __future__ import annotations

import random
from typing import List

from .faults import (
    ClockSkew,
    Crash,
    DelaySpike,
    Duplicate,
    Fault,
    FaultPlan,
    Partition,
    Reorder,
)
from .harness import ChaosScenario

#: fault kinds by sampling weight: message faults and partitions are the
#: bread and butter, crashes common, skews occasional.
_KIND_WEIGHTS = (
    ("crash", 3),
    ("partition", 3),
    ("duplicate", 2),
    ("reorder", 2),
    ("delay_spike", 1),
    ("clock_skew", 1),
)

#: a generated plan holds between one and this many faults.
MAX_FAULTS = 4


def _pick_kind(rng: random.Random) -> str:
    total = sum(w for _, w in _KIND_WEIGHTS)
    roll = rng.randrange(total)
    for kind, weight in _KIND_WEIGHTS:
        roll -= weight
        if roll < 0:
            return kind
    raise AssertionError("unreachable")


def _window(rng: random.Random, duration: float) -> tuple:
    """A fault window starting in the front 60% of the run, short enough
    to heal well before the workload ends."""
    start = rng.uniform(0.0, 0.6 * duration)
    length = rng.uniform(0.1 * duration, 0.3 * duration)
    return start, start + length


def generate_plan(rng: random.Random, scenario: ChaosScenario) -> FaultPlan:
    """Draw a random plan of 1..MAX_FAULTS faults for ``scenario``."""
    n_nodes = scenario.n_nodes
    duration = scenario.duration
    faults: List[Fault] = []
    crashed_nodes: List[int] = []
    for _ in range(rng.randint(1, MAX_FAULTS)):
        kind = _pick_kind(rng)
        if kind == "crash":
            free = [n for n in range(n_nodes) if n not in crashed_nodes]
            if not free:
                continue  # one crash per node keeps windows disjoint
            node = rng.choice(free)
            crashed_nodes.append(node)
            start, end = _window(rng, duration)
            faults.append(Crash(
                node=node, at=start, recover_at=end,
                lose_volatile=rng.random() < 0.5,
            ))
        elif kind == "partition":
            victim = rng.randrange(n_nodes)
            rest = tuple(n for n in range(n_nodes) if n != victim)
            start, end = _window(rng, duration)
            faults.append(Partition(
                start=start, end=end, groups=((victim,), rest),
            ))
        elif kind == "duplicate":
            start, end = _window(rng, duration)
            faults.append(Duplicate(
                start=start, end=end,
                probability=rng.uniform(0.1, 0.5),
                lag=rng.uniform(0.5, 3.0),
            ))
        elif kind == "reorder":
            start, end = _window(rng, duration)
            faults.append(Reorder(
                start=start, end=end,
                probability=rng.uniform(0.1, 0.5),
                extra_delay=rng.uniform(1.0, 4.0),
            ))
        elif kind == "delay_spike":
            start, end = _window(rng, duration)
            faults.append(DelaySpike(
                start=start, end=end,
                extra_delay=rng.uniform(1.0, 4.0),
                src=rng.choice([None, rng.randrange(n_nodes)]),
            ))
        else:  # clock_skew
            faults.append(ClockSkew(
                node=rng.randrange(n_nodes),
                at=rng.uniform(0.0, 0.6 * duration),
                drift=rng.randint(1, 40),
            ))
    return FaultPlan(tuple(faults))
