"""Time-series metrics, summary statistics and wire accounting for runs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

#: Abstract per-unit wire costs used by the bytes-on-wire accounting.
#: The simulation never serializes payloads, so bandwidth is modeled as a
#: weighted sum of what a message carries: full update records dominate
#: (a transaction, its update, its seen-set), bare keys are an order of
#: magnitude cheaper, summaries sit in between.  A run-set (an
#: anti-entropy SYN, ACK or want, a sync pull) costs one key per run
#: bound: its bounds are ints like any other key.  The *ratios* are what
#: the gossip benchmarks compare; the absolute scale is nominal "bytes".
WIRE_COSTS: Dict[str, int] = {
    "message": 16,   # fixed header per message
    "record": 128,   # one full update record
    "key": 8,        # one bare item key (txid) or run bound
    "summary": 24,   # one cached-summary triple (partial replication)
}


@dataclass
class WireStats:
    """Counts of what crossed the (simulated) wire, by payload unit.

    Every dissemination message is accounted here, so runs with
    different protocols or settings are comparable on one axis: modeled
    bytes shipped."""

    messages: int = 0
    records: int = 0
    keys: int = 0
    summaries: int = 0
    #: extra copies materialized by chaos duplication faults.  The
    #: transport seam does not know a copy's payload composition, so a
    #: duplicate is charged one message *header* only — the accounted
    #: bytes are a lower bound when duplication is active, and a nonzero
    #: count flags a bench as fault-perturbed.
    dup_messages: int = 0
    #: deliveries reordered by chaos faults.  Reordering ships no extra
    #: bytes; the counter only marks the run as perturbed.
    reorders: int = 0

    def duplicate(self) -> None:
        """Account one fault-injected duplicate message copy."""
        self.dup_messages += 1

    def reorder(self) -> None:
        """Account one fault-injected delivery reordering."""
        self.reorders += 1

    def message(
        self,
        records: int = 0,
        keys: int = 0,
        summaries: int = 0,
    ) -> None:
        """Account one sent message and its payload units."""
        self.messages += 1
        self.records += records
        self.keys += keys
        self.summaries += summaries

    @property
    def bytes(self) -> int:
        """Modeled bytes on the wire under :data:`WIRE_COSTS`."""
        return (
            self.messages * WIRE_COSTS["message"]
            + self.records * WIRE_COSTS["record"]
            + self.keys * WIRE_COSTS["key"]
            + self.summaries * WIRE_COSTS["summary"]
            + self.dup_messages * WIRE_COSTS["message"]
        )

    def as_dict(self) -> Dict[str, int]:
        return {
            "messages": self.messages,
            "records": self.records,
            "keys": self.keys,
            "summaries": self.summaries,
            "dup_messages": self.dup_messages,
            "reorders": self.reorders,
            "bytes": self.bytes,
        }


@dataclass
class TimeSeries:
    """A piecewise-constant time series of (time, value) samples."""

    name: str
    samples: List[Tuple[float, float]] = field(default_factory=list)

    def record(self, time: float, value: float) -> None:
        if self.samples and time < self.samples[-1][0]:
            raise ValueError("samples must be recorded in time order")
        self.samples.append((time, value))

    @property
    def values(self) -> List[float]:
        return [v for _, v in self.samples]

    @property
    def times(self) -> List[float]:
        return [t for t, _ in self.samples]

    def max(self) -> float:
        return max(self.values, default=0.0)

    def final(self) -> float:
        return self.samples[-1][1] if self.samples else 0.0

    def time_average(self) -> float:
        """Average weighted by the holding time of each sample."""
        if len(self.samples) < 2:
            return self.final()
        total = 0.0
        for (t0, v), (t1, _) in zip(self.samples, self.samples[1:]):
            total += v * (t1 - t0)
        span = self.samples[-1][0] - self.samples[0][0]
        return total / span if span > 0 else self.final()

    def fraction_above(self, threshold: float) -> float:
        """Fraction of (holding-time-weighted) time spent above a level."""
        if len(self.samples) < 2:
            return 0.0
        above = 0.0
        for (t0, v), (t1, _) in zip(self.samples, self.samples[1:]):
            if v > threshold:
                above += t1 - t0
        span = self.samples[-1][0] - self.samples[0][0]
        return above / span if span > 0 else 0.0


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def stddev(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    m = mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / (len(values) - 1))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile, p in [0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(p / 100 * len(ordered)) - 1))
    return ordered[rank]


@dataclass
class Summary:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    std: float
    min: float
    p50: float
    p95: float
    max: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "Summary":
        if not values:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return cls(
            count=len(values),
            mean=mean(values),
            std=stddev(values),
            min=min(values),
            p50=percentile(values, 50),
            p95=percentile(values, 95),
            max=max(values),
        )
