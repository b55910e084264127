"""Merge hot-path seed cells: E11's regimes with the cost cache on.

A *cell* is one deterministic airline workload (one of the E11 merge
regimes) run with the incremental per-prefix constraint-cost cache
installed (``cost_fn`` = the Fly-by-Night application's total constraint
cost).  :func:`run_cell` is module-level and takes a frozen, picklable
:class:`CellSpec`, so the parallel campaign runner can fan cells across
a process pool; its result row is fully deterministic in the spec.

:data:`DEFAULT_CELLS` mirrors the four E11 regimes; :data:`SMOKE_CELLS`
are the same regimes at smoke duration, used by the CI regression gate.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..apps.airline.application import make_airline_application
from ..apps.airline.simulation import AirlineScenario, run_airline_scenario
from ..network.link import UniformDelay
from ..network.partition import PartitionSchedule
from ..replica import TailWindowPolicy, policy_engine_factory

#: regime name -> (delay bounds, partition window, scenario overrides).
#: Mirrors benchmarks/bench_undo_redo.py: "single-writer" is the
#: centralized in-order workload (all fast path), "jittery" and
#: "partitioned" are the out-of-order regimes where undo/redo — and
#: hence the cost cache — does real work.
REGIMES: Dict[str, Tuple[Tuple[float, float], Optional[Tuple], Dict]] = {
    "single-writer": (
        (0.005, 0.02), None, {"request_nodes": [0], "mover_nodes": [0]}
    ),
    "in-order": ((0.1, 0.3), None, {}),
    "jittery": ((0.1, 5.0), None, {}),
    "partitioned": ((0.1, 0.3), (10.0, 40.0), {}),
}


@dataclass(frozen=True)
class CellSpec:
    """One deterministic merge workload (JSON-flat, picklable)."""

    name: str
    regime: str
    duration: float = 60.0
    seed: int = 5
    capacity: int = 10
    request_rate: float = 2.0
    window: int = 16

    def __post_init__(self) -> None:
        if self.regime not in REGIMES:
            raise ValueError(f"unknown cell regime {self.regime!r}")

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "regime": self.regime,
            "duration": self.duration,
            "seed": self.seed,
            "capacity": self.capacity,
            "request_rate": self.request_rate,
            "window": self.window,
        }


def _specs(duration: float, prefix: str) -> Tuple[CellSpec, ...]:
    return tuple(
        CellSpec(name=f"{prefix}:{regime}", regime=regime, duration=duration)
        for regime in REGIMES
    )


DEFAULT_CELLS: Tuple[CellSpec, ...] = _specs(60.0, "e11")
SMOKE_CELLS: Tuple[CellSpec, ...] = _specs(15.0, "smoke")


def run_cell(spec: CellSpec, commutativity=None) -> Dict[str, object]:
    """Run one cell to quiescence; returns its deterministic result row.

    With ``commutativity`` (a pairwise oracle callable) every node's
    merge view also takes the certified skip on commuting out-of-order
    inserts; the row then reports ``certified_hits`` > 0 wherever the
    skip fired.
    """
    (low, high), partition, overrides = REGIMES[spec.regime]
    cost_fn = make_airline_application(spec.capacity).cost
    factory = policy_engine_factory(
        lambda: TailWindowPolicy(spec.window),
        cost_fn=cost_fn,
        commutativity=commutativity,
    )
    partitions = (
        PartitionSchedule.split(partition[0], partition[1], [0], [1, 2])
        if partition is not None
        else None
    )
    run = run_airline_scenario(
        AirlineScenario(
            capacity=spec.capacity,
            n_nodes=3,
            duration=spec.duration,
            seed=spec.seed,
            request_rate=spec.request_rate,
            delay=UniformDelay(low, high),
            partitions=partitions,
            merge_factory=factory,
            **overrides,
        )
    )
    state_digest = hashlib.sha256(
        repr(run.final_state).encode("utf-8")
    ).hexdigest()[:16]
    return {
        "cell": spec.name,
        "regime": spec.regime,
        "spec": spec.as_dict(),
        **run.cluster.merge_counters(),
        "cost_invalidated": sum(
            node.merge.cost_stats.invalidated for node in run.cluster.nodes
        ),
        "state_fingerprint": state_digest,
    }


def aggregate_hit_rate(rows) -> float:
    """Pooled cost-cache hit rate over a set of cell rows."""
    hits = sum(r["cost_hits"] for r in rows)
    evaluations = sum(r["cost_evaluations"] for r in rows)
    total = hits + evaluations
    return hits / total if total else 0.0


# -- certified-skip cells (E19, repro.certify) ---------------------------

#: regimes the certify comparison runs: the in-order control (skips
#: cannot fire, nothing to gain) plus both out-of-order regimes where
#: the displaced-suffix replay is the dominant merge cost.
CERTIFY_REGIMES = ("in-order", "jittery", "partitioned")

#: counters carried into each arm of a certify row (the perf gate pins
#: every one of them, per arm, against ``BENCH_certify.json``).
CERTIFY_ARM_KEYS = (
    "log_length", "inserts", "updates_applied", "fastpath_hits",
    "undo_redo_merges", "certified_hits", "state_fingerprint",
)


def _certify_specs(duration: float, prefix: str) -> Tuple[CellSpec, ...]:
    return tuple(
        CellSpec(name=f"{prefix}:{regime}", regime=regime, duration=duration)
        for regime in CERTIFY_REGIMES
    )


CERTIFY_DEFAULT_CELLS: Tuple[CellSpec, ...] = _certify_specs(60.0, "e19")
CERTIFY_SMOKE_CELLS: Tuple[CellSpec, ...] = _certify_specs(15.0, "smoke")


def certified_oracle():
    """The airline commutation oracle, derived fresh from the code.

    Imported lazily: :mod:`repro.certify` pulls in the application
    registry, which the plain perf cells never need.
    """
    from ..certify import CommutationOracle, airline_spec, build_pair_table

    return CommutationOracle.from_pairs(build_pair_table(airline_spec()))


def run_certify_cell(spec: CellSpec) -> Dict[str, object]:
    """One regime, twice: baseline undo/redo vs the certified skip.

    Same spec, same seed — the two arms see the identical workload, so
    equal state fingerprints prove the skip changed the repair cost and
    nothing else.  ``replay_reduction`` is the number of update
    applications the certified arm avoided.
    """
    baseline = run_cell(spec)
    certified = run_cell(spec, commutativity=certified_oracle().commutes)
    return {
        "cell": spec.name,
        "regime": spec.regime,
        "spec": spec.as_dict(),
        "baseline": {k: baseline[k] for k in CERTIFY_ARM_KEYS},
        "certified": {k: certified[k] for k in CERTIFY_ARM_KEYS},
        "states_agree": (
            baseline["state_fingerprint"] == certified["state_fingerprint"]
        ),
        "replay_reduction": (
            baseline["updates_applied"] - certified["updates_applied"]
        ),
    }
