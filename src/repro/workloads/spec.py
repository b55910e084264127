"""``WorkloadSpec`` — one frozen, JSON-round-trippable workload name.

A spec fully determines a transaction stream: category, seed, sim
duration, base arrival rate, the Zipf key universe and exponent, load
shapes, the op mix and the category knobs.  ``generate_stream(spec)``
is a pure function of the spec, so a spec *is* a reproducible workload,
and one definition drives both the simulator and the live asyncio
cluster.

Specs are flat frozen dataclasses (picklable for the process-pool
fan-out) with canonical tuple fields: ``mix`` and ``params`` are
key-sorted pairs, shapes a tuple of shape values, so equal specs
compare and hash equal regardless of construction order, and
``from_dict(as_dict(spec)) == spec`` exactly (the hypothesis round-trip
property in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..apps.registry import APP_NAMES, app_entry
from .shapes import shape_from_dict

__all__ = ["MAX_UNIFORM_UNIVERSE", "WorkloadSpec"]

#: uniform mode (``zipf == 0`` with key-carrying ops) materializes the
#: key pool as a list; cap it so nobody asks for a 10**6-entry list by
#: accident.  Zipfian mode has no such limit — sampling is O(1) setup.
MAX_UNIFORM_UNIVERSE = 100_000


def _sorted_pairs(pairs) -> Tuple[Tuple[str, float], ...]:
    return tuple(sorted((str(k), float(v)) for k, v in pairs))


@dataclass(frozen=True)
class WorkloadSpec:
    """One deterministic workload (JSON-flat, picklable)."""

    name: str
    category: str
    seed: int = 0
    duration: float = 60.0
    n_nodes: int = 3
    rate: float = 2.0
    universe: int = 1_000_000
    zipf: float = 1.1
    shapes: Tuple = ()
    mix: Tuple[Tuple[str, float], ...] = ()
    params: Tuple[Tuple[str, float], ...] = ()
    delay: Tuple[float, float] = (0.1, 0.5)
    window: int = 16
    # declared last so tuple-normalization above stays positional-free
    notes: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        # canonicalize the container fields so equality and hashing are
        # independent of how the spec was built.
        object.__setattr__(self, "shapes", tuple(self.shapes))
        object.__setattr__(self, "mix", _sorted_pairs(self.mix))
        object.__setattr__(self, "params", _sorted_pairs(self.params))
        object.__setattr__(
            self, "delay", (float(self.delay[0]), float(self.delay[1]))
        )
        if self.category not in APP_NAMES:
            raise ValueError(
                f"unknown category {self.category!r}; "
                f"known: {', '.join(APP_NAMES)}"
            )
        if not self.name:
            raise ValueError("spec needs a non-empty name")
        if self.duration <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.universe < 1:
            raise ValueError(f"universe must be >= 1, got {self.universe}")
        if self.zipf < 0:
            raise ValueError(f"zipf must be >= 0, got {self.zipf}")
        if self.zipf == 0 and self.universe > MAX_UNIFORM_UNIVERSE:
            raise ValueError(
                f"uniform key sampling materializes the pool; universe "
                f"{self.universe} > {MAX_UNIFORM_UNIVERSE} needs zipf > 0"
            )
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if not 0 <= self.delay[0] <= self.delay[1]:
            raise ValueError(
                f"delay must satisfy 0 <= low <= high, got {self.delay}"
            )
        entry = app_entry(self.category)
        ops = dict(entry.ops)
        for op, weight in self.mix:
            if op not in ops:
                raise ValueError(
                    f"unknown op {op!r} for {self.category}; "
                    f"known: {', '.join(sorted(ops))}"
                )
            if weight < 0:
                raise ValueError(f"mix weight for {op!r} must be >= 0")
        if sum(dict(self.op_weights()).values()) <= 0:
            raise ValueError("op mix has no positive weight")
        knobs = entry.params
        for knob, value in self.params:
            if knob not in knobs:
                raise ValueError(
                    f"unknown param {knob!r} for {self.category}; "
                    f"known: {', '.join(sorted(knobs))}"
                )
            if value <= 0:
                raise ValueError(f"param {knob!r} must be > 0, got {value}")

    # -- merged views ------------------------------------------------------

    def op_weights(self) -> Tuple[Tuple[str, float], ...]:
        """Registry-order ``(op, weight)`` pairs with ``mix`` overrides
        applied — the threshold table the synthesizer walks."""
        overrides = dict(self.mix)
        return tuple(
            (op, overrides.get(op, default))
            for op, default in app_entry(self.category).ops
        )

    def param_values(self) -> Dict[str, float]:
        """Category knobs with ``params`` overrides applied."""
        merged = dict(app_entry(self.category).params)
        merged.update(dict(self.params))
        return merged

    # -- JSON round trip ---------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "category": self.category,
            "seed": self.seed,
            "duration": self.duration,
            "n_nodes": self.n_nodes,
            "rate": self.rate,
            "universe": self.universe,
            "zipf": self.zipf,
            "shapes": [shape.as_dict() for shape in self.shapes],
            "mix": dict(self.mix),
            "params": dict(self.params),
            "delay": list(self.delay),
            "window": self.window,
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "WorkloadSpec":
        fields_ = dict(data)
        shapes = tuple(
            shape_from_dict(entry) for entry in fields_.pop("shapes", ())
        )
        mix = tuple(fields_.pop("mix", {}).items())
        params = tuple(fields_.pop("params", {}).items())
        delay = tuple(fields_.pop("delay", (0.1, 0.5)))
        return cls(
            shapes=shapes, mix=mix, params=params, delay=delay, **fields_
        )
