"""Per-category transaction synthesizers.

A synthesizer is a callable ``rng -> Transaction`` built from a
:class:`~repro.workloads.spec.WorkloadSpec`: one uniform RNG draw picks
the op by walking the spec's cumulative weight table (the order of the
category's :mod:`repro.apps.registry` entry, which also supplies the
knob defaults and the key prefix), then key-carrying ops draw their
entity keys.  The draw *order* is the contract — op roll first, then
keys (group before user for the nameserver) — because byte-identical
streams across worker counts and across the sim/runtime boundary hinge
on it.  What stays in this module is only *how an op becomes a
constructor call*: one ``_make`` per category, because apps must not
import workloads and draw order differs from argument order
(``Transfer(account, target, amount)`` draws the amount second).

Key sampling is rank-based: :class:`ZipfKeys` maps Zipf ranks to
interned entity names (``p1`` is the hottest passenger, ``a1`` the
hottest account...).  The rank -> name memo plus ``sys.intern`` is a
*memory* measure, not a speed one: under skew the same hot keys recur
in the log and in every replica's state, and interning keeps exactly
one copy alive per distinct key (and lets CPython's pointer-equality
fast path short-circuit the state dict/set lookups).  Profiling the
full runner showed per-draw CPU is a wash either way, and the merge
engine's record ids are plain ``int`` txids with nothing to intern —
the measured numbers live in ``BENCH_workloads.json``'s notes.
:class:`UniformKeys` materializes the pool and picks with
``rng.choice``, exactly like the legacy runtime load generator, which
is what makes the airline ``uniform`` spec a draw-for-draw replacement
for it.

Keys model *client identities*: a duplicate ``ORDER(o17)`` is an
idempotent retry (exercising the order-dedup update path), a
``CANCEL(p3)`` for a never-requested passenger is a no-op cancel —
both legal, both realistic, and neither requires the synthesizer to
carry mutable history, which keeps it a pure function of the RNG.
"""

from __future__ import annotations

import random
import sys
from typing import Callable, Dict, Optional

from ..apps.airline.transactions import Cancel, MoveDown, MoveUp, Request
from ..apps.banking.operations import Audit, Deposit, Transfer, Withdraw
from ..apps.counter import Allocate, Release
from ..apps.dictionary.dictionary import Delete, Insert, Prune, Query
from ..apps.inventory import (
    CancelOrder,
    Commit,
    Order,
    Renege,
    Restock,
    Ship,
)
from ..apps.nameserver.nameserver import (
    AddMember,
    Lookup,
    Register,
    RemoveMember,
    Scrub,
    Unregister,
)
from ..apps.registry import app_entry
from ..core.transaction import Transaction
from .spec import WorkloadSpec
from .zipf import ZipfSampler

__all__ = ["Synthesizer", "make_key_picker", "make_synthesizer"]


class ZipfKeys:
    """Zipf-ranked entity names with an interned rank -> name memo."""

    def __init__(self, universe: int, exponent: float, prefix: str):
        self._sampler = ZipfSampler(universe, exponent)
        self._prefix = prefix
        self._names: Dict[int, str] = {}

    def pick(self, rng: random.Random) -> str:
        rank = self._sampler.sample(rng)
        name = self._names.get(rank)
        if name is None:
            name = sys.intern(f"{self._prefix}{rank}")
            self._names[rank] = name
        return name


class UniformKeys:
    """A materialized uniform pool picked via ``rng.choice`` — the same
    draw the legacy load generator makes over its ``p{i}`` persons."""

    def __init__(self, universe: int, prefix: str):
        self._pool = [sys.intern(f"{prefix}{i}") for i in range(universe)]

    def pick(self, rng: random.Random) -> str:
        return rng.choice(self._pool)


def make_key_picker(universe: int, exponent: float, prefix: str):
    if exponent == 0:
        return UniformKeys(universe, prefix)
    return ZipfKeys(universe, exponent, prefix)


class Synthesizer:
    """Weighted-op transaction synthesis for one category.

    One ``rng.random()`` roll walks the cumulative weight table; the
    chosen op's ``_make`` then draws any keys it needs.  Subclasses
    implement ``_make(op, rng)``.
    """

    def __init__(self, spec: WorkloadSpec):
        self.spec = spec
        weights = spec.op_weights()
        self._ops = [op for op, _ in weights]
        bounds = []
        total = 0.0
        for _, weight in weights:
            total += weight
            bounds.append(total)
        self._bounds = bounds
        self._total = total
        # every knob is a count or a bound: integral once, here.
        self._params = {k: int(v) for k, v in spec.param_values().items()}
        self._keys = make_key_picker(
            spec.universe, spec.zipf, app_entry(spec.category).key_prefix
        )

    def __call__(self, rng: random.Random) -> Transaction:
        roll = rng.random() * self._total
        op = self._ops[-1]
        for candidate, bound in zip(self._ops, self._bounds):
            if roll < bound:
                op = candidate
                break
        return self._make(op, rng)

    def _make(self, op: str, rng: random.Random) -> Transaction:
        raise NotImplementedError


class _AirlineSynth(Synthesizer):
    def _make(self, op: str, rng: random.Random) -> Transaction:
        if op == "move_up":
            return MoveUp(self._params["capacity"])
        if op == "move_down":
            return MoveDown(self._params["capacity"])
        person = self._keys.pick(rng)
        if op == "request":
            return Request(person)
        return Cancel(person)


class _BankingSynth(Synthesizer):
    def _make(self, op: str, rng: random.Random) -> Transaction:
        if op == "audit":
            return Audit()
        account = self._keys.pick(rng)
        amount = rng.randint(1, self._params["max_amount"])
        if op == "deposit":
            return Deposit(account, amount)
        if op == "withdraw":
            return Withdraw(account, amount)
        target = self._keys.pick(rng)
        return Transfer(account, target, amount)


class _CounterSynth(Synthesizer):
    def _make(self, op: str, rng: random.Random) -> Transaction:
        if op == "allocate":
            return Allocate(self._params["limit"])
        return Release(self._params["limit"])


class _DictionarySynth(Synthesizer):
    def _make(self, op: str, rng: random.Random) -> Transaction:
        if op == "query":
            return Query()
        if op == "prune":
            return Prune(self._params["capacity"])
        item = self._keys.pick(rng)
        if op == "insert":
            return Insert(item, self._params["capacity"])
        return Delete(item)


class _InventorySynth(Synthesizer):
    def _make(self, op: str, rng: random.Random) -> Transaction:
        if op == "commit":
            return Commit()
        if op == "renege":
            return Renege()
        if op == "ship":
            return Ship()
        if op == "restock":
            return Restock(rng.randint(1, self._params["max_restock"]))
        order = self._keys.pick(rng)
        if op == "order":
            return Order(order)
        return CancelOrder(order)


class _NameserverSynth(Synthesizer):
    def __init__(self, spec: WorkloadSpec):
        super().__init__(spec)
        self._groups = make_key_picker(self._params["groups"], spec.zipf, "g")

    def _make(self, op: str, rng: random.Random) -> Transaction:
        if op == "scrub":
            return Scrub()
        if op in ("register", "unregister"):
            user = self._keys.pick(rng)
            return Register(user) if op == "register" else Unregister(user)
        group = self._groups.pick(rng)
        if op == "lookup":
            return Lookup(group)
        user = self._keys.pick(rng)
        if op == "add_member":
            return AddMember(group, user)
        return RemoveMember(group, user)


_SYNTHS: Dict[str, Callable[[WorkloadSpec], Synthesizer]] = {
    "airline": _AirlineSynth,
    "banking": _BankingSynth,
    "counter": _CounterSynth,
    "dictionary": _DictionarySynth,
    "inventory": _InventorySynth,
    "nameserver": _NameserverSynth,
}


def make_synthesizer(spec: WorkloadSpec) -> Synthesizer:
    """The synthesizer for ``spec``'s category, configured by the spec."""
    maker = _SYNTHS.get(spec.category)
    if maker is None:  # a registered app with no ``_make`` above
        raise ValueError(f"no synthesizer for category {spec.category!r}")
    return maker(spec)


def uniform_airline_spec(
    capacity: int = 2,
    persons: int = 12,
    mover_weight: float = 0.4,
    name: str = "uniform-airline",
    seed: int = 0,
    duration: float = 60.0,
    rate: float = 2.0,
    n_nodes: int = 3,
) -> WorkloadSpec:
    """The runtime's original airline load as a spec: a uniform person
    pool and the movers/request/cancel split its hand-rolled generator
    drew.  With the same RNG, the synthesized transactions are draw for
    draw that generator's (the parity test in ``tests/runtime`` pins
    this); ``python -m repro.runtime.demo`` replays its stream."""
    return WorkloadSpec(
        name=name,
        category="airline",
        seed=seed,
        duration=duration,
        rate=rate,
        n_nodes=n_nodes,
        universe=persons,
        zipf=0.0,
        mix=(
            ("move_up", mover_weight / 2),
            ("move_down", mover_weight / 2),
            ("request", (1.0 - mover_weight) * 0.75),
            ("cancel", (1.0 - mover_weight) * 0.25),
        ),
        params=(("capacity", float(capacity)),),
    )


# re-exported for callers that only need the protocol type
SynthFn = Callable[[random.Random], Optional[Transaction]]
