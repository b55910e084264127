"""Read/write footprints: what keys a recorded transaction touched.

The paper's transactions read and write whole replicated *states*; the
Biswas & Enea history model wants key-level read and write sets.  A
*footprint* bridges the two: given a recorded
:class:`~repro.replica.log.UpdateRecord`, it names the abstract keys the
transaction's decision read and its update wrote.  The checkers never
interpret the keys — any consistent naming works — but finer footprints
make the checkers sharper (fewer writers per key means fewer forced
edges and fewer spurious conflicts).

The airline app (Section 2.3) gets a hand-written footprint:

* ``REQUEST(P)`` / ``CANCEL(P)`` read P's own membership (``p:P``) and
  write both it and the shared seat assignment (``seats`` — both lists'
  membership and order);
* ``MOVE_UP`` / ``MOVE_DOWN`` decide by looking at the seat assignment,
  so they read ``seats`` and write the chosen person's membership plus
  ``seats``; a mover whose decision declined (``IDENTITY`` update)
  wrote nothing.

Unknown transaction families fall back to the whole-state footprint
(read ``state``, write ``state``), which is always *sound* — it can only
add conflicts, never hide one.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from ..replica.log import UpdateRecord

#: the whole-state key used by the conservative fallback footprint.
STATE_KEY = "state"


class Footprint(Tuple[Tuple[str, ...], Tuple[str, ...]]):
    """(read keys, written keys) for one recorded transaction."""

    __slots__ = ()

    @property
    def reads(self) -> Tuple[str, ...]:
        return self[0]

    @property
    def writes(self) -> Tuple[str, ...]:
        return self[1]


def footprint(
    reads: Tuple[str, ...], writes: Tuple[str, ...]
) -> Footprint:
    return Footprint((reads, writes))


#: a footprint function maps one record to its (reads, writes).
FootprintFn = Callable[[UpdateRecord], Footprint]


class FootprintRegistry:
    """Transaction-family name → footprint function; an unregistered
    family gets the conservative :func:`whole_state_footprint`."""

    def __init__(self) -> None:
        self._by_name: Dict[str, FootprintFn] = {}

    def register(self, name: str, fn: FootprintFn) -> None:
        self._by_name[name] = fn

    def of(self, record: UpdateRecord) -> Footprint:
        fn = self._by_name.get(
            record.transaction.name, whole_state_footprint
        )
        return fn(record)


def whole_state_footprint(record: UpdateRecord) -> Footprint:
    """Sound for any app: everything reads and writes the one state."""
    if record.update.name == "identity":
        return footprint((STATE_KEY,), ())
    return footprint((STATE_KEY,), (STATE_KEY,))


def _person_key(person: object) -> str:
    return f"p:{person}"


def _request_cancel(record: UpdateRecord) -> Footprint:
    person = record.transaction.params[0]
    return footprint((_person_key(person),), (_person_key(person), "seats"))


def _mover(record: UpdateRecord) -> Footprint:
    if record.update.name == "identity":
        return footprint(("seats",), ())
    person = record.update.params[0]
    return footprint(("seats",), (_person_key(person), "seats"))


def airline_footprints() -> FootprintRegistry:
    """The registry covering Section 2.3's four transaction families."""
    registry = FootprintRegistry()
    registry.register("REQUEST", _request_cancel)
    registry.register("CANCEL", _request_cancel)
    registry.register("MOVE_UP", _mover)
    registry.register("MOVE_DOWN", _mover)
    return registry


#: Declared *state-attribute-level* footprints per update family:
#: ``family -> ((reads...), (writes...))``, where reads name the state
#: attributes/methods the ``apply`` body consults (guards included,
#: identity pass-throughs excluded) and writes name the attributes it
#: rewrites.  These are the ground truth shardlint rule R6 holds every
#: ``Update.apply`` body to — the static inference
#: (:func:`repro.lint.astutil.infer_update_footprint`) must agree with
#: this table exactly, so the key-level registry above and the bodies
#: it abstracts can never drift apart silently.  The table is read both
#: at runtime (repro.certify) and purely syntactically by shardlint, so
#: it must stay a literal dict of string tuples.
FAMILY_FIELD_FOOTPRINTS = {
    "request": (("is_known", "waiting"), ("waiting",)),
    "cancel": (("assigned", "is_known", "waiting"), ("assigned", "waiting")),
    "move_up": (("assigned", "is_waiting", "waiting"), ("assigned", "waiting")),
    "move_down": (
        ("assigned", "is_assigned", "waiting"),
        ("assigned", "waiting"),
    ),
}


__all__ = [
    "FAMILY_FIELD_FOOTPRINTS",
    "Footprint",
    "FootprintFn",
    "FootprintRegistry",
    "STATE_KEY",
    "airline_footprints",
    "footprint",
    "whole_state_footprint",
]
