"""The model-agnostic history IR the consistency checkers consume.

Biswas & Enea (*On the Complexity of Checking Transactional
Consistency*, PAPERS.md) formalize a *history* as a set of transactions,
each a sequence of read and write operations, together with a per-session
total order (session order, ``SO``) and a write-read relation (``WR``)
naming, for every read, the transaction whose write it observed.  Under
their unique-writes assumption the WR relation *is* the data — no value
comparison is ever needed — so this IR stores reads directly as
``(key, src_txid)`` pairs:

* :class:`HTransaction` — one committed transaction: its id, its
  session, its reads in program order (``src=None`` reads the initial
  value), and the set of keys it wrote;
* :class:`History` — the transactions in a canonical *issue order*
  (adapters use the global timestamp order; generators use construction
  order), from which session sequences are derived by stable filtering,
  and optionally a *visibility witness*: per transaction, the positions
  before it in issue order that it did not see.  The checkers verify a
  witness before they use it, and a history without one (any JSON
  history) is judged exactly as well, only by the slower search.

Nothing in this module knows where a history came from: the simulator
and runtime adapters (:mod:`repro.consistency.adapters`) and the
hypothesis generators in the test suite all build the same object, and
the checkers (:mod:`repro.consistency.checkers`,
:mod:`repro.consistency.prefix`) read nothing else.  The JSON round-trip
makes the checkers usable against *any* system that can dump its
history in this shape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: the txid of the implicit initial transaction that wrote every key:
#: reads with ``src=None`` observed the initial value.
INIT = None


class HistoryError(ValueError):
    """The history is structurally malformed (not a checker verdict)."""


@dataclass(frozen=True)
class HTransaction:
    """One committed transaction of a history.

    ``reads`` are in program order — the only place order matters is the
    read-committed axiom, which quantifies over the reads *preceding* a
    given one.  ``writes`` is a set of keys; under the unique-writes
    assumption the written values are irrelevant.
    """

    txid: int
    session: str
    reads: Tuple[Tuple[str, Optional[int]], ...] = ()
    writes: Tuple[str, ...] = ()

    def as_dict(self) -> Dict[str, object]:
        return {
            "txid": self.txid,
            "session": self.session,
            "reads": [[key, src] for key, src in self.reads],
            "writes": list(self.writes),
        }


class History:
    """A finished run's transactions, in issue order, plus metadata.

    ``meta`` carries adapter bookkeeping (dangling visibility references,
    session splits, …) and never influences a checker verdict.
    ``visibility``, when given, holds one ascending tuple per transaction:
    the positions in ``transactions`` before it that it did not see (the
    paper's missing predecessors).  It never changes a verdict either,
    only how fast an ``ok`` is found, and it is not serialised.
    """

    def __init__(
        self,
        transactions: Sequence[HTransaction],
        meta: Optional[Mapping[str, object]] = None,
        visibility: Optional[Sequence[Tuple[int, ...]]] = None,
    ):
        self.transactions: Tuple[HTransaction, ...] = tuple(transactions)
        self.meta: Dict[str, object] = dict(meta or {})
        self.visibility: Optional[Tuple[Tuple[int, ...], ...]] = (
            None if visibility is None else tuple(visibility)
        )
        self._by_txid: Dict[int, HTransaction] = {}
        for txn in self.transactions:
            if txn.txid in self._by_txid:
                raise HistoryError(f"duplicate txid {txn.txid}")
            self._by_txid[txn.txid] = txn
        self._validate()

    def _validate(self) -> None:
        for txn in self.transactions:
            for key, src in txn.reads:
                if src is INIT:
                    continue
                if src == txn.txid:
                    raise HistoryError(
                        f"transaction {txn.txid} reads {key!r} from itself;"
                        " internal reads do not belong in the WR relation"
                    )
                writer = self._by_txid.get(src)
                if writer is None:
                    raise HistoryError(
                        f"transaction {txn.txid} reads {key!r} from unknown"
                        f" transaction {src}"
                    )
                if key not in writer.writes:
                    raise HistoryError(
                        f"transaction {txn.txid} reads {key!r} from {src},"
                        " which never wrote it"
                    )

    def __len__(self) -> int:
        return len(self.transactions)

    def __getitem__(self, txid: int) -> HTransaction:
        return self._by_txid[txid]

    def __contains__(self, txid: int) -> bool:
        return txid in self._by_txid

    @property
    def txids(self) -> Tuple[int, ...]:
        return tuple(t.txid for t in self.transactions)

    def sessions(self) -> Dict[str, Tuple[int, ...]]:
        """Session id → txids in session order (stable in issue order)."""
        out: Dict[str, List[int]] = {}
        for txn in self.transactions:
            out.setdefault(txn.session, []).append(txn.txid)
        return {name: tuple(ids) for name, ids in out.items()}

    def session_index(self) -> Dict[int, Tuple[str, int]]:
        """txid → (session, position within session)."""
        out: Dict[int, Tuple[str, int]] = {}
        for name, ids in sorted(self.sessions().items()):
            for position, txid in enumerate(ids):
                out[txid] = (name, position)
        return out

    def writers(self) -> Dict[str, Tuple[int, ...]]:
        """key → txids that wrote it, in issue order."""
        out: Dict[str, List[int]] = {}
        for txn in self.transactions:
            for key in txn.writes:
                out.setdefault(key, []).append(txn.txid)
        return {key: tuple(ids) for key, ids in out.items()}

    def keys(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for txn in self.transactions:
            for key in txn.writes:
                seen.setdefault(key)
            for key, _ in txn.reads:
                seen.setdefault(key)
        return tuple(sorted(seen))

    # -- JSON round-trip -------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        return {
            "transactions": [t.as_dict() for t in self.transactions],
            "meta": dict(sorted(self.meta.items())),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "History":
        transactions = []
        for item in data["transactions"]:
            transactions.append(HTransaction(
                txid=int(item["txid"]),
                session=str(item["session"]),
                reads=tuple(
                    (str(key), None if src is None else int(src))
                    for key, src in item.get("reads", ())
                ),
                writes=tuple(str(k) for k in item.get("writes", ())),
            ))
        return cls(transactions, meta=data.get("meta"))

    @classmethod
    def from_json(cls, text: str) -> "History":
        return cls.from_dict(json.loads(text))


__all__ = ["INIT", "History", "HistoryError", "HTransaction"]
