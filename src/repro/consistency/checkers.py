"""Polynomial-time transactional consistency checkers (saturation).

Biswas & Enea (PAPERS.md) give every consistency model the same axiom
shape: *for every read of x in t2 observing t3's write, and every other
transaction t1 that also wrote x, if t1 is "visible enough" to t2 —
relation R below — then t1 must commit before t3.*  A history satisfies
the model iff some total commit order ``co`` extending session order and
write-read exists under which the axiom holds.

For read committed, read atomic and causal consistency the relation R
does not mention ``co`` at all, so every edge the axiom forces can be
computed up front (*saturation*) and the history is consistent iff the
graph ``SO ∪ WR ∪ forced`` is acyclic — any topological order is a
witness commit order.  The three relations:

* **read committed** — R(t1, α) ⇔ t1 precedes t2 in session order, or
  t2 already read one of t1's writes at an *earlier* operation than α
  (committed values only, observed monotonically within a transaction);
* **read atomic** — R(t1, t2) ⇔ t1 precedes t2 in session order or t2
  reads *any* of t1's writes (transactions observe each other's writes
  all-or-nothing);
* **causal** — R(t1, t2) ⇔ t1 ``(SO ∪ WR)⁺`` t2 (everything causally
  delivered before t2 is visible to it).

Since R_RC ⊆ R_RA ⊆ R_causal pointwise, the forced-edge graphs are
nested and the acceptance lattice RC ⊇ RA ⊇ causal ⊇ prefix holds *by
construction* — a property the test suite re-checks against brute-force
references (:mod:`repro.consistency.reference`).

On failure every checker returns a minimal witness: the shortest
precedence cycle, each hop labeled with the axiom instance that forced
it.  Prefix consistency needs a commit-order search on top of
saturation and lives in :mod:`repro.consistency.prefix`.

**The timestamp order as a witness.**  Saturation assumes a black-box
history with no commit order; this system records one, the timestamp
order T, and the adapters hand it over as the history's issue order
plus a ``visibility`` witness: each transaction sees every transaction
before it in T except its missing ones (the paper's *k*).  Before
saturating, RC, RA and causal check three premises in O(n·k):

* **(P1)** each visibility vis(t) is a subset of T before t (the
  representation gives this; the checker verifies its shape);
* **(P2)** along every SO and WR edge a → b, a ∈ vis(b) and vis(a) ⊆
  vis(b), i.e. missing(b) ∩ [0, a) ⊆ missing(a);
* **(P3)** each read's source is its reader's latest visible writer of
  the key in T, or INIT when it sees none.

If all three hold the history satisfies the model, and the verdict is
``ok`` with stats ``{"witness": "timestamp order"}``:

1. By P2 and induction on path length, (SO ∪ WR)⁺ ⊆ vis: for a path
   a → … → c → b, a ∈ vis(c) ⊆ vis(b).  So R_causal ⊆ vis, and R_RC ⊆
   R_RA ⊆ R_causal.
2. A forced edge t1 → src comes from a read of x in t2 with t1 ∈ R(t2)
   ⊆ vis(t2) writing x.  By P3, src is the latest writer of x in
   vis(t2), so t1 precedes src in T (and src is not INIT).  Every
   forced edge points forward in T.
3. By P1 and P2, SO and WR edges point forward in T too, and INIT
   precedes everything.
4. So SO ∪ WR ∪ forced is acyclic, which is exactly saturation's
   ``ok``.

The witness is checked, never trusted: if any premise fails (no
witness, an intransitive ``piggyback=False`` run, a forged seen-set),
the checker saturates as above, so every violation keeps its labelled
cycle.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .graph import Edge, PrecedenceGraph
from .model import History, HTransaction

#: canonical model names, weakest first.
MODEL_ORDER = ("read_committed", "read_atomic", "causal", "prefix")

#: accepted shorthands (CLI, oracle configs).
ALIASES = {
    "rc": "read_committed",
    "ra": "read_atomic",
    "cc": "causal",
    "pc": "prefix",
}


def canonical_model(name: str) -> str:
    """Resolve a model name or alias; raises ValueError when unknown."""
    resolved = ALIASES.get(name, name)
    if resolved not in MODEL_ORDER:
        raise ValueError(
            f"unknown consistency model {name!r}; "
            f"expected one of {MODEL_ORDER} or aliases {sorted(ALIASES)}"
        )
    return resolved


@dataclass(frozen=True)
class Witness:
    """Why a history fails a model: a cycle or an exhausted search."""

    kind: str  # "cycle" | "exhausted"
    edges: Tuple[Edge, ...] = ()
    description: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "edges": [
                {"from": src, "to": dst, "reason": reason}
                for src, dst, reason in self.edges
            ],
            "description": self.description,
        }


@dataclass(frozen=True)
class Verdict:
    """One checker's answer for one history."""

    model: str
    status: str  # "ok" | "violation" | "indeterminate"
    witness: Optional[Witness] = None
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def as_dict(self) -> Dict[str, object]:
        return {
            "model": self.model,
            "status": self.status,
            "ok": self.ok,
            "witness": (
                self.witness.as_dict() if self.witness is not None else None
            ),
            "stats": dict(sorted(self.stats.items())),
        }


def _label(txid: Optional[int]) -> str:
    return "init" if txid is None else f"t{txid}"


def base_graph(history: History) -> PrecedenceGraph:
    """SO ∪ WR ∪ (init before everything), with labeled edges."""
    graph = PrecedenceGraph()
    graph.ensure(None)
    for txn in history.transactions:
        graph.add(None, txn.txid, "init precedes every transaction")
    for _, ids in sorted(history.sessions().items()):
        for prev, succ in zip(ids, ids[1:]):
            graph.add(prev, succ, f"session order {_label(prev)} -> "
                                  f"{_label(succ)}")
    for txn in history.transactions:
        for key, src in txn.reads:
            if src is not None:
                graph.add(
                    src, txn.txid,
                    f"{_label(txn.txid)} reads {key!r} from {_label(src)}",
                )
    return graph


def causal_closure(history: History) -> Dict[Optional[int], frozenset]:
    """txid → transactions causally after it, over SO ∪ WR only.

    The closure is computed on the *base* graph: forced edges never feed
    back into the causal relation (the relation is part of the model's
    definition, not of the constructed commit order).
    """
    return base_graph(history).closure()


#: R-predicate: (t1 txid, reading transaction, read position) →
#: reason string when R holds, else None.
RPredicate = Callable[[int, HTransaction, int], Optional[str]]


def _saturate(
    history: History, relation: RPredicate
) -> Tuple[PrecedenceGraph, int]:
    """Add every edge the axiom forces under a co-independent R."""
    graph = base_graph(history)
    writers = history.writers()
    forced = 0
    for txn in history.transactions:
        for position, (key, src) in enumerate(txn.reads):
            for t1 in writers.get(key, ()):
                if t1 == txn.txid or t1 == src:
                    continue
                reason = relation(t1, txn, position)
                if reason is None:
                    continue
                if graph.add(
                    t1, src,
                    f"{_label(t1)} also wrote {key!r} and {reason}, yet "
                    f"{_label(txn.txid)} read {key!r} from {_label(src)}: "
                    f"{_label(t1)} must commit before {_label(src)}",
                ):
                    forced += 1
    return graph, forced


def _verdict(
    model: str, graph: PrecedenceGraph, forced: int
) -> Verdict:
    cycle = graph.find_cycle()
    stats = {"forced_edges": forced, "edges": graph.edge_count}
    if cycle is None:
        return Verdict(model, "ok", None, stats)
    return Verdict(
        model, "violation",
        Witness(
            "cycle", cycle,
            f"{len(cycle)}-edge precedence cycle: no commit order can "
            f"satisfy the {model} axiom",
        ),
        stats,
    )


#: the stats of a verdict the visibility witness certified.
WITNESSED = {"witness": "timestamp order"}


def timestamp_order_certifies(history: History) -> bool:
    """Whether premises P1-P3 (module docstring) hold for the history's
    visibility witness, in O(n·k); False when it has none."""
    missing = history.visibility
    txns = history.transactions
    if missing is None or len(missing) != len(txns):
        return False
    position = {t.txid: i for i, t in enumerate(txns)}
    gone: List[frozenset] = []
    for i, below in enumerate(missing):  # P1
        if below and (
            below[0] < 0 or below[-1] >= i or list(below) != sorted(set(below))
        ):
            return False
        gone.append(frozenset(below))

    def covers(a: int, b: int) -> bool:  # P2 for the edge a -> b
        pa, pb = position[a], position[b]
        if pa >= pb:
            return False
        below = missing[pb]
        cut = bisect_left(below, pa)
        if cut < len(below) and below[cut] == pa:
            return False
        return gone[pa].issuperset(below[:cut])

    for ids in history.sessions().values():
        for prev, succ in zip(ids, ids[1:]):
            if not covers(prev, succ):
                return False
    writers: Dict[str, List[int]] = {}  # key -> positions, ascending
    for i, txn in enumerate(txns):
        for key, src in txn.reads:
            if src is not None and not covers(src, txn.txid):
                return False
            below = writers.get(key, ())
            j = len(below) - 1
            while j >= 0 and below[j] in gone[i]:
                j -= 1
            if src != (txns[below[j]].txid if j >= 0 else None):  # P3
                return False
        for key in txn.writes:
            writers.setdefault(key, []).append(i)
    return True


def check_read_committed(history: History) -> Verdict:
    """Reads observe committed writes, monotonically per transaction."""
    if timestamp_order_certifies(history):
        return Verdict("read_committed", "ok", None, dict(WITNESSED))
    session_index = history.session_index()

    def relation(t1: int, txn: HTransaction, position: int) -> Optional[str]:
        s1, i1 = session_index[t1]
        s2, i2 = session_index[txn.txid]
        if s1 == s2 and i1 < i2:
            return f"precedes {_label(txn.txid)} in session {s1}"
        for key, src in txn.reads[:position]:
            if src == t1:
                return (
                    f"was already observed by {_label(txn.txid)} "
                    f"(earlier read of {key!r})"
                )
        return None

    graph, forced = _saturate(history, relation)
    return _verdict("read_committed", graph, forced)


def check_read_atomic(history: History) -> Verdict:
    """Transactions observe each other's writes all-or-nothing."""
    if timestamp_order_certifies(history):
        return Verdict("read_atomic", "ok", None, dict(WITNESSED))
    session_index = history.session_index()

    def relation(t1: int, txn: HTransaction, position: int) -> Optional[str]:
        s1, i1 = session_index[t1]
        s2, i2 = session_index[txn.txid]
        if s1 == s2 and i1 < i2:
            return f"precedes {_label(txn.txid)} in session {s1}"
        for key, src in txn.reads:
            if src == t1:
                return (
                    f"was observed by {_label(txn.txid)} "
                    f"(read of {key!r})"
                )
        return None

    graph, forced = _saturate(history, relation)
    return _verdict("read_atomic", graph, forced)


def check_causal(history: History) -> Verdict:
    """Causally delivered writes are visible: R = (SO ∪ WR)⁺."""
    if timestamp_order_certifies(history):
        return Verdict("causal", "ok", None, dict(WITNESSED))
    closure = causal_closure(history)

    def relation(t1: int, txn: HTransaction, position: int) -> Optional[str]:
        if txn.txid in closure.get(t1, frozenset()):
            return f"causally precedes {_label(txn.txid)}"
        return None

    graph, forced = _saturate(history, relation)
    return _verdict("causal", graph, forced)


def check(history: History, model: str, **kwargs) -> Verdict:
    """Check one model by (canonical or alias) name."""
    resolved = canonical_model(model)
    if resolved == "prefix":
        from .prefix import check_prefix

        return check_prefix(history, **kwargs)
    checker = {
        "read_committed": check_read_committed,
        "read_atomic": check_read_atomic,
        "causal": check_causal,
    }[resolved]
    return checker(history, **kwargs)


def check_all(
    history: History, models: Tuple[str, ...] = MODEL_ORDER, **kwargs
) -> List[Verdict]:
    return [check(history, model, **kwargs) for model in models]
