"""Prefix consistency: saturation plus a commit-order search.

Prefix consistency (PC) demands that every transaction read from a
*prefix* of one global commit order — its snapshot point is the latest
of its causal predecessors, and every read must return the last write
of its key at or before that point.  Unlike RC/RA/causal, the axiom's
visibility relation mentions the commit order itself, so checking is
NP-complete in general; Biswas & Enea make it polynomial for a bounded
number of sessions via their reduction to serializability over the
*split* history — each transaction divided into a read part followed by
a write part in the same session — searched over per-session commit
frontiers.  Replicated-database histories have one session per node (or
per node incarnation), so the bound is the cluster size.

The checker runs two stages:

1. **saturation** (necessary edges): starting from SO ∪ WR plus every
   causally forced edge, repeatedly apply the PC axiom with the
   visibility relation evaluated over the *transitive closure* of the
   current graph — any edge added this way must hold in every candidate
   commit order.  A cycle here is a definitive violation with a minimal
   cycle witness.
2. **commit-order search** (sufficiency): a depth-first search, on an
   explicit stack, over the split history's per-session frontiers,
   committing one read part or write part at a time.  A read part is
   schedulable only when, for every one of its reads, the *last
   committed writer* of the key is exactly the transaction it read
   from — the serializability guard that, on the split history, is
   precisely the prefix axiom.  Failed (frontier, last-writer) states
   are memoized, and stage-1 edges prune the candidate order.
   Exhausting the space proves the violation; the witness then reports
   the reads that blocked the deepest frontier reached.

The search carries a state budget (generous for the cluster sizes the
repo produces); exceeding it yields an *indeterminate* verdict rather
than a guess.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Generator, List, Optional, Set, Tuple

from .checkers import Verdict, Witness, _label, base_graph
from .graph import PrecedenceGraph
from .model import History

#: default cap on distinct search states before giving up.
DEFAULT_STATE_BUDGET = 250_000


class PrefixSearchBudgetExceeded(RuntimeError):
    """The commit-order search outgrew its state budget."""


def _saturate_prefix(
    history: History,
) -> Tuple[PrecedenceGraph, int]:
    """Fixpoint of the PC axiom's *necessary* edges.

    ``preds`` (the strict causal predecessors of each reader) is fixed —
    it comes from SO ∪ WR only — while the "t1 at or before t'" test
    re-evaluates against the growing graph's closure each round.
    """
    graph = base_graph(history)
    writers = history.writers()
    base_reach = graph.closure()
    preds: Dict[int, FrozenSet[int]] = {}
    for txn in history.transactions:
        preds[txn.txid] = frozenset(
            t for t, reach in sorted(
                base_reach.items(), key=lambda item: repr(item[0])
            )
            if t is not None and txn.txid in reach
        )
    forced = 0
    changed = True
    while changed:
        changed = False
        reach = graph.closure()
        for txn in history.transactions:
            for key, src in txn.reads:
                for t1 in writers.get(key, ()):
                    if t1 == txn.txid or t1 == src:
                        continue
                    if (t1, src) in graph:
                        continue
                    anchor = None
                    for t_prime in sorted(preds[txn.txid]):
                        if t1 == t_prime or t_prime in reach.get(
                            t1, frozenset()
                        ):
                            anchor = t_prime
                            break
                    if anchor is None:
                        continue
                    graph.add(
                        t1, src,
                        f"{_label(t1)} also wrote {key!r} and commits at or "
                        f"before {_label(anchor)}, a causal predecessor of "
                        f"{_label(txn.txid)} — inside its snapshot — yet "
                        f"{_label(txn.txid)} read {key!r} from "
                        f"{_label(src)}",
                    )
                    forced += 1
                    changed = True
    return graph, forced


def _search_commit_order(
    history: History,
    graph: PrecedenceGraph,
    budget: int,
) -> Tuple[bool, Dict[str, object]]:
    """Find a split-history commit order satisfying every read guard.

    Returns (found, stats).  The DFS commits read/write parts session by
    session; state = (per-session frontier, last-writer map).  Failed
    states are memoized; the saturated graph orders write parts.
    """
    order_index = {t.txid: i for i, t in enumerate(history.transactions)}
    sessions = sorted(history.sessions().items())
    # parts[s] = [("r", txid), ("w", txid), ...] in session order
    parts: List[List[Tuple[str, int]]] = [
        [(kind, txid) for txid in ids for kind in "rw"] for _, ids in sessions
    ]
    # direct necessary predecessors (write-part ordering), init dropped
    direct_preds: Dict[int, List[int]] = {
        t.txid: [] for t in history.transactions
    }
    for src in graph.nodes():
        if src is None:
            continue
        for dst in graph.successors(src):
            if dst is not None and src != dst:
                direct_preds[dst].append(src)

    failed: Set[Tuple[Tuple[int, ...], Tuple[Tuple[str, int], ...]]] = set()
    visited = [0]
    deepest: Dict[str, object] = {"committed": -1, "blocked": []}

    frontier = [0] * len(parts)
    last_writer: Dict[str, int] = {}
    committed_w: Set[int] = set()

    def state_key() -> Tuple[Tuple[int, ...], Tuple[Tuple[str, int], ...]]:
        return tuple(frontier), tuple(sorted(last_writer.items()))

    def candidates() -> List[Tuple[int, str, int]]:
        """Schedulable (session index, kind, txid), best-first."""
        out: List[Tuple[int, int, str, int]] = []
        for s, row in enumerate(parts):
            if frontier[s] >= len(row):
                continue
            kind, txid = row[frontier[s]]
            out.append((order_index[txid], s, kind, txid))
        out.sort()
        return [(s, kind, txid) for _, s, kind, txid in out]

    def read_guard(txid: int) -> Optional[Tuple[str, object, object]]:
        """None when every read sees its source; else the blocked read."""
        for key, src in history[txid].reads:
            observed = last_writer.get(key)
            if observed != src:
                return (key, src, observed)
        return None

    def write_guard(txid: int) -> bool:
        return all(pred in committed_w for pred in direct_preds[txid])

    def dfs() -> Generator[None, bool, bool]:
        """The search from here, as a generator for the explicit stack
        below: it yields to search the next state and is sent its result."""
        committed = sum(frontier)
        if committed == sum(len(row) for row in parts):
            return True
        key = state_key()
        if key in failed:
            return False
        visited[0] += 1
        if visited[0] > budget:
            raise PrefixSearchBudgetExceeded(
                f"prefix search exceeded {budget} states"
            )
        blocked: List[Dict[str, object]] = []
        progressed = False
        for s, kind, txid in candidates():
            if kind == "r":
                miss = read_guard(txid)
                if miss is not None:
                    key_name, wanted, observed = miss
                    blocked.append({
                        "txid": txid, "key": key_name,
                        "reads_from": wanted, "last_committed": observed,
                    })
                    continue
                frontier[s] += 1
                progressed = True
                if (yield):
                    return True
                frontier[s] -= 1
            else:
                if not write_guard(txid):
                    continue
                saved = {
                    k: last_writer.get(k) for k in history[txid].writes
                }
                for k in history[txid].writes:
                    last_writer[k] = txid
                committed_w.add(txid)
                frontier[s] += 1
                progressed = True
                if (yield):
                    return True
                frontier[s] -= 1
                committed_w.discard(txid)
                for k, value in sorted(saved.items()):
                    if value is None:
                        del last_writer[k]
                    else:
                        last_writer[k] = value
        if not progressed and committed > deepest["committed"]:
            deepest["committed"] = committed
            deepest["blocked"] = blocked
        failed.add(key)
        return False

    stack, result = [dfs()], None
    while stack:
        try:
            stack[-1].send(result)
        except StopIteration as returned:
            stack.pop()
            result = returned.value
        else:  # it yielded: search the state it moved to
            stack.append(dfs())
            result = None
    found = result
    stats = {
        "states": visited[0],
        "deepest_blocked": deepest["blocked"],
        "parts": sum(len(row) for row in parts),
        "deepest": deepest["committed"],
    }
    return found, stats


def check_prefix(
    history: History, budget: int = DEFAULT_STATE_BUDGET
) -> Verdict:
    """Check prefix consistency; see the module docstring."""
    graph, forced = _saturate_prefix(history)
    cycle = graph.find_cycle()
    base_stats = {"forced_edges": forced, "edges": graph.edge_count}
    if cycle is not None:
        return Verdict(
            "prefix", "violation",
            Witness(
                "cycle", cycle,
                f"{len(cycle)}-edge precedence cycle: no commit order can "
                "satisfy the prefix axiom",
            ),
            base_stats,
        )
    try:
        found, stats = _search_commit_order(history, graph, budget)
    except PrefixSearchBudgetExceeded as exc:
        return Verdict(
            "prefix", "indeterminate",
            Witness("exhausted", (), str(exc)),
            base_stats,
        )
    base_stats["search_states"] = stats["states"]
    if found:
        return Verdict("prefix", "ok", None, base_stats)
    blocked = stats["deepest_blocked"]
    detail = "; ".join(
        f"{_label(item['txid'])} reads {item['key']!r} from "
        f"{_label(item['reads_from'])} but the last committed writer "
        f"is {_label(item['last_committed'])}"
        for item in blocked[:4]
    )
    return Verdict(
        "prefix", "violation",
        Witness(
            "exhausted", (),
            "no commit order satisfies the prefix axiom "
            f"(search exhausted after {stats['states']} states; "
            f"deepest frontier committed {stats['deepest']} of "
            f"{stats['parts']} parts"
            + (f"; blocked reads: {detail}" if detail else "")
            + ")",
        ),
        base_stats,
    )
