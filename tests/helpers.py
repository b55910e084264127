"""Shared test helpers: attaching a bare :class:`GossipService` (no
``NodeHost`` owning the transport slot), counting Python calls and
mapping probes, and the from-scratch references that the execution's
incremental fold, its missing-set conditions and the causal gate are
checked against."""

import gc
import sys
from collections.abc import KeysView
from operator import lt

from repro.core.execution import InvalidExecutionError
from repro.core.update import apply_sequence


# -- the tuple form of prefix subsequences, kept as the reference ----------


def reference_check_prefixes(prefixes):
    """Condition (1) on prefix subsequences given as their indices:
    each strictly increasing and inside ``range(i)``."""
    checked = []
    for index, prefix in enumerate(prefixes):
        prefix = tuple(prefix)
        if not all(map(lt, prefix, prefix[1:])):
            raise InvalidExecutionError(
                f"prefix of transaction {index} is not strictly increasing: "
                f"{prefix}"
            )
        if prefix and (prefix[0] < 0 or prefix[-1] >= index):
            raise InvalidExecutionError(
                f"prefix of transaction {index} is not a subsequence of its "
                f"preceding indices: {prefix}"
            )
        checked.append(prefix)
    return tuple(checked)


def reference_prefixes(records):
    """Each record's prefix subsequence by sorting its seen-set's
    indices in the timestamp order, with extraction's errors."""
    ordered = sorted(records, key=lambda r: r.ts)
    index_of = {r.txid: i for i, r in enumerate(ordered)}
    prefixes = []
    for i, record in enumerate(ordered):
        try:
            prefix = sorted(map(index_of.__getitem__, record.seen_txids))
        except KeyError:
            missing = min(set(record.seen_txids) - index_of.keys())
            raise InvalidExecutionError(
                f"transaction {record.txid} saw transaction {missing}, "
                "which is not among the records"
            ) from None
        if prefix and prefix[-1] >= i:
            raise InvalidExecutionError(
                f"transaction {record.txid} saw a transaction with a larger "
                "timestamp; Lamport clock invariant violated"
            )
        prefixes.append(tuple(prefix))
    return reference_check_prefixes(prefixes)


def reference_transitivity_violations(prefixes):
    """Every ``(i, j, h)`` with ``h`` in P_j, ``j`` in P_i and ``h`` not
    in P_i, walking each whole prefix."""
    violations = []
    seen_sets = [set(p) for p in prefixes]
    for i, prefix in enumerate(prefixes):
        seen_i = seen_sets[i]
        for j in prefix:
            if seen_sets[j] <= seen_i:
                continue
            for h in prefixes[j]:
                if h not in seen_i:
                    violations.append((i, j, h))
    return violations


def reference_is_transitive(prefixes):
    """Transitivity by each prefix's newest-first walk, skipping an
    index a checked one already covers."""
    seen_sets = [set(p) for p in prefixes]
    for i, prefix in enumerate(prefixes):
        covered = set()
        for j in reversed(prefix):
            if j in covered:
                continue
            if not seen_sets[j] <= seen_sets[i]:
                return False
            covered |= seen_sets[j]
    return True


def reference_bounded_delay_violations(prefixes, times, t):
    """Every ``(i, j)`` with ``j`` at least ``t`` older than ``i`` in
    real time and not in P_i, trying every ``j < i``."""
    violations = []
    for i, prefix in enumerate(prefixes):
        seen = set(prefix)
        for j in range(i):
            if times[j] <= times[i] - t and j not in seen:
                violations.append((i, j))
    return violations


def reference_derive(initial_state, transactions, prefixes):
    """What conditions (2)-(4) determine, one transaction at a time, as
    ``(update, external actions, apparent state, actual state after)``
    — each apparent state folded from the initial state over the whole
    prefix, exactly as Section 3.1 defines it.  Θ(n²) applies; the
    reference oracle for the execution stepper."""
    updates = []
    actual = initial_state
    for txn, prefix in zip(transactions, prefixes):
        seen = apply_sequence((updates[j] for j in prefix), initial_state)
        decision = txn.decide(seen)
        updates.append(decision.update)
        actual = decision.update.apply(actual)
        yield (
            decision.update, tuple(decision.external_actions), seen, actual
        )


def attach_bare(service, node_id, on_deliver, on_batch=None, groups=None):
    """Attach ``node_id`` (holding ``groups``) the way a minimal owner
    would: forward every payload from its transport slot to the service,
    and unpack each delivery batch into ``on_deliver(key, item)`` calls —
    or hand the batch to ``on_batch`` whole when one is given."""

    def unpack(batch):
        for key, item in batch:
            on_deliver(key, item)

    service.attach(node_id, on_batch or unpack, groups=groups)
    service.transport.register(
        node_id,
        lambda src, payload: service.receive(node_id, payload, src=src),
    )


def count_python_calls(fn):
    """Run ``fn()`` and return how many Python-level function calls
    (generator resumptions included, C calls not) it executed — a
    deterministic stand-in for a stopwatch."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # a collection inside the window would count the finalizers of
    # whatever earlier tests left in reference cycles.
    was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if was_enabled:
            gc.enable()
    return calls


class Probed(dict):
    """A delivered mapping that counts its membership probes, including
    those a set inclusion against its keys makes."""

    probes = 0

    def __contains__(self, key):
        self.probes += 1
        return dict.__contains__(self, key)

    def keys(self):
        return KeysView(self)


class ReferenceBuffer:
    """The causal gate with no cursors and no memo: one set inclusion
    per readiness check, with ``CausalBuffer``'s counters."""

    def __init__(self, delivered, deliver):
        self.delivered, self.deliver, self.pending = delivered, deliver, {}
        self.buffered_total = self.deferred_total = 0

    def offer(self, key, item, deps):
        if key in self.delivered or key in self.pending:
            return
        self.pending[key] = (item, frozenset(deps))
        progress = True
        while progress:
            progress = False
            for k, (it, ds) in list(self.pending.items()):
                if k in self.pending and ds <= self.delivered.keys():
                    del self.pending[k]
                    self.deliver(k, it)
                    self.deferred_total += k != key
                    progress = True
        if key in self.pending:
            self.buffered_total += 1

    def clear(self):
        n = len(self.pending)
        self.pending.clear()
        return n
