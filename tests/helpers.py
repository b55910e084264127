"""Shared test helpers: attaching a bare :class:`GossipService` (no
``NodeHost`` owning the transport slot), counting Python calls and
mapping probes, and the from-scratch references that the execution's
incremental fold and the causal gate are checked against."""

import gc
import sys
from collections.abc import KeysView

from repro.core.update import apply_sequence


def reference_derive(initial_state, transactions, prefixes):
    """What conditions (2)-(4) determine, one transaction at a time, as
    ``(update, external actions, apparent state, actual state after)``
    — each apparent state folded from the initial state over the whole
    prefix, exactly as Section 3.1 defines it.  Θ(n²) applies; the
    reference oracle for ``Execution._derive``."""
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
