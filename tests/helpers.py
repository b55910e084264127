"""Shared test helpers: attaching a bare :class:`GossipService` (no
``NodeHost`` owning the transport slot) and counting Python calls."""

import gc
import sys


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
