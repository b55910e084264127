"""A span stack recorded from outside the program.

The harness wraps public callables of each layer (``Simulator.run``,
``Network.send``, ``GossipService.receive`` ...) so that every call
opens a span and closes it on return.  Spans nest on one stack; a span's
*self time* is its duration minus the time its direct children covered,
so the self times of all spans under a root add up to the root's
duration exactly.  Per-name totals are aggregated in memory (call count,
total and self nanoseconds) — a long run makes hundreds of thousands of
calls, and keeping each span would itself perturb what is measured.

Every patch is remembered and undone by :meth:`SpanRecorder.restore`;
use the recorder as a context manager so a failing run still restores
the program.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple


class SpanRecorder:
    """Aggregating span stack (single-threaded, synchronous code)."""

    def __init__(self, clock_ns: Callable[[], int] = time.perf_counter_ns):
        self._clock_ns = clock_ns
        #: one cell per open span: nanoseconds covered by its children.
        self._stack: List[List[int]] = []
        #: name -> [calls, total_ns, self_ns]
        self._totals: Dict[str, List[int]] = {}
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _close(self, name: str, started: int, children: List[int]) -> None:
        elapsed = self._clock_ns() - started
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += elapsed
        totals = self._totals.get(name)
        if totals is None:
            totals = self._totals[name] = [0, 0, 0]
        totals[0] += 1
        totals[1] += elapsed
        totals[2] += elapsed - children[0]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span named ``name`` around every call."""

        def traced(*args, **kwargs):
            children = [0]
            self._stack.append(children)
            started = self._clock_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, started, children)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of harness code."""
        children = [0]
        self._stack.append(children)
        started = self._clock_ns()
        try:
            yield
        finally:
            self._close(name, started, children)

    # -- patching ---------------------------------------------------------

    def patch(self, owner: object, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by its traced wrapper until
        :meth:`restore`."""
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    # -- results ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self._totals.get(name, (0, 0, 0))[0]

    def total_s(self, name: str) -> float:
        return self._totals.get(name, (0, 0, 0))[1] / 1e9

    def self_s(self, name: str) -> float:
        return self._totals.get(name, (0, 0, 0))[2] / 1e9

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._totals))

    def table(self) -> Dict[str, Dict[str, float]]:
        """name -> {calls, total_s, self_s}, for the written report."""
        return {
            name: {
                "calls": calls,
                "total_s": total / 1e9,
                "self_s": self_ns / 1e9,
            }
            for name, (calls, total, self_ns) in sorted(self._totals.items())
        }
