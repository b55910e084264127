"""The live Clock adapter: scaled wall clock over a shared epoch.

This is the single module in the repository allowed to read the host's
clock (shardlint R3 allowlists exactly this path; see
``repro/lint/rules/determinism.py``).  Everything else — protocol state
machines, the node server, the supervisor — takes time through the
:class:`repro.ports.Clock` port this module implements.

Two design points matter for fault replay:

* **Shared epoch.**  All node processes of one cluster are handed the
  same ``epoch`` (a wall-clock instant chosen by the supervisor before
  the first spawn).  ``now`` is seconds since that epoch, so fault
  windows expressed on the plan's time axis ("partition [10, 30)") mean
  the same instant in every process — the property the simulator gets
  for free from its single virtual clock.
* **Time scale.**  Plans and gossip intervals are authored in simulated
  seconds where anti-entropy ticks every ~5 units.  Replaying that in
  real time would make every test minutes long, so the adapter maps
  ``scale`` wall seconds onto one plan second (default 0.05: a 60-unit
  plan replays in three wall seconds).  ``now`` and ``schedule`` both
  live on the *plan* axis; only this module touches the wall axis.
"""

from __future__ import annotations

import asyncio
import time
from typing import Optional

from ..ports import Action, TimerHandle


def wall_epoch() -> float:
    """A fresh cluster epoch (wall seconds); supervisor use only."""
    return time.time()


def perf_ns() -> int:
    """Monotonic nanoseconds for the runtime's profiling counters.

    Profiling (codec time, frame accounting) is honest wall measurement
    and therefore must live behind this module's R3 allowlist like every
    other clock read; the counters it feeds stay outside deterministic
    payloads.  The simulator side has no counterpart: nothing outside
    this module reads a clock, and ``benchmarks/shardbench`` times both
    sides from outside the package.
    """
    return time.perf_counter_ns()


class _LoopTimer:
    """TimerHandle over ``loop.call_later``."""

    def __init__(self, handle: asyncio.TimerHandle):
        self._handle = handle

    def cancel(self) -> None:
        self._handle.cancel()


class RuntimeClock:
    """The :class:`repro.ports.Clock` adapter for live asyncio processes."""

    def __init__(
        self,
        epoch: float,
        scale: float = 0.05,
        loop: Optional[asyncio.AbstractEventLoop] = None,
    ):
        if scale <= 0:
            raise ValueError("time scale must be positive")
        self.epoch = epoch
        self.scale = scale
        self._loop = loop

    def _event_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
        return self._loop

    @property
    def now(self) -> float:
        """Plan-axis seconds since the shared cluster epoch."""
        return (time.time() - self.epoch) / self.scale

    def schedule(self, delay: float, action: Action) -> TimerHandle:
        """Run ``action`` after ``delay`` plan-axis seconds."""
        wall_delay = max(0.0, delay) * self.scale
        handle = self._event_loop().call_later(wall_delay, action)
        return _LoopTimer(handle)

    def to_wall(self, plan_delay: float) -> float:
        """Convert a plan-axis duration to wall seconds (supervisor
        timers for fault schedules use this)."""
        return plan_delay * self.scale
