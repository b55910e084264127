"""Policy-driven undo/redo merge views over a shared update sequence.

A SHARD node's database copy must always equal the result of applying its
log's updates in timestamp order to the initial state (Sections 1.2,
3.3; [BK]).  The seed implementation gave each merge engine a private
copy of the update sequence; here the engine is a *view*: it reads
updates from an :class:`UpdateSource` it does not own — either the
node's canonical :class:`~repro.replica.log.SystemLog` (via
:class:`LogUpdateSource`) or, for standalone use and the seed
compatibility shims, a plain list it manages itself.

Two cost mechanisms:

* **tail fast path** — an insertion at the end of the log (in-order
  arrival, the overwhelmingly common case) is a single ``apply`` against
  the cached current state: no undo, no replay.  Counted separately in
  :class:`MergeStats` so benchmarks can report the hit rate.
* **checkpoint replay** — an out-of-order insertion invalidates the
  snapshots past the insertion point and replays from the nearest
  retained checkpoint at or before it.  Which snapshots are retained is
  the :mod:`~repro.replica.policy`'s call; eviction runs incrementally
  during replay so peak memory stays within the policy's bound.

Two hot-path extensions (the performance pass):

* **batched spans** — :meth:`MergeView.merge_span` repairs the view once
  after the source gained a whole *batch* of updates (a gossip DELTA, a
  quiescence exchange), paying a single undo/redo cycle from the
  earliest insertion point instead of one cycle per record.
* **incremental constraint costs** — with a ``cost_fn`` installed the
  view maintains the per-prefix integrity-constraint cost series
  ``cost(fold(updates[:j], initial))`` for every prefix length ``j``,
  keyed by log position.  An insertion at position ``p`` leaves every
  prefix of length ``<= p`` unchanged, so only the suffix costs are
  invalidated and re-evaluated (during the replay, whose states are in
  hand anyway); the surviving prefix entries are *hits* — evaluations a
  from-scratch recomputation of the series would have repeated.
  :class:`CostCacheStats` reports the hit rate.

One certified extension (repro.certify):

* **certified commutativity skip** — with a ``commutativity`` oracle
  installed (see :mod:`repro.certify.oracle`), a single out-of-order
  insertion whose displaced suffix consists entirely of updates the
  oracle certifies as commuting with the new one is applied *in place*:
  the new update bubbles to the tail (``fold(prefix + [u] + suffix) ==
  fold(prefix + suffix + [u])``, by pairwise commutation), so one
  ``apply`` against the cached tail state replaces the whole undo/redo
  replay.  Counted in :attr:`MergeStats.certified_hits`; the skipped
  replay length is reported in :attr:`MergeOutcome.skipped`.  A
  certified skip drops the snapshots and cached prefix costs past the
  insertion point without eagerly recomputing them — intermediate
  prefix states changed even though the final state did not — so the
  cost cache is *lazily* completed by :meth:`MergeView.prefix_cost` on
  demand rather than eagerly between merges.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol

from ..core.state import State
from ..core.update import Update
from .log import SystemLog
from .policy import CheckpointPolicy, EveryPositionPolicy

#: integrity-constraint cost of one state (the paper's ``cost(s)``).
CostFn = Callable[[State], float]

#: a pairwise commutation oracle: ``commutes(new, displaced)`` answers
#: whether the two updates may be swapped without changing the fold.
#: Must be *sound* (True only when apply(a, apply(b, s)) ==
#: apply(b, apply(a, s)) for every reachable state s); certificates from
#: :mod:`repro.certify` provide exactly this.
CommutativityFn = Callable[[Update, Update], bool]


@dataclass
class MergeStats:
    """Work and memory accounting, reported by the E11 benchmark."""

    inserts: int = 0
    updates_applied: int = 0
    snapshots_held: int = 0
    fastpath_hits: int = 0
    undo_redo_merges: int = 0
    #: out-of-order inserts resolved by the certified-commutativity
    #: skip: one in-place apply instead of an undo/redo replay.
    certified_hits: int = 0
    max_displacement: int = 0
    #: repairs that covered more than one freshly inserted record
    #: (gossip DELTA batches, quiescence exchanges), and how many
    #: records those batched repairs covered in total.
    batch_merges: int = 0
    batched_inserts: int = 0

    @property
    def fastpath_rate(self) -> float:
        return self.fastpath_hits / self.inserts if self.inserts else 0.0


@dataclass
class CostCacheStats:
    """Accounting for the incremental per-prefix cost cache.

    ``evaluations`` counts actual ``cost_fn`` calls; ``hits`` counts
    prefix costs that survived an undo/redo repair and were reused —
    exactly the evaluations a from-scratch recomputation of the whole
    cost series (what a cache-less merge does on every non-tail insert)
    would have repeated.  Tail fast-path appends put nothing at risk, so
    they evaluate once and contribute no hits."""

    evaluations: int = 0
    hits: int = 0
    invalidated: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.evaluations
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class MergeOutcome:
    """What one repair cost: the fast path, or an undo/redo replay of
    ``replayed`` updates for a span of ``added`` insertions beginning
    ``displacement`` positions from the pre-batch tail.

    A *certified* outcome is neither: the displaced suffix was entirely
    certified-commutative with the new update, so the repair was one
    in-place apply (``replayed == 1``) that skipped a replay of
    ``skipped`` updates."""

    fastpath: bool
    replayed: int
    displacement: int
    added: int = 1
    certified: bool = False
    #: replay applications the certified skip avoided (what the
    #: undo/redo branch would have replayed, minus the one apply paid).
    skipped: int = 0


class UpdateSource(Protocol):
    """The read interface a merge view needs over the update sequence."""

    def __len__(self) -> int: ...

    def update_at(self, position: int) -> Update: ...


class ListUpdateSource:
    """A self-owned sequence, for standalone engines and tests."""

    def __init__(self) -> None:
        self._updates: List[Update] = []

    def __len__(self) -> int:
        return len(self._updates)

    def update_at(self, position: int) -> Update:
        return self._updates[position]

    def insert(self, position: int, update: Update) -> None:
        self._updates.insert(position, update)


class LogUpdateSource:
    """A view over a node's canonical :class:`SystemLog` — the log is
    the single copy of the sequence; nothing is shadowed here."""

    def __init__(self, log: SystemLog) -> None:
        self._log = log

    def __len__(self) -> int:
        return len(self._log)

    def update_at(self, position: int) -> Update:
        return self._log[position].update


class MergeView:
    """Maintains the materialized state of a timestamp-ordered update
    sequence it observes, under a checkpoint-retention policy.

    Used in two modes:

    * **attached** (the replica path): construct, then :meth:`attach` a
      :class:`LogUpdateSource`; the owner inserts into the log and calls
      :meth:`merge_at` with the insertion position.
    * **standalone** (seed compatibility, tests): call
      :meth:`insert`, which manages a private :class:`ListUpdateSource`.
    """

    def __init__(
        self,
        initial_state: State,
        policy: Optional[CheckpointPolicy] = None,
        fast_path: bool = True,
        cost_fn: Optional[CostFn] = None,
        commutativity: Optional[CommutativityFn] = None,
    ):
        self.initial_state = initial_state
        self.policy = policy if policy is not None else EveryPositionPolicy()
        self.fast_path = fast_path
        #: pairwise commutation oracle gating the certified skip; None
        #: (the default) disables it and preserves seed behaviour.
        self._commutes = commutativity
        self.stats = MergeStats()
        self.cost_stats = CostCacheStats()
        self._source: Optional[UpdateSource] = None
        #: sorted retained checkpoint positions; _snapshots[p] is the
        #: state after the first p updates.  Position 0 is always kept.
        self._positions: List[int] = [0]
        self._snapshots: Dict[int, State] = {0: initial_state}
        self._state = initial_state
        self._cost_fn = cost_fn
        #: per-prefix constraint costs keyed by log position: entry j is
        #: cost(fold(updates[:j], initial)).  Maintained eagerly (every
        #: position 0..len(source) is present between merges) and
        #: invalidated past the insertion point on non-tail inserts and
        #: rewinds — see ``_drop_after``.  Certified skips relax the
        #: eagerness: they invalidate without replaying, leaving the
        #: suffix entries to ``prefix_cost``'s lazy recompute.
        self._prefix_costs: Dict[int, float] = {}
        if cost_fn is not None:
            self._prefix_costs[0] = self._evaluate_cost(initial_state)

    # -- wiring ----------------------------------------------------------

    def attach(self, source: UpdateSource) -> "MergeView":
        """Bind this view to an externally owned update sequence (must
        happen before any merging)."""
        if self._source is not None and len(self._source) > 0:
            raise RuntimeError("cannot attach a source after merging began")
        self._source = source
        return self

    @property
    def source(self) -> UpdateSource:
        if self._source is None:
            self._source = ListUpdateSource()
        return self._source

    @property
    def log_length(self) -> int:
        return len(self.source)

    @property
    def state(self) -> State:
        """The materialized state of the full sequence."""
        return self._state

    @property
    def snapshot_count(self) -> int:
        """Snapshots currently held (including the initial state)."""
        return len(self._positions)

    # -- merging ---------------------------------------------------------

    def insert(self, position: int, update: Update) -> MergeOutcome:
        """Standalone API: insert ``update`` at ``position`` in the
        view's own sequence and restore the invariant
        state == fold(updates, initial_state)."""
        source = self.source
        if not isinstance(source, ListUpdateSource):
            raise TypeError(
                "attached views merge via merge_at(); the log owner inserts"
            )
        if not 0 <= position <= len(source):
            raise IndexError(f"insert position {position} out of range")
        source.insert(position, update)
        return self.merge_at(position)

    def merge_at(self, position: int) -> MergeOutcome:
        """Restore the invariant after the source gained an update at
        ``position``; returns what the repair cost."""
        return self.merge_span(position, 1)

    def merge_span(self, position: int, added: int) -> MergeOutcome:
        """Restore the invariant after the source gained ``added``
        updates, the earliest of which now sits at ``position``.

        This is the batched repair: a gossip DELTA (or quiescence
        exchange) inserts its whole sorted record batch into the log
        first, then pays one undo/redo cycle from the earliest insertion
        point — instead of one cycle per record.  ``merge_at`` is the
        ``added == 1`` special case.
        """
        source = self.source
        n = len(source)
        if added < 1:
            raise ValueError(f"span must add at least one update, got {added}")
        if not 0 <= position <= n - added:
            raise IndexError(
                f"merge span start {position} (+{added}) out of range for "
                f"log of {n}"
            )
        self.stats.inserts += added
        if added > 1:
            self.stats.batch_merges += 1
            self.stats.batched_inserts += added
        #: pre-existing records the repair had to undo past; 0 means the
        #: batch is a pure tail extension.
        displacement = n - added - position
        if self.fast_path and displacement == 0:
            state = self._state
            for j in range(position, n):
                state = source.update_at(j).apply(state)
                self.stats.updates_applied += 1
                self._note_cost(j + 1, state)
                self._retain(j + 1, state, n)
            self._state = state
            self.stats.fastpath_hits += added
            outcome = MergeOutcome(
                fastpath=True, replayed=added, displacement=0, added=added
            )
        elif (
            self.fast_path
            and added == 1
            and self._commutes is not None
            and self._suffix_commutes(position, n)
        ):
            # The new update at ``position`` pairwise-commutes with the
            # whole displaced suffix, so it bubbles to the tail: one
            # apply against the cached state replaces the replay.  The
            # intermediate prefix states past the insertion point *did*
            # change, so their snapshots and cached costs are dropped
            # (prefix_cost recomputes lazily if asked).
            base = self._positions[
                bisect.bisect_right(self._positions, position) - 1
            ]
            self._drop_after(position, count_hits=True)
            state = source.update_at(position).apply(self._state)
            self.stats.updates_applied += 1
            self._state = state
            self._note_cost(n, state)
            self._retain(n, state, n)
            self.stats.certified_hits += 1
            self.stats.max_displacement = max(
                self.stats.max_displacement, displacement
            )
            outcome = MergeOutcome(
                fastpath=False,
                replayed=1,
                displacement=displacement,
                added=1,
                certified=True,
                skipped=(n - base) - 1,
            )
        else:
            self._drop_after(position, count_hits=True)
            base = self._positions[
                bisect.bisect_right(self._positions, position) - 1
            ]
            state = self._snapshots[base]
            for j in range(base, n):
                state = source.update_at(j).apply(state)
                self.stats.updates_applied += 1
                self._note_cost(j + 1, state)
                self._retain(j + 1, state, n)
            self._state = state
            self.stats.undo_redo_merges += 1
            self.stats.max_displacement = max(
                self.stats.max_displacement, displacement
            )
            outcome = MergeOutcome(
                fastpath=False,
                replayed=n - base,
                displacement=displacement,
                added=added,
            )
        self.policy.observe(displacement)
        if len(self._positions) > self.stats.snapshots_held:
            self.stats.snapshots_held = len(self._positions)
        return outcome

    def _suffix_commutes(self, position: int, n: int) -> bool:
        """Does the freshly inserted update at ``position`` commute with
        every displaced record after it?"""
        source = self.source
        new = source.update_at(position)
        return all(
            self._commutes(new, source.update_at(j))
            for j in range(position + 1, n)
        )

    # -- crash recovery (repro.chaos) ------------------------------------

    @property
    def latest_checkpoint(self) -> int:
        """The largest retained checkpoint position — the stable prefix
        length that survives a volatile-state-losing crash."""
        return self._positions[-1]

    def rewind_to(self, position: int) -> State:
        """Reset the view to the retained checkpoint at ``position``,
        discarding every later snapshot and the cached tail state.

        The caller owns the source and must truncate it to the same
        length — after both, the invariant
        state == fold(updates, initial_state) holds again.
        """
        if position not in self._snapshots:
            raise ValueError(
                f"no retained checkpoint at position {position} "
                f"(have {self._positions})"
            )
        self._drop_after(position)
        self._state = self._snapshots[position]
        return self._state

    # -- incremental constraint costs ------------------------------------

    @property
    def cost_fn(self) -> Optional[CostFn]:
        return self._cost_fn

    @property
    def state_cost(self) -> float:
        """``cost_fn`` of the current materialized state."""
        return self.prefix_cost(len(self.source))

    def prefix_cost(self, position: int) -> float:
        """The constraint cost of the state after the first ``position``
        updates — from the cache when the entry is live, otherwise (only
        possible after external source manipulation) recomputed by a
        replay from the nearest retained checkpoint, filling the cache
        on the way."""
        if self._cost_fn is None:
            raise RuntimeError("no cost_fn installed on this view")
        if not 0 <= position <= len(self.source):
            raise IndexError(f"prefix length {position} out of range")
        cached = self._prefix_costs.get(position)
        if cached is not None:
            return cached
        base = self._positions[
            bisect.bisect_right(self._positions, position) - 1
        ]
        state = self._snapshots[base]
        for j in range(base, position):
            state = self.source.update_at(j).apply(state)
            self._note_cost(j + 1, state)
        return self._prefix_costs[position]

    def cost_series(self) -> List[float]:
        """Per-prefix costs for every length 0..len(source)."""
        return [self.prefix_cost(j) for j in range(len(self.source) + 1)]

    def _evaluate_cost(self, state: State) -> float:
        self.cost_stats.evaluations += 1
        return self._cost_fn(state)

    def _note_cost(self, position: int, state: State) -> None:
        if self._cost_fn is None:
            return
        if position not in self._prefix_costs:
            self._prefix_costs[position] = self._evaluate_cost(state)

    # -- checkpoint bookkeeping ------------------------------------------

    def _retain(self, position: int, state: State, log_length: int) -> None:
        if not self.policy.retain(position, log_length):
            return
        if position not in self._snapshots:
            bisect.insort(self._positions, position)
            self._snapshots[position] = state
        else:
            self._snapshots[position] = state
        drop = self.policy.evict(self._positions, log_length)
        if drop:
            dropped = set(drop) - {0}
            self._positions = [
                p for p in self._positions if p not in dropped
            ]
            for p in sorted(dropped):
                del self._snapshots[p]

    def _drop_after(self, position: int, count_hits: bool = False) -> None:
        """Invalidate checkpoints (and cached prefix costs) past an
        insertion point: a snapshot or cost at p > position no longer
        reflects the first p updates.  With ``count_hits`` the surviving
        cost entries count as cache hits: a from-scratch recomputation
        of the series (the cache-less behaviour) would re-evaluate them."""
        index = bisect.bisect_right(self._positions, position)
        for p in self._positions[index:]:
            del self._snapshots[p]
        del self._positions[index:]
        if self._cost_fn is not None:
            if self._commutes is None:
                # only certified skips leave holes: the cache is exactly
                # positions 0..len-1, so the stale keys are a range.
                stale = range(position + 1, len(self._prefix_costs))
            else:
                stale = [p for p in self._prefix_costs if p > position]
            if count_hits:
                self.cost_stats.hits += len(self._prefix_costs) - len(stale)
            for p in stale:
                del self._prefix_costs[p]
            self.cost_stats.invalidated += len(stale)
