"""The per-node storage path: one canonical log, one merge view.

A :class:`Replica` bundles what every storage-bearing component needs:
the timestamp-ordered :class:`~repro.replica.log.SystemLog` (the single
copy of the update sequence), a :class:`~repro.replica.engine.MergeView`
attached to it, and an optional merge-outcome hook through which the
owner (e.g. a cluster with a tracer) observes fast-path hits and
undo/redo repairs.

:class:`MaterializedLog` is the degenerate, always-in-order sibling for
serial executors: appends ride the tail fast path, no timestamps
involved.  Both exist so that *every* component that folds updates into
states — SHARD nodes, partial-replication nodes, the serializable
baselines — goes through one seam.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from ..core.state import State
from ..core.update import Update
from .engine import LogUpdateSource, MergeOutcome, MergeStats, MergeView
from .log import RunSet, SystemLog, UpdateRecord
from .policy import CheckpointPolicy, EveryPositionPolicy, InitialOnlyPolicy

#: anything that builds a merge view (or a seed-compat engine, which is
#: a subclass) from an initial state.
EngineFactory = Callable[[State], MergeView]


def default_engine_factory(initial_state: State) -> MergeView:
    """The suffix profile: fast path plus a snapshot per position."""
    return MergeView(initial_state, policy=EveryPositionPolicy())


def policy_engine_factory(
    make_policy: Callable[[], CheckpointPolicy],
    fast_path: bool = True,
    cost_fn=None,
    commutativity=None,
) -> EngineFactory:
    """An engine factory from a policy factory: each node gets a fresh
    policy instance (policies are stateful — the adaptive one resizes
    from per-node traffic) driving a fast-path merge view.  With
    ``cost_fn`` the view also maintains the incremental per-prefix
    constraint-cost cache; with ``commutativity`` (a pairwise oracle,
    e.g. :meth:`repro.certify.oracle.CommutationOracle.commutes`) it
    takes the certified skip on commuting out-of-order inserts."""

    def factory(initial_state: State) -> MergeView:
        return MergeView(
            initial_state,
            policy=make_policy(),
            fast_path=fast_path,
            cost_fn=cost_fn,
            commutativity=commutativity,
        )

    return factory


class Replica:
    """One replica's storage: canonical log + attached merge view."""

    def __init__(
        self,
        initial_state: State,
        engine_factory: Optional[EngineFactory] = None,
        on_merge: Optional[Callable[[MergeOutcome], None]] = None,
    ):
        self.initial_state = initial_state
        self.log = SystemLog()
        self.engine = (engine_factory or default_engine_factory)(initial_state)
        self.engine.attach(LogUpdateSource(self.log))
        #: called with the MergeOutcome of every accepted record; the
        #: cluster points this at its tracer (merge_fastpath/merge_undo).
        self.on_merge = on_merge

    def __len__(self) -> int:
        return len(self.log)

    @property
    def state(self) -> State:
        """The materialized fold of the log in timestamp order."""
        return self.engine.state

    @property
    def stats(self) -> MergeStats:
        return self.engine.stats

    @property
    def txids(self) -> RunSet:
        return self.log.txids

    def ingest(self, record: UpdateRecord) -> Optional[MergeOutcome]:
        """Insert a record in timestamp order and repair the state;
        returns None on duplicate delivery."""
        position = self.log.insert(record)
        if position is None:
            return None
        outcome = self.engine.merge_at(position)
        if self.on_merge is not None:
            self.on_merge(outcome)
        return outcome

    def ingest_batch(
        self, records
    ) -> Tuple[Tuple[UpdateRecord, ...], Optional[MergeOutcome]]:
        """Insert a whole batch of records (a gossip DELTA, a quiescence
        exchange), then repair the state *once* from the earliest
        insertion point — one undo/redo cycle instead of one per record.

        Records are inserted in ascending timestamp order, so the
        earliest raw insertion position is the batch's final minimum
        position.  Returns the records actually inserted (duplicates
        dropped) and the single :class:`MergeOutcome`, or ``((), None)``
        when every record was a duplicate.
        """
        lowest: Optional[int] = None
        inserted = []
        for record in sorted(records):
            position = self.log.insert(record)
            if position is None:
                continue
            inserted.append(record)
            if lowest is None or position < lowest:
                lowest = position
        if lowest is None:
            return (), None
        outcome = self.engine.merge_span(lowest, len(inserted))
        if self.on_merge is not None:
            self.on_merge(outcome)
        return tuple(inserted), outcome

    def lose_volatile(self) -> Tuple[UpdateRecord, ...]:
        """Crash semantics (repro.chaos): everything past the last
        retained checkpoint is volatile and lost; the stable prefix
        survives.  Returns the lost records so the owner can scrub them
        from dissemination state — anti-entropy re-fetches them later.

        Under ``EveryPositionPolicy`` the whole log is checkpointed and
        nothing is lost; a sparse policy (e.g. ``FixedIntervalPolicy``)
        makes crashes actually destructive.
        """
        stable = self.engine.latest_checkpoint
        lost = self.log.truncate(stable)
        self.engine.rewind_to(stable)
        return lost


class MaterializedLog:
    """An append-only update sequence with its materialized fold.

    The storage seam for components that apply updates strictly in
    order (the serializable baselines): every append is a tail
    fast-path application, and no snapshots beyond the initial state
    are retained unless a policy-bearing factory says otherwise.
    """

    def __init__(
        self,
        initial_state: State,
        engine_factory: Optional[EngineFactory] = None,
    ):
        factory = engine_factory or (
            lambda state: MergeView(state, policy=InitialOnlyPolicy())
        )
        self.engine = factory(initial_state)

    @property
    def state(self) -> State:
        return self.engine.state

    @property
    def stats(self) -> MergeStats:
        return self.engine.stats

    def __len__(self) -> int:
        return self.engine.log_length

    def append(self, update: Update) -> State:
        """Apply ``update`` at the tail (always the fast path)."""
        self.engine.insert(self.engine.log_length, update)
        return self.engine.state
