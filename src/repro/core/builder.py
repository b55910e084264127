"""Incremental construction of executions under pluggable prefix policies.

The :class:`ExecutionBuilder` constructs an execution one transaction at a
time.  For each transaction, a *prefix policy* (or an explicit prefix)
decides which preceding transactions it sees; the builder then steps it
through ``Execution.run``'s stepper, which runs the decision against the
induced apparent state and threads the actual state.

Policies model information regimes directly — complete prefixes, a fixed
replication lag, random message loss, scripted prefixes for the paper's
worked examples — without simulating a network.  The full SHARD simulator
(:mod:`repro.shard`) produces the same :class:`~repro.core.execution.Execution`
objects from an actual message-passing run.
"""

from __future__ import annotations

import abc
import random
from typing import Callable, Iterable, List, Optional, Tuple, Union

from .execution import (
    Execution, InvalidExecutionError, MissingSets, TimedExecution,
    _missing_of, _Stepper,
)
from .state import State
from .transaction import Transaction
from .update import Update

PrefixSpec = Union[str, Iterable[int], "PrefixPolicy"]


class PrefixPolicy(abc.ABC):
    """Chooses the prefix subsequence for each newly added transaction."""

    @abc.abstractmethod
    def choose(self, builder: "ExecutionBuilder", txn: Transaction) -> Tuple[int, ...]:
        """Return the (sorted) indices of the predecessors ``txn`` sees."""


class CompletePrefix(PrefixPolicy):
    """Every transaction sees everything before it (serializable regime)."""

    def choose(self, builder: "ExecutionBuilder", txn: Transaction) -> Tuple[int, ...]:
        return tuple(range(len(builder)))


class DropLast(PrefixPolicy):
    """Each transaction misses the most recent ``k`` predecessors — the
    classic replication-lag regime.  Every transaction is k-complete."""

    def __init__(self, k: int):
        if k < 0:
            raise ValueError("k must be nonnegative")
        self.k = k

    def choose(self, builder: "ExecutionBuilder", txn: Transaction) -> Tuple[int, ...]:
        n = len(builder)
        return tuple(range(max(0, n - self.k)))


class DropRandom(PrefixPolicy):
    """Each transaction misses up to ``k`` uniformly chosen predecessors.

    ``eligible`` optionally restricts which transactions suffer drops
    (others see complete prefixes), and ``protect`` marks predecessor
    indices that may never be dropped.
    """

    def __init__(
        self,
        k: int,
        rng: random.Random,
        eligible: Optional[Callable[[Transaction], bool]] = None,
        protect: Optional[Callable[["ExecutionBuilder", int], bool]] = None,
    ):
        if k < 0:
            raise ValueError("k must be nonnegative")
        self.k = k
        self.rng = rng
        self.eligible = eligible
        self.protect = protect

    def choose(self, builder: "ExecutionBuilder", txn: Transaction) -> Tuple[int, ...]:
        n = len(builder)
        if self.eligible is not None and not self.eligible(txn):
            return tuple(range(n))
        droppable = [
            j for j in range(n)
            if self.protect is None or not self.protect(builder, j)
        ]
        if not droppable:
            return tuple(range(n))
        how_many = self.rng.randint(0, min(self.k, len(droppable)))
        dropped = set(self.rng.sample(droppable, how_many))
        return tuple(j for j in range(n) if j not in dropped)


class ScriptedPrefix(PrefixPolicy):
    """Prefixes given explicitly per position; used to reproduce the
    paper's worked examples verbatim.  Positions absent from the script
    get complete prefixes."""

    def __init__(self, script: dict):
        self.script = dict(script)

    def choose(self, builder: "ExecutionBuilder", txn: Transaction) -> Tuple[int, ...]:
        n = len(builder)
        if n in self.script:
            return tuple(sorted(self.script[n]))
        return tuple(range(n))


class ExecutionBuilder:
    """Builds an execution incrementally; see module docstring."""

    def __init__(self, initial_state: State, policy: Optional[PrefixPolicy] = None):
        initial_state.require_well_formed()
        self.initial_state = initial_state
        self.policy = policy or CompletePrefix()
        self._transactions: List[Transaction] = []
        self._missing: List[Tuple[int, ...]] = []
        self._stepper = _Stepper(initial_state)
        self._times: List[float] = []

    def __len__(self) -> int:
        return len(self._transactions)

    @property
    def current_state(self) -> State:
        """The actual state after everything added so far."""
        return self._stepper.actual_states[-1]

    @property
    def updates(self) -> Tuple[Update, ...]:
        return tuple(self._stepper.updates)

    def apparent_after(self, index: int) -> State:
        """The apparent state after the transaction at ``index`` (its
        decision's view of the world once its update runs)."""
        stepper = self._stepper
        return stepper.updates[index].apply(stepper.apparent_before[index])

    def add(
        self,
        txn: Transaction,
        prefix: Optional[PrefixSpec] = None,
        time: Optional[float] = None,
    ) -> int:
        """Append ``txn``; returns its index.

        ``prefix`` may be the string ``"complete"``, an explicit iterable
        of indices, a one-off :class:`PrefixPolicy`, or None to use the
        builder's default policy.
        """
        n = len(self._transactions)
        chosen: Tuple[int, ...]
        if prefix is None:
            chosen = tuple(self.policy.choose(self, txn))
        elif isinstance(prefix, str):
            if prefix != "complete":
                raise ValueError(f"unknown prefix spec {prefix!r}")
            chosen = tuple(range(n))
        elif isinstance(prefix, PrefixPolicy):
            chosen = tuple(prefix.choose(self, txn))
        else:
            chosen = tuple(sorted(prefix))
        if chosen and (chosen[0] < 0 or chosen[-1] >= n):
            raise InvalidExecutionError(
                f"prefix {chosen} invalid for transaction {n}"
            )

        gone = _missing_of(n, chosen)
        self._stepper.step(txn, gone)
        self._transactions.append(txn)
        self._missing.append(gone)
        self._times.append(time if time is not None else float(n))
        return n

    def add_all(
        self,
        txns: Iterable[Transaction],
        prefix: Optional[PrefixSpec] = None,
    ) -> List[int]:
        return [self.add(t, prefix) for t in txns]

    def build(self) -> Execution:
        return Execution._of_steps(
            self._transactions, MissingSets(self._missing), self._stepper
        )

    def build_timed(self) -> TimedExecution:
        return TimedExecution(self.build(), self._times)
