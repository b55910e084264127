"""One table per application: the only place a generic layer learns
what an application is.

The paper claims its correctness conditions generalize across
resource-allocation domains (Section 1.1); the repo backs that claim
with six applications.  Each is declared here once, as an
:class:`AppEntry`, and every generic layer *derives* what it needs:

* ``initial_state``, ``make_cost`` — what a replica boots from and how
  a cluster prices a state (``workloads.runners``, shardbench);
* ``transactions``, ``updates`` — the classes the app can put in a log;
  ``runtime.wire`` builds its decode tables from them, and ``families``
  is the transactions' ``name``s;
* ``ops`` — what a synthesizer can emit, **in threshold order** with
  default weights.  The order is the determinism contract of
  ``workloads.synth.Synthesizer.__call__`` (one RNG roll walks the
  cumulative weights): reordering an entry changes every stream.  The
  airline order reproduces the legacy runtime load generator's split
  (movers first, then request/cancel at 3:1);
* ``params`` — the numeric knobs and the **only** place their defaults
  are written: ``WorkloadSpec.param_values()`` overlays a spec's
  overrides and ``make_cost`` reads the result by key;
* ``key_prefix`` — how a sampled key rank becomes an entity name
  (``p123``, ``a17``, ...).

Adding an application is one entry here plus one ``_make`` in
``workloads/synth.py`` (apps must not import workloads).

Banking is the one special case: :func:`make_banking_application`
builds a *per-account* constraint set, which is the right granularity
for the paper's three-account example but not for a workload over a
million Zipf-distributed accounts.  Its entry therefore prices the
aggregate overdraft (the sum the per-account constraints would add up
to), which is well-defined for any account population.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Tuple, Type

from ..core.state import State
from ..core.transaction import Transaction
from ..core.update import Update
from . import airline, banking, counter, dictionary, inventory, nameserver

CostFn = Callable[[State], float]
#: knob name -> value, e.g. {"capacity": 10.0}; factories take what they
#: need and ignore the rest.
Params = Mapping[str, float]


def _total_overdraft(state: State) -> float:
    """Aggregate overdraft cost for arbitrary account populations (see
    module docstring; deficits are ints, so summation order is moot)."""
    assert isinstance(state, banking.BankState)
    return float(state.total_overdraft)


@dataclass(frozen=True)
class AppEntry:
    """The single declaration of one application (see module docstring)."""

    name: str
    initial_state: State
    make_cost: Callable[[Params], CostFn]
    transactions: Tuple[Type[Transaction], ...]
    updates: Tuple[Type[Update], ...]
    #: ((op, default weight), ...) in threshold order.
    ops: Tuple[Tuple[str, float], ...]
    #: knob -> default.
    params: Params
    key_prefix: str

    @property
    def families(self) -> Tuple[str, ...]:
        """The transaction family names the app can emit."""
        return tuple(cls.name for cls in self.transactions)


_REGISTRY: Dict[str, AppEntry] = {
    "airline": AppEntry(
        name="airline",
        initial_state=airline.INITIAL_STATE,
        make_cost=lambda p: airline.make_airline_application(
            int(p["capacity"])
        ).cost,
        transactions=(
            airline.Request, airline.Cancel, airline.MoveUp, airline.MoveDown,
        ),
        updates=(
            airline.RequestUpdate, airline.CancelUpdate,
            airline.MoveUpUpdate, airline.MoveDownUpdate,
        ),
        ops=(
            ("move_up", 0.2),
            ("move_down", 0.2),
            ("request", 0.45),
            ("cancel", 0.15),
        ),
        params={"capacity": 10.0},
        key_prefix="p",
    ),
    "banking": AppEntry(
        name="banking",
        initial_state=banking.INITIAL_BANK_STATE,
        make_cost=lambda p: _total_overdraft,
        transactions=(
            banking.Deposit, banking.Withdraw, banking.Transfer,
            banking.Cover, banking.CoverWorst, banking.Audit,
        ),
        updates=(
            banking.CreditUpdate, banking.DebitUpdate, banking.TransferUpdate,
        ),
        ops=(
            ("deposit", 2.0),
            ("withdraw", 2.0),
            ("transfer", 1.0),
            ("audit", 0.25),
        ),
        params={"max_amount": 20.0},
        key_prefix="a",
    ),
    "counter": AppEntry(
        name="counter",
        initial_state=counter.CounterState(0),
        make_cost=lambda p: counter.make_counter_application(
            int(p["limit"])
        ).cost,
        transactions=(counter.Allocate, counter.Release),
        updates=(counter.AddUpdate,),
        ops=(("allocate", 3.0), ("release", 1.0)),
        params={"limit": 10.0},
        key_prefix="k",  # unused: counter transactions carry no keys
    ),
    "dictionary": AppEntry(
        name="dictionary",
        initial_state=dictionary.INITIAL_DICT_STATE,
        make_cost=lambda p: dictionary.make_dictionary_application(
            int(p["capacity"])
        ).cost,
        transactions=(
            dictionary.Insert, dictionary.Delete, dictionary.Prune,
            dictionary.Query,
        ),
        updates=(dictionary.InsertUpdate, dictionary.DeleteUpdate),
        ops=(
            ("insert", 3.0),
            ("delete", 1.0),
            ("prune", 0.2),
            ("query", 2.0),
        ),
        params={"capacity": 100.0},
        key_prefix="w",
    ),
    "inventory": AppEntry(
        name="inventory",
        initial_state=inventory.INITIAL_INVENTORY_STATE,
        make_cost=lambda p: inventory.make_inventory_application().cost,
        transactions=(
            inventory.Order, inventory.CancelOrder, inventory.Commit,
            inventory.Renege, inventory.Restock, inventory.Ship,
        ),
        updates=(
            inventory.OrderUpdate, inventory.CancelOrderUpdate,
            inventory.CommitUpdate, inventory.RenegeUpdate,
            inventory.RestockUpdate, inventory.ShipUpdate,
        ),
        ops=(
            ("order", 3.0),
            ("cancel_order", 0.5),
            ("commit", 1.0),
            ("renege", 0.3),
            ("restock", 0.6),
            ("ship", 0.8),
        ),
        params={"max_restock": 3.0},
        key_prefix="o",
    ),
    "nameserver": AppEntry(
        name="nameserver",
        initial_state=nameserver.INITIAL_NS_STATE,
        make_cost=lambda p: nameserver.make_nameserver_application().cost,
        transactions=(
            nameserver.Register, nameserver.Unregister, nameserver.AddMember,
            nameserver.RemoveMember, nameserver.Scrub, nameserver.Lookup,
        ),
        updates=(
            nameserver.RegisterUpdate, nameserver.UnregisterUpdate,
            nameserver.AddMemberUpdate, nameserver.RemoveMemberUpdate,
            nameserver.PurgeUpdate,
        ),
        ops=(
            ("register", 2.0),
            ("unregister", 0.3),
            ("add_member", 2.5),
            ("remove_member", 0.5),
            ("lookup", 2.0),
            ("scrub", 0.2),
        ),
        params={"groups": 100.0},
        key_prefix="u",
    ),
}

#: every registered application name, alphabetical.
APP_NAMES: Tuple[str, ...] = tuple(sorted(_REGISTRY))

#: transaction families that are pure reads (identity update + report
#: action), so runners can report an observed read fraction.
READ_FAMILIES = frozenset({"AUDIT", "QUERY", "LOOKUP"})


def app_entry(name: str) -> AppEntry:
    """The registry entry for ``name``; raises ``KeyError`` with the
    known names listed otherwise."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown application {name!r}; known: {', '.join(APP_NAMES)}"
        ) from None
