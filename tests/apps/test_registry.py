"""``apps.registry``: one self-consistent table per application."""

from collections import Counter

import pytest

from repro.apps.registry import APP_NAMES, READ_FAMILIES, app_entry
from repro.workloads import WorkloadSpec

#: literal, so a reorder of an entry's ``transactions`` is caught.
EXPECTED_FAMILIES = {
    "airline": ("REQUEST", "CANCEL", "MOVE_UP", "MOVE_DOWN"),
    "banking": (
        "DEPOSIT", "WITHDRAW", "TRANSFER", "COVER", "COVER_WORST", "AUDIT",
    ),
    "counter": ("ALLOCATE", "RELEASE"),
    "dictionary": ("INSERT", "DELETE", "PRUNE", "QUERY"),
    "inventory": (
        "ORDER", "CANCEL_ORDER", "COMMIT", "RENEGE", "RESTOCK", "SHIP",
    ),
    "nameserver": (
        "REGISTER", "UNREGISTER", "ADD_MEMBER", "REMOVE_MEMBER", "SCRUB",
        "LOOKUP",
    ),
}

#: the apps whose cost function reads a knob.
KNOB_PRICED = {"airline": "capacity", "counter": "limit",
               "dictionary": "capacity"}


def test_the_six_apps_are_registered():
    assert APP_NAMES == tuple(sorted(EXPECTED_FAMILIES))
    with pytest.raises(KeyError, match="known: airline"):
        app_entry("blockchain")


@pytest.mark.parametrize("name", APP_NAMES)
def test_families_are_the_transaction_class_names(name):
    entry = app_entry(name)
    assert entry.name == name
    assert entry.families == EXPECTED_FAMILIES[name]
    assert isinstance(type(entry).families, property)


@pytest.mark.parametrize("name", APP_NAMES)
def test_every_op_names_one_of_the_apps_families(name):
    entry = app_entry(name)
    ops = [op for op, _ in entry.ops]
    assert len(set(ops)) == len(ops)
    assert {op.upper() for op in ops} <= set(entry.families)
    assert all(weight > 0 for _, weight in entry.ops)


def test_family_and_update_names_are_unique_across_apps():
    entries = [app_entry(name) for name in APP_NAMES]
    families = Counter(f for e in entries for f in e.families)
    updates = Counter(cls.name for e in entries for cls in e.updates)
    assert [n for n, c in families.items() if c > 1] == []
    assert [n for n, c in updates.items() if c > 1] == []
    assert sum(families.values()) == 28
    assert sum(updates.values()) == 21
    assert READ_FAMILIES <= set(families)


@pytest.mark.parametrize("name", APP_NAMES)
def test_params_is_the_only_place_a_default_is_written(name):
    entry = app_entry(name)
    spec = WorkloadSpec(name="defaults", category=name)
    assert spec.param_values() == dict(entry.params)
    # the cost factory takes the merged knobs and has no default of its
    # own to fall back on.
    assert callable(entry.make_cost(spec.param_values()))
    if name in KNOB_PRICED:
        with pytest.raises(KeyError, match=KNOB_PRICED[name]):
            entry.make_cost({})
    else:
        assert callable(entry.make_cost({}))
