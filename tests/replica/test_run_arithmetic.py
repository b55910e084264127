"""Run arithmetic: the set operations anti-entropy does on run bounds.

A node's delivered keys are kept as run bounds, and the gossip exchange
computes what to push and what to want as run differences, and answers
a want by run intersection.  Each operation must equal the same
operation on the ``frozenset`` of the members, and return canonical
bounds (ascending, non-empty, not adjacent) that the codec accepts."""

from hypothesis import given, settings, strategies as st

from repro.replica import RunSet
from repro.replica.log import (
    add_to_runs, runs_difference, runs_intersection, runs_of, runs_union,
)
from repro.runtime import wire
from tests.replica.test_run_set import int_sets


def canonical(bounds):
    """The bounds survive the decoder's checks, as the members' runs."""
    assert wire._set_from_runs(list(bounds)).bounds == tuple(bounds)
    return frozenset(RunSet(tuple(bounds)))


def bounds_of(members):
    return tuple(runs_of(members))


@settings(max_examples=400)
@given(int_sets(top=300), int_sets(top=300))
def test_difference_matches_frozenset(a, b):
    assert canonical(runs_difference(bounds_of(a), bounds_of(b))) == a - b


@settings(max_examples=400)
@given(int_sets(top=300), int_sets(top=300))
def test_intersection_matches_frozenset(a, b):
    assert canonical(runs_intersection(bounds_of(a), bounds_of(b))) == a & b


@settings(max_examples=300)
@given(st.lists(int_sets(top=300), max_size=4))
def test_union_matches_frozenset(parts):
    expected = frozenset().union(*parts)
    assert canonical(runs_union(*map(bounds_of, parts))) == expected


@settings(max_examples=300)
@given(st.lists(st.integers(-20, 120), max_size=60))
def test_adding_members_one_by_one_keeps_the_runs_of_the_set(order):
    bounds, seen = [], set()
    for member in order:
        assert add_to_runs(bounds, member) == (member not in seen)
        seen.add(member)
        assert bounds == runs_of(seen)


def test_the_operations_cost_runs_not_members():
    """Bounds standing for millions of ints are combined in a few
    steps: nothing is read member by member."""
    big = (0, 10**9)
    holes = (10, 19, 5 * 10**8, 5 * 10**8 + 9)
    assert runs_difference(big, holes) == (
        0, 9, 20, 5 * 10**8 - 1, 5 * 10**8 + 10, 10**9,
    )
    assert runs_intersection(big, holes) == holes
    assert runs_union(holes, big) == big
    assert runs_difference((), big) == () == runs_intersection(big, ())
