"""Tests for the system-guaranteed conditions (Section 3.2)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.counter import Allocate, CounterState, Release
from repro.core import (
    Execution,
    TimedExecution,
    all_k_complete,
    bounded_delay_violations,
    centralization_violations,
    family_predicate,
    group_by_family,
    group_by_update_param,
    has_complete_prefix,
    is_atomic,
    is_centralized,
    is_k_complete,
    is_transitive,
    max_deficit,
    transitive_closure_prefixes,
    transitivity_violations,
)
from tests.helpers import (
    reference_bounded_delay_violations,
    reference_is_transitive,
    reference_transitivity_violations,
)


def run(prefixes, families=None):
    n = len(prefixes)
    txns = []
    for i in range(n):
        fam = families[i] if families else "A"
        txns.append(Allocate(100) if fam == "A" else Release(0))
    return Execution.run(CounterState(0), txns, prefixes)


class TestTransitivity:
    def test_complete_prefixes_are_transitive(self):
        e = run([(), (0,), (0, 1)])
        assert is_transitive(e)
        assert transitivity_violations(e) == []

    def test_violation_detected(self):
        # 2 sees 1, 1 sees 0, but 2 does not see 0.
        e = run([(), (0,), (1,)])
        assert not is_transitive(e)
        assert (2, 1, 0) in transitivity_violations(e)

    def test_violation_behind_the_newest_predecessor_detected(self):
        # 3's newest predecessor 2 is fine; 1 (which saw 0) is not.
        e = run([(), (0,), (), (1, 2)])
        assert not is_transitive(e)
        assert transitivity_violations(e) == [(3, 1, 0)]

    def test_empty_prefixes_trivially_transitive(self):
        e = run([(), (), ()])
        assert is_transitive(e)

    def test_closure_adds_missing_indices(self):
        e = run([(), (0,), (1,)])
        closed = transitive_closure_prefixes(e)
        assert closed == ((), (0,), (0, 1)) or closed[2] == (0, 1)

    def test_closure_idempotent_on_transitive(self):
        e = run([(), (0,), (0, 1)])
        assert transitive_closure_prefixes(e) == e.prefixes


def brute_force_violations(prefixes):
    """Every ``(i, j, h)`` with ``h`` in P_j, ``j`` in P_i, ``h`` not in
    P_i, by the definition and nothing else."""
    return [
        (i, j, h)
        for i, prefix in enumerate(prefixes)
        for j in prefix
        for h in prefixes[j]
        if h not in prefix
    ]


@st.composite
def prefix_families(draw):
    """Random prefixes; or their transitive closure; or that closure
    with a few indices knocked out again.  A knocked-out index is one
    the newest member of the prefix did not see where there is one, so
    the violation lies behind it and not at it."""
    n = draw(st.integers(min_value=0, max_value=40))
    density = draw(st.sampled_from((0.1, 0.4, 0.8)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    prefixes = [
        frozenset(j for j in range(i) if rng.random() < density)
        for i in range(n)
    ]
    family = draw(st.sampled_from(("random", "closed", "knocked")))
    if family != "random":
        closed = []
        for prefix in prefixes:
            closed.append(prefix.union(*(closed[j] for j in prefix)))
        prefixes = closed
    if family == "knocked":
        for _ in range(draw(st.integers(1, 3))):
            i = rng.randrange(n) if n else 0
            if prefixes and prefixes[i]:
                newest = max(prefixes[i])
                behind = prefixes[i] - prefixes[newest] - {newest}
                knock = rng.choice(sorted(behind or prefixes[i]))
                prefixes[i] = prefixes[i] - {knock}
    return [tuple(sorted(p)) for p in prefixes]


@given(prefix_families())
@settings(max_examples=300, deadline=None)
def test_transitivity_checks_agree_with_brute_force(prefixes):
    e = run(prefixes)
    expected = brute_force_violations(prefixes)
    assert transitivity_violations(e) == expected
    assert transitivity_violations(e) == (
        reference_transitivity_violations(prefixes)
    )
    assert is_transitive(e) == (not expected)
    assert is_transitive(e) == reference_is_transitive(prefixes)


def reference_centralization_violations(prefixes, group):
    members = sorted(set(group))
    return [
        (i, j) for pos, i in enumerate(members) for j in members[:pos]
        if j not in prefixes[i]
    ]


def reference_is_atomic(prefixes, indices):
    """Section 3.1's two clauses on the tuple form."""
    if indices != list(range(indices[0], indices[-1] + 1)):
        return False
    start = indices[0]
    outside = {tuple(j for j in prefixes[i] if j < start) for i in indices}
    return len(outside) == 1 and all(
        j in prefixes[i] for pos, i in enumerate(indices)
        for j in indices[:pos]
    )


@given(prefix_families(), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_missing_form_conditions_agree_with_the_tuple_form(prefixes, seed):
    """Bounded delay, centralization and atomicity read missing sets;
    each gives what the tuple form gives, pairs in the same order."""
    rng = random.Random(seed)
    times = sorted(rng.uniform(0.0, 20.0) for _ in prefixes)
    e = TimedExecution(run(prefixes), times)
    for t in (0.0, 1.0, 5.0):
        assert bounded_delay_violations(e, t) == (
            reference_bounded_delay_violations(prefixes, times, t)
        )
    group = [i for i in e.indices if rng.random() < 0.5]
    assert centralization_violations(e, group) == (
        reference_centralization_violations(prefixes, group)
    )
    if prefixes:
        start = rng.randrange(len(prefixes))
        span = list(range(start, rng.randrange(start, len(prefixes)) + 1))
        assert is_atomic(e, span) == reference_is_atomic(prefixes, span)


class TestCompleteness:
    def test_k_complete(self):
        e = run([(), (), (0,)])
        assert is_k_complete(e, 1, 1)
        assert not is_k_complete(e, 1, 0)
        assert has_complete_prefix(e, 0)
        assert not has_complete_prefix(e, 1)

    def test_all_k_complete_and_max_deficit(self):
        e = run([(), (), (0,), ()])
        assert max_deficit(e) == 3
        assert all_k_complete(e, 3)
        assert not all_k_complete(e, 2)

    def test_family_predicate_filters(self):
        e = run([(), (), ()], families=["A", "R", "A"])
        pred = family_predicate("RELEASE")
        assert max_deficit(e, which=pred) == 1
        assert all_k_complete(e, 1, which=pred)


class TestCentralization:
    def test_centralized_group(self):
        e = run([(), (0,), (1,), (0, 1, 2)], families=["A", "R", "A", "R"])
        movers = group_by_family(e, "RELEASE")
        assert movers == (1, 3)
        assert not centralization_violations(e, movers)
        assert is_centralized(e, movers)

    def test_violation_detected(self):
        e = run([(), (), ()], families=["R", "A", "R"])
        movers = group_by_family(e, "RELEASE")
        assert centralization_violations(e, movers) == [(2, 0)]
        assert not is_centralized(e, movers)

    def test_empty_group_is_centralized(self):
        e = run([()])
        assert is_centralized(e, ())

    def test_group_by_update_param(self):
        e = run([(), ()])
        # both Allocates below limit generate add(1) updates.
        assert group_by_update_param(e, 1) == (0, 1)
        assert group_by_update_param(e, 99) == ()


class TestAtomicity:
    def test_atomic_run(self):
        # 1 and 2 form an atomic pair: 2 sees 1, both see {0} outside.
        e = run([(), (0,), (0, 1)])
        assert is_atomic(e, [1, 2])

    def test_not_consecutive(self):
        e = run([(), (0,), (0, 1), (0, 1, 2)])
        assert not is_atomic(e, [1, 3])

    def test_differing_outside_view_breaks_atomicity(self):
        # 2 sees {0, 1}, 3 sees {1, 2}: outside views {0} vs {} differ...
        e = run([(), (), (0, 1), (1, 2)])
        assert not is_atomic(e, [2, 3])

    def test_missing_internal_member_breaks_atomicity(self):
        e = run([(), (0,), (0,)])
        # 2 does not see 1.
        assert not is_atomic(e, [1, 2])

    def test_empty_and_singleton(self):
        e = run([(), (0,)])
        assert is_atomic(e, [])
        assert is_atomic(e, [1])


class TestBoundedDelay:
    """bounded_delay_violations and the TimedExecution refinement."""

    def timed(self, prefixes, times):
        return TimedExecution(run(prefixes), times)

    def test_stale_missing_predecessor_reported(self):
        e = self.timed([(), ()], [0.0, 10.0])
        assert bounded_delay_violations(e, 5.0) == [(1, 0)]
        assert not e.has_bounded_delay(5.0)

    def test_recent_missing_predecessor_allowed(self):
        e = self.timed([(), ()], [0.0, 3.0])
        assert bounded_delay_violations(e, 5.0) == []
        assert e.has_bounded_delay(5.0)

    def test_boundary_tie_counts_as_stale(self):
        # times[j] == times[i] - t sits exactly on the bound; the
        # condition is inclusive, so a miss is still a violation.
        e = self.timed([(), ()], [0.0, 5.0])
        assert bounded_delay_violations(e, 5.0) == [(1, 0)]

    def test_tied_times_with_zero_bound(self):
        # simultaneous initiations under t=0: every missing predecessor
        # is a violation, seen ones are fine.
        missing = self.timed([(), ()], [4.0, 4.0])
        assert bounded_delay_violations(missing, 0.0) == [(1, 0)]
        seen = self.timed([(), (0,)], [4.0, 4.0])
        assert bounded_delay_violations(seen, 0.0) == []

    def test_complete_prefixes_never_violate(self):
        e = self.timed([(), (0,), (0, 1)], [0.0, 0.0, 100.0])
        assert bounded_delay_violations(e, 1.0) == []


class TestAtomicityUnderTies:
    """is_atomic on transactions with tied initiation times: atomicity
    is a prefix property, so ties only matter through the index order
    the tie-break imposes."""

    def test_tied_pair_seeing_each_other_is_atomic(self):
        e = run([(), (0,), (0, 1)])
        times = [0.0, 5.0, 5.0]  # 1 and 2 tied, broken by node id
        timed = TimedExecution(e, times)
        assert timed.is_orderly()
        assert is_atomic(timed, [1, 2])

    def test_tied_pair_not_seeing_each_other_is_not_atomic(self):
        # concurrent (tied) initiations that miss each other cannot be
        # an atomic run, whatever the tie-break order.
        e = run([(), (0,), (0,)])
        timed = TimedExecution(e, [0.0, 5.0, 5.0])
        assert not is_atomic(timed, [1, 2])

    def test_tied_pair_with_differing_outside_views(self):
        e = run([(), (), (0, 1), (1, 2)])
        timed = TimedExecution(e, [0.0, 0.0, 5.0, 5.0])
        assert not is_atomic(timed, [2, 3])
