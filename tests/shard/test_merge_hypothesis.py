"""Property-based equivalence of all merge engines and checkpoint
policies: identical states and identical logs under random
interleavings, including duplicate deliveries."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.airline import (
    CancelUpdate,
    INITIAL_STATE,
    MoveDownUpdate,
    MoveUpUpdate,
    RequestUpdate,
)
from repro.core import apply_sequence
from repro.replica import (
    AdaptiveWindowPolicy,
    EveryPositionPolicy,
    FixedIntervalPolicy,
    GeometricPolicy,
    InitialOnlyPolicy,
    MergeView,
    Replica,
    TailWindowPolicy,
    Timestamp,
    UpdateRecord,
    policy_engine_factory,
)


def naive(state):
    """The reference arm: recompute the whole log on every insertion."""
    return MergeView(state, policy=InitialOnlyPolicy(), fast_path=False)


def suffix(state):
    return MergeView(state, policy=EveryPositionPolicy())


def checkpoint(interval):
    return policy_engine_factory(
        lambda: FixedIntervalPolicy(interval), fast_path=False
    )


PEOPLE = ["P", "Q", "R"]
UPDATE_CLASSES = [RequestUpdate, CancelUpdate, MoveUpUpdate, MoveDownUpdate]

#: every engine configuration the replica layer supports: the three seed
#: profiles plus the policy-driven views (bounded-memory variants).
ALL_FACTORIES = [
    ("naive", naive),
    ("suffix", suffix),
    ("checkpoint-2", checkpoint(2)),
    ("checkpoint-5", checkpoint(5)),
    ("geometric", policy_engine_factory(GeometricPolicy)),
    ("tail-window-3", policy_engine_factory(lambda: TailWindowPolicy(3))),
    (
        "adaptive",
        policy_engine_factory(
            lambda: AdaptiveWindowPolicy(
                initial_window=4, min_window=2, resize_every=4
            )
        ),
    ),
]


@st.composite
def insertion_scripts(draw, max_len=20):
    """A list of (position, update) insertions with valid positions."""
    n = draw(st.integers(min_value=0, max_value=max_len))
    script = []
    for i in range(n):
        update = draw(st.sampled_from(UPDATE_CLASSES))(
            draw(st.sampled_from(PEOPLE))
        )
        position = draw(st.integers(min_value=0, max_value=i))
        script.append((position, update))
    return script


@st.composite
def delivery_schedules(draw, max_len=16):
    """Records in a random arrival order, with duplicate deliveries.

    Returns (records, arrival_order): ``records[i]`` has timestamp
    counter i+1, and ``arrival_order`` is a permutation of the record
    indices with some indices repeated (duplicate delivery through
    flooding + anti-entropy, which the log must absorb exactly once).
    """
    n = draw(st.integers(min_value=0, max_value=max_len))
    records = []
    for i in range(n):
        update = draw(st.sampled_from(UPDATE_CLASSES))(
            draw(st.sampled_from(PEOPLE))
        )
        records.append(
            UpdateRecord(
                ts=Timestamp(i + 1, 0),
                txid=i,
                transaction=None,
                update=update,
                origin=0,
                real_time=float(i),
                seen_txids=frozenset(),
            )
        )
    order = draw(st.permutations(range(n)))
    duplicates = draw(
        st.lists(
            st.integers(min_value=0, max_value=max(n - 1, 0)),
            max_size=5,
        )
        if n
        else st.just([])
    )
    arrival = list(order)
    for index in duplicates:
        at = draw(st.integers(min_value=0, max_value=len(arrival)))
        arrival.insert(at, index)
    return records, arrival


def reference_fold(script):
    updates = []
    for position, update in script:
        updates.insert(position, update)
    return apply_sequence(updates, INITIAL_STATE)


@given(insertion_scripts(), st.sampled_from([1, 3, 7]))
@settings(max_examples=200, deadline=None)
def test_all_engines_agree_with_reference(script, interval):
    engines = [
        naive(INITIAL_STATE),
        suffix(INITIAL_STATE),
        checkpoint(interval)(INITIAL_STATE),
    ]
    for position, update in script:
        for engine in engines:
            engine.insert(position, update)
    expected = reference_fold(script)
    for engine in engines:
        assert engine.state == expected


@given(insertion_scripts())
@settings(max_examples=100, deadline=None)
def test_policy_engines_agree_with_reference(script):
    engines = [
        factory(INITIAL_STATE) for name, factory in ALL_FACTORIES
    ]
    for position, update in script:
        for engine in engines:
            engine.insert(position, update)
    expected = reference_fold(script)
    for (name, _), engine in zip(ALL_FACTORIES, engines):
        assert engine.state == expected, name


@given(delivery_schedules())
@settings(max_examples=100, deadline=None)
def test_replicas_identical_states_and_logs_under_duplicates(schedule):
    """The paper's invariant, per engine: state == fold(log, s0), and all
    engines leave behind the same log — even under out-of-order arrival
    with duplicate deliveries."""
    records, arrival = schedule
    replicas = [
        (name, Replica(INITIAL_STATE, engine_factory=factory))
        for name, factory in ALL_FACTORIES
    ]
    for index in arrival:
        for _, replica in replicas:
            replica.ingest(records[index])
    expected = apply_sequence((r.update for r in records), INITIAL_STATE)
    reference_log = tuple(r.txid for r in records)
    for name, replica in replicas:
        assert tuple(r.txid for r in replica.log) == reference_log, name
        assert replica.state == expected, name
        # duplicates were absorbed by the canonical log, not the engine.
        assert replica.stats.inserts == len(records), name


@given(insertion_scripts())
@settings(max_examples=200, deadline=None)
def test_suffix_never_applies_more_than_naive(script):
    reference = naive(INITIAL_STATE)
    engine = suffix(INITIAL_STATE)
    for position, update in script:
        reference.insert(position, update)
        engine.insert(position, update)
    assert engine.stats.updates_applied <= reference.stats.updates_applied
