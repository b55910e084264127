"""A decoded seen-set is a ``RunSet``: the runs of consecutive txids the
wire carries, kept as runs.  It must be indistinguishable from the
``frozenset`` it replaces — in every set operation, under hash and
pickle, and on the wire — and the causal gate, on run deps or on plain
ones, must release exactly what a set inclusion against the delivered
keys releases."""

import pickle

from hypothesis import given, settings, strategies as st

from repro.gossip import CausalBuffer
from repro.replica import RunSet
from repro.runtime import wire
from tests.helpers import ReferenceBuffer


@st.composite
def int_sets(draw, top=10**4):
    """Unions of a few ranges (runs with gaps, some touching or
    overlapping) plus scattered ints."""
    spans = draw(st.lists(
        st.tuples(st.integers(-50, top), st.integers(1, 60)), max_size=5
    ))
    scattered = draw(st.frozensets(st.integers(-50, top), max_size=8))
    return scattered.union(
        t for start, n in spans for t in range(start, start + n)
    )


def run_set(members):
    """The set as the codec decodes it."""
    decoded = wire.decode(wire.encode(frozenset(members)))
    assert type(decoded) is RunSet
    return decoded


@settings(max_examples=300)
@given(int_sets())
def test_a_run_set_is_its_frozenset(members):
    runs, ref = run_set(members), frozenset(members)
    assert runs == ref and ref == runs
    assert not runs != ref and not ref != runs
    assert hash(runs) == hash(ref)
    assert {ref: "state"}[runs] == "state"
    thawed = pickle.loads(pickle.dumps(runs))
    assert type(thawed) is frozenset and thawed == ref
    assert len(runs) == len(ref)
    assert list(runs) == sorted(ref)
    assert bool(runs) == bool(ref)


@settings(max_examples=300)
@given(int_sets(top=200), st.lists(st.integers(-60, 300), max_size=20))
def test_membership_is_bisection_over_the_runs(members, probes):
    runs, ref = run_set(members), frozenset(members)
    for x in probes + sorted(ref):
        assert (x in runs) == (x in ref)
        assert (float(x) in runs) == (float(x) in ref)
    for other in (0.5, -1.5, "1", None, (1,), float("nan"), float("inf")):
        assert (other in runs) == (other in ref)


@settings(max_examples=200)
@given(int_sets(top=200), int_sets(top=200))
def test_set_operators_return_frozensets(a, b):
    runs, ref = run_set(a), frozenset(a)
    other = frozenset(b)
    for got, want in (
        (runs | other, ref | other),
        (runs & other, ref & other),
        (runs - other, ref - other),
        (runs ^ other, ref ^ other),
        (other - runs, other - ref),
        (other | runs, other | ref),
        (runs & run_set(b), ref & other),
    ):
        assert type(got) is frozenset and got == want
    assert (runs <= other) == (ref <= other)
    assert (runs < other) == (ref < other)
    assert (runs >= other) == (ref >= other)
    assert (runs == run_set(b)) == (ref == other)
    assert runs.isdisjoint(other) == ref.isdisjoint(other)


@settings(max_examples=200)
@given(int_sets())
def test_encode_inverts_decode(members):
    text = wire.encode(frozenset(members))
    runs = wire.decode(text)
    assert wire.encode(runs) == text
    assert wire._enc(runs)["%rs"] is runs.bounds  # written as it is kept


@st.composite
def offers(draw):
    """A key and its deps, as a record and its seen-set are: a prefix
    of the keys below it, with a few holes and strays."""
    key = draw(st.integers(0, 11))
    upto = draw(st.integers(0, key))
    holes = draw(st.frozensets(st.integers(0, 11), max_size=2))
    strays = draw(st.frozensets(st.integers(0, max(key - 1, 0)), max_size=2))
    deps = frozenset(range(upto)).difference(holes).union(strays)
    return ("offer", key, deps - {key})


GATE_STEPS = st.lists(
    st.one_of(offers(), st.tuples(st.just("forget"), st.integers(1, 4))),
    max_size=60,
)


def play(steps, make, as_deps):
    """Offer ``steps`` to a gate built by ``make``; a forget drops the
    newest deliveries and clears the gate, as ``GossipService.forget``
    does after a crash."""
    delivered, order = {}, []

    def deliver(key, item):
        delivered[key] = item
        order.append(key)

    buffer = make(delivered, deliver)
    for step in steps:
        if step[0] == "offer":
            _, key, deps = step
            buffer.offer(key, f"item-{key}", as_deps(deps))
        else:
            for key in list(delivered)[len(delivered) - step[1]:]:
                del delivered[key]
            buffer.clear()
    return order, buffer.buffered_total, buffer.deferred_total


@settings(max_examples=400, deadline=None)
@given(steps=GATE_STEPS)
def test_run_cursors_release_what_set_inclusion_does(steps):
    """Out-of-order arrivals, duplicates and a clear mid-stream: the
    same keys are released in the same order, with the same counts."""
    assert play(steps, CausalBuffer, run_set) == play(
        steps, ReferenceBuffer, frozenset
    )


@settings(max_examples=200, deadline=None)
@given(steps=GATE_STEPS)
def test_plain_deps_release_what_set_inclusion_does(steps):
    """The gate's other layout (deps with no ``bounds``, as the
    ``depends_on`` hooks of tests give) under the same steps."""
    assert play(steps, CausalBuffer, tuple) == play(
        steps, ReferenceBuffer, frozenset
    )


def test_a_run_start_is_walked_once_for_many_sets():
    """Each offer resumes its run's cursor where the last one stopped."""
    reads = []

    class Probe(dict):
        def __contains__(self, key):
            reads.append(key)
            return dict.__contains__(self, key)

    delivered, order = Probe(), []

    def deliver(key, item):
        delivered[key] = item
        order.append(key)

    buffer = CausalBuffer(delivered, deliver)
    for txid in range(100, 150):
        buffer.offer(txid, txid, run_set(range(100, txid)))
    assert order == list(range(100, 150))
    # one duplicate check per offer, one cursor step per delivery.
    assert len(reads) <= 2 * 50


def test_a_clear_rewinds_the_run_cursors():
    """After a crash scrub, a set over a forgotten key waits again even
    though its run was walked past it before."""
    delivered, order = {}, []

    def deliver(key, item):
        delivered[key] = item
        order.append(key)

    buffer = CausalBuffer(delivered, deliver)
    for txid in range(4):
        buffer.offer(txid, txid, run_set(range(txid)))
    del delivered[3], delivered[2]  # as GossipService.forget: scrub,
    buffer.clear()  # then clear
    buffer.offer(9, 9, run_set(range(3)))
    assert order == [0, 1, 2, 3] and 9 in buffer
    buffer.offer(2, 2, run_set(range(2)))
    assert order == [0, 1, 2, 3, 2, 9]
