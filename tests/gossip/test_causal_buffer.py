"""Unit tests for :class:`CausalBuffer`: gating on the node's live
delivered mapping, with dependencies evaluated once per offer."""

from hypothesis import given, settings, strategies as st

from repro.gossip import CausalBuffer
from repro.replica import RunSet
from tests.helpers import count_python_calls


def make_buffer():
    """A buffer over a delivered dict it fills itself, plus the
    delivery order it produced."""
    delivered, order = {}, []

    def deliver(key, item):
        delivered[key] = item
        order.append(key)

    return CausalBuffer(delivered, deliver), delivered, order


class TestGating:
    def test_in_order_offers_deliver_at_once(self):
        buffer, delivered, order = make_buffer()
        buffer.offer("a", 1, ())
        buffer.offer("b", 2, {"a"})
        assert order == ["a", "b"] and delivered == {"a": 1, "b": 2}
        assert len(buffer) == 0 and buffer.buffered_total == 0

    def test_chain_is_released_in_dependency_order_by_one_offer(self):
        buffer, _, order = make_buffer()
        buffer.offer("d", 4, {"c"})
        buffer.offer("c", 3, {"b"})
        buffer.offer("b", 2, {"a"})
        assert order == [] and len(buffer) == 3
        buffer.offer("a", 1, ())
        assert order == ["a", "b", "c", "d"]
        assert len(buffer) == 0 and buffer.buffered_total == 3

    def test_duplicate_and_already_delivered_offers_are_no_ops(self):
        buffer, delivered, order = make_buffer()
        buffer.offer("b", 2, {"a"})
        buffer.offer("b", "other", ())  # still pending: first offer wins
        assert buffer.peek("b") == 2 and buffer.buffered_total == 1
        buffer.offer("a", 1, ())
        buffer.offer("a", "again", ())
        assert order == ["a", "b"] and delivered == {"a": 1, "b": 2}

    def test_tuple_and_list_deps_behave_like_sets(self):
        buffer, _, order = make_buffer()
        buffer.offer("c", 3, ("a", "b", "a"))
        buffer.offer("d", 4, ["c"])
        buffer.offer("a", 1, ())
        assert order == ["a"]
        buffer.offer("b", 2, [])
        assert order == ["a", "b", "c", "d"]

    def test_missing_dependency_keeps_item_visible_and_counted_once(self):
        buffer, _, order = make_buffer()
        buffer.offer("b", 2, {"never"})
        buffer.offer("b", 2, {"never"})
        buffer.offer("x", 0, ())
        assert order == ["x"]
        assert "b" in buffer and "x" not in buffer
        assert buffer.peek("b") == 2
        assert len(buffer) == 1 and buffer.buffered_total == 1

    def test_missing_names_what_is_neither_delivered_nor_buffered(self):
        buffer, _, _ = make_buffer()
        for key in (0, 1, 2, 5):
            buffer.offer(key, key, ())
        buffer.offer(7, 7, RunSet((6, 6)))
        buffer.offer(9, 9, RunSet((0, 7, 10, 11)))
        assert buffer.missing([9], 100) == [3, 4, 6, 10, 11]
        assert buffer.missing([7, 9], 100) == [6, 3, 4, 6, 10, 11]
        assert buffer.missing([9], 6) == [3, 4]  # reads 0 .. 5
        buffer.offer("s", 0, {"t", 1})
        assert buffer.missing(["s"], 100) == ["t"]

    def test_clear_drops_pending_and_reports_how_many(self):
        buffer, _, order = make_buffer()
        buffer.offer("b", 2, {"a"})
        buffer.offer("c", 3, {"a"})
        assert buffer.clear() == 2
        assert len(buffer) == 0 and "b" not in buffer
        buffer.offer("a", 1, ())
        assert order == ["a"]  # nothing resurfaces after a clear

    def test_forgotten_key_makes_later_dependents_wait_again(self):
        """``forget()`` pops keys from the very dict the buffer holds."""
        buffer, delivered, order = make_buffer()
        buffer.offer("a", 1, ())
        del delivered["a"]
        buffer.offer("b", 2, {"a"})
        assert order == ["a"] and "b" in buffer
        buffer.offer("a", 1, ())  # anti-entropy re-fetches it
        assert order == ["a", "a", "b"]


KEYS = st.integers(0, 7)
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("offer"), KEYS, st.frozensets(KEYS, max_size=4)),
        st.tuples(st.just("deliver"), KEYS),
        st.tuples(st.just("forget"), KEYS),
    ),
    max_size=40,
)


class ReferenceBuffer:
    """The behavioural reference: readiness asked one dependency at a
    time, ``all(d in delivered for d in deps)``."""

    def __init__(self, delivered, deliver):
        self.delivered, self.deliver, self.pending = delivered, deliver, {}

    def offer(self, key, item, deps):
        if key in self.delivered or key in self.pending:
            return
        self.pending[key] = (item, deps)
        progress = True
        while progress:
            progress = False
            for k, (it, ds) in list(self.pending.items()):
                if k in self.pending and all(
                    d in self.delivered for d in ds
                ):
                    del self.pending[k]
                    self.deliver(k, it)
                    progress = True


@settings(max_examples=200, deadline=None)
@given(steps=STEPS)
def test_matches_the_per_dependency_reference(steps):
    """Random offers, out-of-band deliveries (a node's own publishes
    under partial replication) and forgets: same delivery sequence."""
    runs = []
    for make in (CausalBuffer, ReferenceBuffer):
        delivered, order = {}, []

        def deliver(key, item, delivered=delivered, order=order):
            delivered[key] = item
            order.append(key)

        buffer = make(delivered, deliver)
        for step in steps:
            if step[0] == "offer":
                buffer.offer(step[1], f"item-{step[1]}", step[2])
            elif step[0] == "deliver":
                delivered.setdefault(step[1], "direct")
            else:
                delivered.pop(step[1], None)
        runs.append((order, dict(delivered)))
    assert runs[0] == runs[1]


def test_offer_cost_does_not_grow_with_the_dependency_count():
    """Readiness is one C-level set inclusion: a record with 2,000
    dependencies costs a constant number of Python-level calls."""
    buffer, delivered, order = make_buffer()
    deps = frozenset(range(2000))
    delivered.update((d, None) for d in deps)
    calls = count_python_calls(lambda: buffer.offer("r", "record", deps))
    assert order == ["r"]
    assert calls <= 10
