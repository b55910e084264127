"""Property test: polynomial checkers ≡ brute-force axiom enumeration.

Small random histories (few transactions, sessions and keys, arbitrary
write-read choices) are judged twice per model — by the production
saturation/search checkers and by the reference that literally
enumerates every commit order extending SO ∪ WR — and must agree on
accept/reject for all four models.  The lattice monotonicity claim is
re-checked on the same samples for free.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency import (
    MODEL_ORDER,
    History,
    HTransaction,
    brute_force_all,
    brute_force_check,
    check_all,
    check_causal,
    check_read_atomic,
    check_read_committed,
)
from repro.consistency.checkers import (
    WITNESSED,
    causal_closure,
    timestamp_order_certifies,
)

KEYS = ("x", "y", "z")
SESSIONS = ("a", "b", "c")


@st.composite
def histories(draw, max_txns=5):
    n = draw(st.integers(min_value=1, max_value=max_txns))
    skeleton = []
    writers_by_key = {}
    for txid in range(1, n + 1):
        writes = tuple(
            key for key in KEYS if draw(st.booleans())
        )
        session = draw(st.sampled_from(SESSIONS))
        skeleton.append((txid, session, writes))
        for key in writes:
            writers_by_key.setdefault(key, []).append(txid)
    transactions = []
    for txid, session, writes in skeleton:
        reads = []
        for key in draw(st.permutations(KEYS)):
            if not draw(st.booleans()):
                continue
            candidates = [None] + [
                t for t in writers_by_key.get(key, []) if t != txid
            ]
            reads.append((key, draw(st.sampled_from(candidates))))
        transactions.append(
            HTransaction(txid, session, tuple(reads), writes)
        )
    return History(transactions)


class TestAgreement:
    @settings(max_examples=200, deadline=None)
    @given(histories())
    def test_all_models_agree_with_brute_force(self, history):
        poly = {v.model: v.ok for v in check_all(history)}
        brute = brute_force_all(history)
        assert poly == brute
        # no verdict may come back indeterminate at default budget on
        # histories this small.
        assert all(
            v.status in ("ok", "violation") for v in check_all(history)
        )

    @settings(max_examples=200, deadline=None)
    @given(histories())
    def test_lattice_is_monotone(self, history):
        oks = [v.ok for v in check_all(history, models=MODEL_ORDER)]
        assert oks == sorted(oks, reverse=True)


def causal_past_witness(history):
    """Each transaction's missing positions when it sees exactly its
    (SO ∪ WR)⁺ predecessors that come before it in issue order."""
    closure = causal_closure(history)
    txids = history.txids
    return tuple(
        tuple(
            j for j in range(i)
            if txids[i] not in closure.get(txids[j], frozenset())
        )
        for i in range(len(txids))
    )


@st.composite
def witnessed(draw):
    """A generated history with a visibility witness: its causal past,
    or arbitrary missing sets."""
    history = draw(histories())
    if draw(st.booleans()):
        visibility = causal_past_witness(history)
    else:
        visibility = tuple(
            tuple(j for j in range(i) if draw(st.booleans()))
            for i in range(len(history))
        )
    return History(history.transactions, visibility=visibility)


class TestWitnessAgreement:
    @settings(max_examples=300, deadline=None)
    @given(witnessed())
    def test_witnessed_verdicts_equal_saturating_ones(self, history):
        """A witness only ever decides how an ``ok`` is found: RC, RA
        and causal give the verdict, and the cycle, that saturation
        gives without it; and a certified history is accepted by the
        brute-force reference for all three."""
        bare = History(history.transactions)
        certified = timestamp_order_certifies(history)
        brute = brute_force_all(bare)
        for checker in (
            check_read_committed, check_read_atomic, check_causal
        ):
            fast, slow = checker(history), checker(bare)
            assert (fast.status, fast.witness) == (slow.status, slow.witness)
            assert (fast.stats == WITNESSED) == certified
            if certified:
                assert brute[fast.model]


class TestReferenceGuards:
    def test_brute_force_refuses_large_histories(self):
        big = History([
            HTransaction(i, "a", writes=("x",)) for i in range(1, 10)
        ])
        with pytest.raises(ValueError, match="refuses"):
            brute_force_check(big, "prefix")
