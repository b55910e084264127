"""Unit tests for the oracle registry on synthetic runs and traces."""

import pytest

from repro.apps.airline.state import AirlineState
from repro.apps.airline.transactions import Request
from repro.chaos import FaultPlan, OracleContext, run_oracles
from repro.chaos.oracles import (
    oracle_bounded_delay,
    oracle_trace,
    oracle_transitivity,
)
from repro.core import Execution
from repro.core.execution import TimedExecution
from repro.sim.trace import TraceEvent


def timed(prefixes, times):
    txns = [Request(f"P{i}") for i in range(len(prefixes))]
    execution = Execution.run(AirlineState(), txns, prefixes)
    return TimedExecution(execution, times)


class _ConvergedCluster:
    """Just enough cluster for the convergence oracle to pass."""

    def converged(self):
        return True

    def disagreements(self):
        return ()


def ctx_for(execution, *, expect_transitive=True, t_bound=100.0, events=()):
    return OracleContext(
        cluster=_ConvergedCluster(),
        plan=FaultPlan(),
        capacity=5,
        execution=execution,
        extract_error=None,
        expect_transitive=expect_transitive,
        movers_centralized=False,
        t_bound=t_bound,
        events=tuple(events),
    )


class TestTransitivityOracle:
    def test_intransitive_execution_flagged(self):
        # 2 sees 1, 1 sees 0, 2 misses 0.
        e = timed([(), (0,), (1,)], [0.0, 1.0, 2.0])
        (violation,) = oracle_transitivity(ctx_for(e))
        assert violation.oracle == "transitivity"
        assert (2, 1, 0) in violation.details["sample"]

    def test_transitive_execution_clean(self):
        e = timed([(), (0,), (0, 1)], [0.0, 1.0, 2.0])
        assert oracle_transitivity(ctx_for(e)) == []

    def test_default_oracle_set_respects_expectation(self):
        e = timed([(), (0,), (1,)], [0.0, 1.0, 2.0])
        # weakened configuration: intransitivity is expected, the
        # default set must not flag it...
        weakened = ctx_for(e, expect_transitive=False)
        assert all(
            v.oracle != "transitivity" for v in run_oracles(weakened)
        )
        # ...but naming the oracle always checks.
        named = run_oracles(weakened, names=("transitivity",))
        assert [v.oracle for v in named] == ["transitivity"]
        # and the promised configuration is checked by default.
        assert any(
            v.oracle == "transitivity" for v in run_oracles(ctx_for(e))
        )

    def test_unknown_oracle_rejected(self):
        e = timed([()], [0.0])
        with pytest.raises(ValueError, match="unknown oracle"):
            run_oracles(ctx_for(e), names=("entropy",))


class TestBoundedDelayOracle:
    def test_stale_missing_predecessor_flagged(self):
        # 1 misses 0 although 0 is 10 time units older.
        e = timed([(), ()], [0.0, 10.0])
        (violation,) = oracle_bounded_delay(ctx_for(e, t_bound=5.0))
        assert (1, 0) in violation.details["sample"]

    def test_recent_missing_predecessor_tolerated(self):
        e = timed([(), ()], [0.0, 3.0])
        assert oracle_bounded_delay(ctx_for(e, t_bound=5.0)) == []


class TestTraceOracle:
    def test_clean_crash_recover_cycle(self):
        events = (
            TraceEvent(1.0, "initiate", 0),
            TraceEvent(2.0, "crash", 0),
            TraceEvent(3.0, "initiate", 1),
            TraceEvent(4.0, "recover", 0),
            TraceEvent(5.0, "deliver", 0),
        )
        assert oracle_trace(ctx_for(None, events=events)) == []

    def test_activity_while_crashed_flagged(self):
        events = (
            TraceEvent(2.0, "crash", 0),
            TraceEvent(3.0, "deliver", 0),
            TraceEvent(4.0, "recover", 0),
        )
        (violation,) = oracle_trace(ctx_for(None, events=events))
        assert "while crashed" in violation.description

    def test_lose_volatile_while_down_is_exempt(self):
        events = (
            TraceEvent(2.0, "crash", 0),
            TraceEvent(2.0, "fault_inject", 0, (("fault", "lose_volatile"),
                                                ("info", "lost=2"))),
            TraceEvent(4.0, "recover", 0),
        )
        assert oracle_trace(ctx_for(None, events=events)) == []

    def test_unbalanced_crashes_flagged(self):
        double = (
            TraceEvent(1.0, "crash", 0),
            TraceEvent(2.0, "crash", 0),
            TraceEvent(3.0, "recover", 0),
        )
        assert any(
            "already down" in v.description
            for v in oracle_trace(ctx_for(None, events=double))
        )
        never_back = (TraceEvent(1.0, "crash", 2),)
        assert any(
            "never recovered" in v.description
            for v in oracle_trace(ctx_for(None, events=never_back))
        )

    def test_time_going_backwards_flagged(self):
        events = (
            TraceEvent(5.0, "initiate", 0),
            TraceEvent(4.0, "initiate", 1),
        )
        assert any(
            "backwards" in v.description
            for v in oracle_trace(ctx_for(None, events=events))
        )
