"""End-to-end integration tests: SHARD runs through the formal machinery.

These tests are the repository's load-bearing claim: the *simulated
system* produces executions on which the *paper's theorems* hold, and the
paper's qualitative story (partitions cost money; centralization prevents
overbooking; compensation restores integrity) plays out.
"""

import pytest

from repro.apps.airline import make_airline_application
from repro.apps.airline.simulation import AirlineScenario, run_airline_scenario
from repro.apps.airline.theorems import corollary8, theorem22, theorem25
from repro.core import (
    group_by_family,
    is_centralized,
    is_transitive,
    max_deficit,
)
from repro.gossip import GossipConfig
from repro.network import PartitionSchedule

CAPACITY = 12


@pytest.fixture(scope="module")
def healthy_run():
    return run_airline_scenario(
        AirlineScenario(capacity=CAPACITY, duration=80, seed=11)
    )


@pytest.fixture(scope="module")
def partitioned_run():
    partitions = PartitionSchedule.split(20, 60, [0], [1, 2])
    return run_airline_scenario(
        AirlineScenario(
            capacity=CAPACITY, duration=80, seed=12, partitions=partitions
        )
    )


class TestHealthyCluster:
    def test_execution_valid_and_consistent(self, healthy_run):
        healthy_run.execution.validate()
        assert healthy_run.cluster.mutually_consistent()
        assert healthy_run.cluster.converged()

    def test_prefixes_transitive_with_piggyback(self, healthy_run):
        assert is_transitive(healthy_run.execution)

    def test_corollary8_holds_at_measured_k(self, healthy_run):
        e = healthy_run.execution
        k = max(
            (e.deficit(i) for i in e.indices
             if e.transactions[i].name == "MOVE_UP"),
            default=0,
        )
        report = corollary8(e, k, CAPACITY)
        assert report.hypothesis_holds and report.holds

    def test_final_state_matches_formal_model(self, healthy_run):
        assert healthy_run.execution.final_state == healthy_run.final_state


class TestPartitionedCluster:
    def test_still_converges_after_heal(self, partitioned_run):
        assert partitioned_run.cluster.mutually_consistent()

    def test_deficits_grow_under_partition(
        self, healthy_run, partitioned_run
    ):
        assert max_deficit(partitioned_run.execution) > max_deficit(
            healthy_run.execution
        )

    def test_every_submission_served_locally(self, partitioned_run):
        """Availability: SHARD initiated every transaction despite the
        partition (contrast with the primary-copy baseline)."""
        e = partitioned_run.execution
        assert len(e) == (
            partitioned_run.requests_submitted
            + partitioned_run.movers_submitted
        )

    def test_cost_bound_still_holds_at_measured_k(self, partitioned_run):
        e = partitioned_run.execution
        app = make_airline_application(capacity=CAPACITY)
        k = max(
            (e.deficit(i) for i in e.indices
             if e.transactions[i].name == "MOVE_UP"),
            default=0,
        )
        worst = max(app.cost(s, "overbooking") for s in e.actual_states)
        assert worst <= 900 * k


class TestCentralizedMovers:
    def test_no_overbooking_under_partition(self):
        partitions = PartitionSchedule.split(20, 60, [0], [1, 2])
        run = run_airline_scenario(
            AirlineScenario(
                capacity=CAPACITY,
                duration=80,
                seed=13,
                partitions=partitions,
                mover_nodes=[0],
            )
        )
        e = run.execution
        movers = group_by_family(e, "MOVE_UP", "MOVE_DOWN")
        assert is_centralized(e, movers)
        report = theorem22(e, CAPACITY)
        # each person has one REQUEST initiated at one node, and movers
        # are centralized: Theorem 22's hypotheses hold, so overbooking
        # must be identically zero.
        assert report.holds
        assert report.details["max_overbooking_cost"] == 0

    def test_theorem25_on_simulated_run(self):
        run = run_airline_scenario(
            AirlineScenario(
                capacity=3,
                duration=60,
                seed=14,
                mover_nodes=[0],
                request_rate=0.5,
                cancel_fraction=0.0,
            )
        )
        e = run.execution
        people = sorted(
            {t.params[0] for t in e.transactions if t.name == "REQUEST"}
        )
        if len(people) >= 2:
            report = theorem25(e, people[0], people[1])
            assert report.holds


class TestNonTransitiveBroadcast:
    def test_without_piggyback_transitivity_can_fail(self):
        """With bare per-item flooding (no piggyback), prefix sets need
        not be transitively closed — the Section 3.3 claim in reverse."""
        config = GossipConfig(flood=True, piggyback=False,
                                 anti_entropy_interval=50.0)
        partitions = PartitionSchedule.split(10, 40, [0], [1, 2])
        found_intransitive = False
        for seed in range(6):
            run = run_airline_scenario(
                AirlineScenario(
                    capacity=CAPACITY, duration=60, seed=100 + seed,
                    partitions=partitions, broadcast=config,
                )
            )
            if not is_transitive(run.execution):
                found_intransitive = True
                break
        assert found_intransitive
