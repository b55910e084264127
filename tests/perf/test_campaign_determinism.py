"""Worker-count independence: the parallel campaign runner's core
promise is that ``workers=N`` changes wall-clock only, never results.

Each test compares :func:`campaign_json` byte strings — the canonical
serialized payload — across worker counts, and against the serial chaos
CLI the runner wraps.
"""

import json

import pytest

from repro.chaos.cli import run_campaign
from repro.chaos.harness import ChaosScenario
from repro.perf import (
    aggregate_fingerprint,
    campaign_json,
    run_parallel_campaign,
    run_parallel_cells,
)
from repro.perf.campaign import main
from repro.perf.cells import SMOKE_CELLS

#: a fast scenario: enough simulated time for faults to bite, small
#: enough that the matrix of worker counts stays cheap.
SCENARIO = ChaosScenario(duration=8.0)
RUNS = 4


def run_at(workers):
    return run_parallel_campaign(
        0, RUNS, workers=workers, scenario=SCENARIO, shrink=False
    )


class TestWorkerIndependence:
    def test_workers_1_2_8_byte_identical(self):
        serial = run_at(1)
        results = {workers: run_at(workers) for workers in (2, 8)}
        for workers, payload in results.items():
            assert campaign_json(payload) == campaign_json(serial), (
                f"workers={workers} diverged from serial"
            )
            assert payload["aggregate_fingerprint"] == (
                serial["aggregate_fingerprint"]
            )

    def test_violation_sets_identical_across_workers(self):
        """The weakened ablation fails; the *same* runs must fail with
        the same oracles regardless of worker count."""
        scenario = ChaosScenario(
            duration=12.0, piggyback=False, delay="fixed"
        )

        def failures(workers):
            payload = run_parallel_campaign(
                7, 6, workers=workers, scenario=scenario,
                oracles=("transitivity",), shrink=False,
            )
            return [
                (f["run"], tuple(f["oracles"])) for f in payload["failures"]
            ]

        serial = failures(1)
        assert serial  # the ablation really does fail
        assert failures(2) == serial

    def test_matches_the_serial_chaos_cli(self):
        """The parallel payload is the chaos CLI's payload plus
        fingerprints: shared fields agree exactly."""
        parallel = run_at(2)
        serial = run_campaign(0, RUNS, scenario=SCENARIO, shrink=False)
        for key in serial:
            assert parallel[key] == serial[key], key

    def test_cells_identical_across_workers(self):
        serial = run_parallel_cells(SMOKE_CELLS, workers=1)
        pooled = run_parallel_cells(SMOKE_CELLS, workers=2)
        assert serial == pooled


class TestAggregateFingerprint:
    def test_order_sensitive(self):
        assert aggregate_fingerprint(["a", "b"]) != (
            aggregate_fingerprint(["b", "a"])
        )

    def test_concatenation_ambiguity_resolved(self):
        # the separator matters: ["ab"] must differ from ["a", "b"].
        assert aggregate_fingerprint(["ab"]) != (
            aggregate_fingerprint(["a", "b"])
        )

    def test_deterministic(self):
        assert aggregate_fingerprint(["x", "y"]) == (
            aggregate_fingerprint(["x", "y"])
        )


class TestCli:
    def test_json_output_and_exit_zero(self, capsys):
        assert main([
            "--seed", "0", "--runs", "2", "--workers", "2",
            "--format", "json", "--no-shrink",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["campaign"]["violations"] == 0
        assert "profile" not in payload

    def test_profile_stays_out_of_the_campaign_section(self, capsys):
        # there is no profile to ask for, and no timing in any section.
        with pytest.raises(SystemExit):
            main(["--runs", "2", "--profile"])
        capsys.readouterr()
        assert main([
            "--seed", "0", "--runs", "2", "--format", "json",
            "--no-shrink", "--cells",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"campaign", "cells"}
        assert not any("_s" in key for key in payload["campaign"])
        assert not any(
            key.endswith("_s") for row in payload["cells"] for key in row
        )

    def test_usage_errors_exit_two(self, capsys):
        assert main(["--runs", "0"]) == 2
        assert main(["--workers", "0"]) == 2
        capsys.readouterr()
