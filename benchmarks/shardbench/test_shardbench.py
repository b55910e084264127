"""Unit tests of the shardbench harness itself.

Run explicitly (tier-1's ``testpaths`` does not collect this directory):

    PYTHONPATH=src python -m pytest benchmarks/shardbench/test_shardbench.py
"""

from __future__ import annotations

import copy
import json

import pytest

import compare
from live_workload import OPEN_LOOP_RATE, live_transactions, open_loop_schedule
from run import load_benchmark
from sim_workloads import workload_for
from stats import (
    canonical,
    highest_supported_percentile,
    percentile,
)
from tracing import SpanRecorder


class FakeClock:
    """A nanosecond clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


# -- span stack -------------------------------------------------------------


def test_nested_self_times_sum_to_the_root_span():
    clock = FakeClock()
    recorder = SpanRecorder(clock_ns=clock)

    def leaf():
        clock.now += 5

    leaf = recorder.wrap("leaf", leaf)

    def middle():
        clock.now += 2
        leaf()
        leaf()
        clock.now += 1

    middle = recorder.wrap("middle", middle)
    with recorder.span("root"):
        clock.now += 10
        middle()
        leaf()
        clock.now += 3

    assert recorder.calls("leaf") == 3
    assert recorder.total_s("leaf") == pytest.approx(15e-9)
    assert recorder.self_s("leaf") == pytest.approx(15e-9)
    assert recorder.total_s("middle") == pytest.approx(13e-9)
    assert recorder.self_s("middle") == pytest.approx(3e-9)
    assert recorder.self_s("root") == pytest.approx(13e-9)
    # self times partition the root's duration exactly.
    total_self = sum(recorder.self_s(name) for name in recorder.names())
    assert total_self == pytest.approx(recorder.total_s("root"))
    assert recorder.total_s("root") == pytest.approx(31e-9)


def test_recursion_and_exceptions_keep_the_stack_balanced():
    clock = FakeClock()
    recorder = SpanRecorder(clock_ns=clock)

    def descend(depth):
        clock.now += 1
        if depth:
            descend(depth - 1)
        else:
            raise RuntimeError("bottom")

    descend = recorder.wrap("descend", descend)
    with recorder.span("root"):
        with pytest.raises(RuntimeError):
            descend(3)
    assert recorder.calls("descend") == 4
    assert recorder.self_s("descend") == pytest.approx(4e-9)
    assert recorder.self_s("root") == pytest.approx(0.0)


def test_every_patch_is_restored():
    class Layer:
        def work(self):
            return "done"

    original = Layer.work
    with SpanRecorder() as recorder:
        recorder.patch(Layer, "work", "layer.work")
        assert Layer.work is not original
        assert Layer().work() == "done"
        assert recorder.calls("layer.work") == 1
    assert Layer.work is original


# -- percentiles ------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("samples, expected", [
    (20, 50.0),       # 10 beyond the median, 2 beyond p90
    (99, 50.0),       # 9.9 beyond p90: not enough
    (100, 90.0),
    (600, 90.0),      # 6 beyond p99
    (1000, 99.0),
    (1600, 99.0),
    (10_000, 99.9),
])
def test_highest_percentile_with_ten_samples_beyond_it(samples, expected):
    assert highest_supported_percentile(samples) == expected


def test_too_few_samples_support_no_percentile():
    with pytest.raises(ValueError):
        highest_supported_percentile(19)


def test_canonical_is_independent_of_set_order():
    assert canonical(frozenset({"b", "a", "c"})) == "{'a','b','c'}"
    assert canonical({"k": frozenset({2, 1})}) == "{'k':{1,2}}"


# -- inputs are a pure function of the seed -----------------------------------


def test_live_inputs_are_a_pure_function_of_the_seed():
    assert live_transactions(3, 50) == live_transactions(3, 50)
    assert live_transactions(3, 50) != live_transactions(4, 50)
    # a longer list extends a shorter one: the prefix does not change.
    assert live_transactions(3, 80)[:50] == live_transactions(3, 50)


def test_open_loop_schedule_is_evenly_spaced_over_two_connections():
    schedule = open_loop_schedule(OPEN_LOOP_RATE, 6.0)
    assert schedule == open_loop_schedule(OPEN_LOOP_RATE, 6.0)
    assert len(schedule) == 600
    assert schedule[0] == (0.0, 0)
    assert schedule[1] == (pytest.approx(0.01), 1)
    assert {node for _due, node in schedule} == {0, 1}
    gaps = {round(b[0] - a[0], 9) for a, b in zip(schedule, schedule[1:])}
    assert gaps == {0.01}


def test_sim_plans_derive_every_seed_from_the_benchmark_seed():
    for name in ("sim-steady-long", "sim-apps-short", "sim-partition-heal"):
        assert workload_for(name, 5) == workload_for(name, 5)
        ours = {plan.seed for plan in workload_for(name, 5).plans}
        theirs = {plan.seed for plan in workload_for(name, 6).plans}
        assert not ours & theirs
    assert len(workload_for("sim-apps-short", 0).plans) == 18


# -- compare.py -----------------------------------------------------------------


def _result_file(benchmark):
    """A result file in which every end-to-end metric reads 100."""
    return {
        "seed": 1,
        "workloads": {
            entry["name"]: {
                "attempted": 1000,
                "failed": 0,
                "end_to_end": {
                    metric["name"]: {"value": 100.0, "unit": metric["unit"]}
                    for metric in benchmark["end_to_end"]
                },
                "detail": {"counts": {"wire_bytes": 5}, "fingerprint": "ab"},
            }
            for entry in benchmark["workloads"]
        },
    }


def test_compare_passes_identical_inputs():
    benchmark = load_benchmark()
    base = _result_file(benchmark)
    rows, breaches = compare.compare(base, copy.deepcopy(base), benchmark)
    assert breaches == []
    assert len(rows) == len(benchmark["workloads"]) * (
        len(benchmark["end_to_end"]) + 1
    )


def test_compare_flags_a_twenty_percent_regression_in_either_direction():
    # every bound set to 10%, so that a seeded 20% regression must show
    # whatever BENCHMARK.json allows each metric today.
    benchmark = copy.deepcopy(load_benchmark())
    for metric in benchmark["end_to_end"]:
        metric["bound"] = 0.1
    base = _result_file(benchmark)
    workload = benchmark["workloads"][0]["name"]
    for metric in benchmark["end_to_end"]:
        candidate = copy.deepcopy(base)
        worse = 120.0 if metric["better"] == "lower" else 80.0
        candidate["workloads"][workload]["end_to_end"][metric["name"]][
            "value"
        ] = worse
        _rows, breaches = compare.compare(base, candidate, benchmark)
        assert len(breaches) == 1, metric["name"]
        assert metric["name"] in breaches[0]
        # the same change in the good direction is no breach.
        better = copy.deepcopy(base)
        better["workloads"][workload]["end_to_end"][metric["name"]][
            "value"
        ] = 200.0 - worse
        assert compare.compare(base, better, benchmark)[1] == []


def test_compare_applies_each_metrics_own_bound():
    benchmark = load_benchmark()
    base = _result_file(benchmark)
    workload = benchmark["workloads"][0]["name"]
    for metric in benchmark["end_to_end"]:
        sign = 1.0 if metric["better"] == "lower" else -1.0
        for margin, expected in ((-0.01, 0), (0.01, 1)):
            candidate = copy.deepcopy(base)
            candidate["workloads"][workload]["end_to_end"][metric["name"]][
                "value"
            ] = 100.0 * (1.0 + sign * (metric["bound"] + margin))
            breaches = compare.compare(base, candidate, benchmark)[1]
            assert len(breaches) == expected, (metric["name"], margin)


def test_compare_flags_failures_missing_workloads_and_changed_counts():
    benchmark = load_benchmark()
    base = _result_file(benchmark)
    workload = benchmark["workloads"][0]["name"]
    failing = copy.deepcopy(base)
    failing["workloads"][workload]["failed"] = 1
    assert len(compare.compare(base, failing, benchmark)[1]) == 1
    missing = copy.deepcopy(base)
    del missing["workloads"][workload]
    assert len(compare.compare(base, missing, benchmark)[1]) == 1
    drifted = copy.deepcopy(base)
    drifted["workloads"][workload]["detail"]["counts"]["wire_bytes"] = 6
    assert len(compare.compare(base, drifted, benchmark)[1]) == 1
    # another seed legitimately has other counts.
    drifted["seed"] = 2
    assert compare.compare(base, drifted, benchmark)[1] == []


def test_compare_command_exit_codes(tmp_path, capsys):
    benchmark = load_benchmark()
    base = _result_file(benchmark)
    worse = copy.deepcopy(base)
    first = benchmark["workloads"][0]["name"]
    worse["workloads"][first]["end_to_end"]["ops_per_s"]["value"] = 50.0
    paths = []
    for name, content in (("a.json", base), ("b.json", worse)):
        path = tmp_path / name
        path.write_text(json.dumps(content))
        paths.append(str(path))
    assert compare.main([paths[0], paths[0]]) == 0
    assert compare.main([paths[0], paths[1]]) == 1
    assert "BREACH" in capsys.readouterr().out
