"""Workload runners: every category executes to a consistent quiescent
state and reports an internally coherent row."""

import os
import subprocess
import sys

import pytest

from repro.workloads import CATEGORIES
from repro.workloads.runners import run_workload
from repro.workloads.spec import WorkloadSpec


def _quick_spec(category, **kwargs):
    base = dict(
        name=f"quick-{category}", category=category, seed=17,
        duration=6.0, rate=3.0, universe=1_000_000, zipf=1.1,
        n_nodes=3,
    )
    base.update(kwargs)
    return WorkloadSpec(**base)


@pytest.mark.parametrize("category", CATEGORIES)
def test_every_category_runs_consistent(category):
    spec = _quick_spec(category)
    row = run_workload(spec)
    assert row["consistent"] is True
    assert row["category"] == category
    assert row["events"] > 0
    # every planned event was either logged or rejected; nothing lost.
    assert row["log_length"] + row["rejected"] == row["events"]
    assert row["inserts"] >= row["log_length"]
    assert row["ops_per_sim_sec"] == pytest.approx(
        row["events"] / spec.duration, abs=1e-3
    )
    assert row["wire_bytes"] > 0
    assert row["convergence_lag"] >= 0.0
    assert len(row["state_fingerprint"]) == 16
    assert row["spec"] == spec.as_dict()


def test_row_is_deterministic():
    a = run_workload(_quick_spec("dictionary"))
    b = run_workload(_quick_spec("dictionary"))
    assert a == b


@pytest.mark.parametrize("category", ["dictionary", "nameserver"])
def test_fingerprint_survives_hash_randomization(category):
    # these categories hold frozensets in their states; the fingerprint
    # must canonicalize them, not trust repr's hash-seeded set order.
    script = (
        "from repro.workloads.runners import run_workload\n"
        "from repro.workloads.spec import WorkloadSpec\n"
        f"spec = WorkloadSpec(name='h', category={category!r}, seed=3,\n"
        "    duration=4.0, rate=3.0, universe=1000, zipf=1.1)\n"
        "print(run_workload(spec)['state_fingerprint'])\n"
    )
    prints = set()
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        result = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, check=True,
        )
        prints.add(result.stdout.strip())
    assert len(prints) == 1, prints


def test_read_fraction_counts_read_families():
    row = run_workload(_quick_spec(
        "banking",
        mix=(("audit", 1.0), ("deposit", 1.0), ("withdraw", 0.0),
             ("transfer", 0.0)),
    ))
    assert 0 < row["reads"] < row["events"]


def test_window_knob_reaches_the_merge_engine():
    # a tiny tail window forces more undo/redo than a wide one on the
    # same out-of-order stream.
    narrow = run_workload(_quick_spec("counter", window=1, rate=6.0))
    wide = run_workload(_quick_spec("counter", window=64, rate=6.0))
    assert narrow["events"] == wide["events"]
    assert narrow["undo_redo_merges"] >= wide["undo_redo_merges"]
