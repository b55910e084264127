"""Deterministic campaigns and the CI gate built on them.

Both pieces rest on the determinism contracts the rest of the repo
already enforces, and neither reads a clock (wall time is measured by
``benchmarks/shardbench`` alone):

* :mod:`repro.perf.campaign` — ``python -m repro.perf.campaign``: fans
  seeded chaos runs and merge-hot-path seed cells
  (:mod:`repro.perf.cells`) across a ``multiprocessing`` pool.  Every
  run derives its randomness from ``(seed, index)`` alone, results are
  merged in index order, and the aggregate fingerprint is bit-identical
  whatever the worker count.
* :mod:`repro.perf.gate` — ``python -m repro.perf.gate``: the one CI
  regression gate.  Re-runs the ``smoke_baseline`` sections of the
  committed ``BENCH_perf.json``, ``BENCH_certify.json`` and
  ``BENCH_workloads.json`` and fails on any drift in a count or a
  fingerprint.

The names below resolve on first use rather than at package import, so
``python -m repro.perf.gate`` and ``python -m repro.perf.campaign`` run
their module body once.
"""

import importlib

_OWNERS = {
    "campaign": (
        "aggregate_fingerprint", "campaign_json", "fan_out",
        "run_parallel_campaign", "run_parallel_cells",
    ),
    "cells": (
        "CERTIFY_DEFAULT_CELLS", "CERTIFY_SMOKE_CELLS", "DEFAULT_CELLS",
        "SMOKE_CELLS", "CellSpec", "run_cell", "run_certify_cell",
    ),
    "gate": (
        "GATES", "Problem", "certify_smoke_baseline", "run_gate",
        "smoke_baseline", "workloads_smoke_baseline",
    ),
}
_OWNER_OF = {
    name: module for module, names in _OWNERS.items() for name in names
}

__all__ = sorted(_OWNER_OF)


def __getattr__(name):
    module = _OWNER_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
