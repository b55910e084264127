"""Shared helpers for the benchmark/experiment suite.

Each ``bench_*.py`` file regenerates one experiment from DESIGN.md's
per-experiment index (E1-E12).  Conventions:

* the experiment body is timed once via ``benchmark.pedantic(...,
  rounds=1)`` — these are simulation experiments, not microbenchmarks;
* every experiment renders one or more :class:`repro.harness.Table`s,
  prints them (visible with ``pytest -s``) and saves them under
  ``benchmarks/results/`` so EXPERIMENTS.md can quote them;
* every experiment *asserts* the paper's qualitative claim, so the bench
  suite doubles as an end-to-end acceptance test of the reproduction.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Sequence

from repro.harness import Table

#: committed results; a ``BENCH_SMOKE=1`` run computes smoke-size
#: payloads, so it writes to a git-ignored scratch directory instead.
RESULTS_DIR = Path(__file__).parent / (
    ".smoke-results" if os.environ.get("BENCH_SMOKE") else "results"
)


def save_tables(name: str, tables: Sequence[Table]) -> str:
    """Render, persist and print an experiment's tables."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n\n".join(t.render() for t in tables)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)
    return text


def run_once(benchmark, fn):
    """Time ``fn`` exactly once through pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
