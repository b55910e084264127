"""E19 — the certified commutativity skip on the merge hot path.

The certifier (``repro.certify``) derives, per unordered update-family
pair, a machine-checked commutation verdict; the merge engine consults
it to apply a non-tail insert *in place* whenever the displaced suffix
is entirely certified-commutative, skipping the undo/redo replay.  The
experiment runs each merge regime twice with the same seed — baseline
undo/redo vs certified skip — and asserts:

* **equivalence** — both arms finish in the identical final state in
  every regime (equal state fingerprints): the skip changes the repair
  cost, never the fold;
* **payoff** — in the out-of-order regimes (jittery, partitioned) the
  skip actually fires (certified hits > 0) and replays fewer update
  applications than the baseline;
* **certificate shape** — the derived airline pair table contains the
  paper's structure: ``cancel`` self-commutes, the disjoint-parameter
  pairs commute conditionally, and ``request`` does *not* self-commute
  (wait-list order is priority, Section 4.2).

Beyond the rendered table, the run writes machine-readable numbers —
including the ``smoke_baseline`` section the CI gate
(``python -m repro.perf.gate``) re-runs and compares — to
``benchmarks/results/BENCH_certify.json``.
"""

import json
import os

from common import RESULTS_DIR, run_once, save_tables

from repro.certify import airline_spec, build_pair_table
from repro.harness import Table
from repro.perf import (
    CERTIFY_DEFAULT_CELLS,
    CERTIFY_SMOKE_CELLS,
    run_certify_cell,
)
from repro.perf.gate import certify_smoke_baseline

BENCH_SMOKE = bool(os.environ.get("BENCH_SMOKE"))
CELLS = CERTIFY_SMOKE_CELLS if BENCH_SMOKE else CERTIFY_DEFAULT_CELLS
OUT_OF_ORDER = ("jittery", "partitioned")


def _experiment():
    pairs = build_pair_table(airline_spec())
    verdicts = {key: entry["certified"] for key, entry in pairs.items()}
    cells = [run_certify_cell(spec) for spec in CELLS]
    smoke = certify_smoke_baseline()

    table = Table(
        "E19: certified commutativity skip (baseline vs certified, "
        "same seed)",
        ["regime", "states agree", "certified hits", "undo/redo b->c",
         "applied b->c", "replay reduction"],
    )
    for row in cells:
        table.add(
            row["regime"],
            row["states_agree"],
            row["certified"]["certified_hits"],
            f"{row['baseline']['undo_redo_merges']}->"
            f"{row['certified']['undo_redo_merges']}",
            f"{row['baseline']['updates_applied']}->"
            f"{row['certified']['updates_applied']}",
            row["replay_reduction"],
        )

    verdict_table = Table(
        "E19: certified airline pair verdicts (static+sampling minimum)",
        ["pair", "certified"],
    )
    for key in sorted(verdicts):
        verdict_table.add(key, verdicts[key])

    payload = {
        "experiment": "E19",
        "smoke": BENCH_SMOKE,
        "pair_verdicts": verdicts,
        "cells": cells,
        "smoke_baseline": smoke,
    }
    return (table, verdict_table), payload


def test_e19_certify(benchmark):
    tables, payload = run_once(benchmark, _experiment)
    save_tables("E19_certify", list(tables))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_certify.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    by_regime = {row["regime"]: row for row in payload["cells"]}

    # equivalence: the skip never changes the fold.
    assert all(row["states_agree"] for row in payload["cells"])

    # payoff: certified hits with a replay reduction in the
    # out-of-order regimes.
    for regime in OUT_OF_ORDER:
        row = by_regime[regime]
        assert row["certified"]["certified_hits"] > 0, regime
        assert row["replay_reduction"] > 0, regime
        assert (
            row["certified"]["undo_redo_merges"]
            <= row["baseline"]["undo_redo_merges"]
        ), regime

    # certificate shape: the paper's commutation structure.
    verdicts = payload["pair_verdicts"]
    assert verdicts["cancel|cancel"] == "always"
    assert verdicts["cancel|request"] == "disjoint"
    assert verdicts["move_down|move_up"] == "disjoint"
    assert verdicts["request|request"] == "none"

    # the smoke baseline the CI gate replays is present and healthy.
    smoke = payload["smoke_baseline"]
    assert smoke["certified_hits"] > 0
    assert all(row["states_agree"] for row in smoke["cells"])
