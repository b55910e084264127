"""The workload throughput leaderboard.

Aggregates per-workload rows (from :mod:`repro.workloads.runners`) into
one ranked report, in the style of the BFCL executable evaluator's
per-category leaderboard: rows ranked by sustained arrival throughput,
plus the merge/repair economics per category — undo/redo work,
cost-cache and certified-hit rates, modeled wire bytes, convergence
lag.

The leaderboard payload is **deterministic**: ranking keys on the
sim-axis throughput (a pure function of the spec) and ties break on
the workload name, and the aggregate fingerprint hashes each row's
final-state fingerprint in name order.  How many operations a host
executes per real second is ``benchmarks/shardbench``'s measurement,
not this module's.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..perf.campaign import aggregate_fingerprint, campaign_json

__all__ = [
    "build_leaderboard",
    "leaderboard_json",
    "render_text",
]


def build_leaderboard(
    rows: Sequence[Dict[str, object]]
) -> Dict[str, object]:
    """Rank rows into the deterministic leaderboard payload."""
    ordered = sorted(
        rows, key=lambda r: (-r["ops_per_sim_sec"], r["workload"])
    )
    by_name = sorted(rows, key=lambda r: r["workload"])
    return {
        "rows": list(ordered),
        "categories": sorted({r["category"] for r in rows}),
        "total_events": sum(r["events"] for r in rows),
        "total_undo_redo": sum(r["undo_redo_merges"] for r in rows),
        "consistent": all(r["consistent"] for r in rows),
        "fingerprint": aggregate_fingerprint(
            [r["state_fingerprint"] for r in by_name]
        ),
    }


def leaderboard_json(payload: Dict[str, object]) -> str:
    """Canonical byte form (what determinism tests compare)."""
    return campaign_json(payload)


_COLUMNS = (
    ("workload", "workload", "{}"),
    ("category", "category", "{}"),
    ("events", "events", "{}"),
    ("ops/sim-s", "ops_per_sim_sec", "{}"),
    ("fastpath", "fastpath_rate", "{:.1%}"),
    ("undo/redo", "undo_redo_merges", "{}"),
    ("cache", "cost_hit_rate", "{:.1%}"),
    ("wire-KB", "wire_bytes", None),  # special-cased below
    ("lag-s", "convergence_lag", "{}"),
    ("ok", "consistent", None),
)


def render_text(board: Dict[str, object]) -> str:
    """A fixed-width text table of the leaderboard."""
    headers = [title for title, _, _ in _COLUMNS]
    table: List[List[str]] = [headers]
    for row in board["rows"]:
        cells = []
        for title, key, fmt in _COLUMNS:
            value = row[key]
            if title == "wire-KB":
                cells.append(f"{value / 1024:.1f}")
            elif title == "ok":
                cells.append("yes" if value else "NO")
            else:
                cells.append(fmt.format(value))
        table.append(cells)
    widths = [
        max(len(line[i]) for line in table) for i in range(len(headers))
    ]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths))
        for line in table
    ]
    lines.insert(1, "  ".join("-" * width for width in widths))
    summary = (
        f"categories={len(board['categories'])} "
        f"events={board['total_events']} "
        f"consistent={'yes' if board['consistent'] else 'NO'} "
        f"fingerprint={board['fingerprint']}"
    )
    lines.append(summary)
    return "\n".join(lines)
