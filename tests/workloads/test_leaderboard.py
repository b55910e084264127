"""The leaderboard: worker-count independence (the acceptance
criterion), deterministic ranking, and no host timing in the payload."""

import json

import pytest

from repro.workloads.leaderboard import (
    build_leaderboard,
    leaderboard_json,
    render_text,
)
from repro.workloads.runners import run_parallel_workloads
from repro.workloads.specs import SMOKE_SPECS


@pytest.fixture(scope="module")
def serial():
    return run_parallel_workloads(SMOKE_SPECS, workers=1)


class TestWorkerIndependence:
    def test_workers_8_is_byte_identical_to_serial(self, serial):
        rows8 = run_parallel_workloads(SMOKE_SPECS, workers=8)
        board1 = build_leaderboard(serial)
        board8 = build_leaderboard(rows8)
        assert leaderboard_json(board1) == leaderboard_json(board8)
        assert board1["fingerprint"] == board8["fingerprint"]

    def test_rows_come_back_in_spec_order(self, serial):
        assert [r["workload"] for r in serial] == [
            s.name for s in SMOKE_SPECS
        ]


class TestBoard:
    def test_board_shape(self, serial):
        board = build_leaderboard(serial)
        assert board["consistent"] is True
        assert board["categories"] == sorted(
            {s.category for s in SMOKE_SPECS}
        )
        assert board["total_events"] == sum(r["events"] for r in serial)
        ranked = [r["ops_per_sim_sec"] for r in board["rows"]]
        assert ranked == sorted(ranked, reverse=True)
        # the payload is pure JSON (committable and diffable).
        assert json.loads(leaderboard_json(board)) == board

    def test_ranking_is_deterministic_not_insertion_order(self, serial):
        board_fwd = build_leaderboard(serial)
        board_rev = build_leaderboard(list(reversed(serial)))
        assert leaderboard_json(board_fwd) == leaderboard_json(board_rev)

    def test_profile_stays_out_of_the_payload(self, serial):
        # no host timing rides in the rows, the board or its rendering.
        board = build_leaderboard(serial)
        assert "profile" not in board
        assert all("elapsed" not in key and "wall" not in key
                   for row in serial for key in row)
        assert "wall" not in leaderboard_json(board)
        assert "wall" not in render_text(board)

    def test_render_text(self, serial):
        board = build_leaderboard(serial)
        text = render_text(board)
        assert "workload" in text and "ops/sim-s" in text
        assert board["fingerprint"] in text
        for row in serial:
            assert row["workload"] in text
