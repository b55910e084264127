"""The workloads CI gate: clean pass against a freshly written
baseline, tamper detection on every pinned key, usage errors."""

import json

import pytest

from repro.perf import (
    PerfTimer,
    gate,
    run_workloads_gate,
    workloads_smoke_baseline,
)
from repro.perf.gate import EXACT_WORKLOAD_KEYS, main


@pytest.fixture(scope="module")
def baseline():
    """One real smoke leaderboard shared by the module (the slow part;
    every test compares against a copy)."""
    return workloads_smoke_baseline(workers=1)


def write_baseline(tmp_path, smoke):
    path = tmp_path / "BENCH_workloads.json"
    path.write_text(json.dumps({"smoke_baseline": smoke}, indent=2))
    return path


class TestCleanGate:
    def test_fresh_run_matches_committed_baseline(self, tmp_path, baseline):
        path = write_baseline(tmp_path, baseline)
        status, report = run_workloads_gate(path, workers=2)
        assert status == 0, report["problems"]
        assert report["problems"] == []
        assert report["mode"] == "workloads"
        assert report["fresh"]["fingerprint"] == baseline["fingerprint"]

    def test_wall_clock_is_reported_not_judged(
        self, tmp_path, baseline, monkeypatch
    ):
        # a clock on which the parallel arm takes 1000x the serial one.
        ticks = iter([0.0, 1.0, 1.0, 1001.0])
        monkeypatch.setattr(
            gate, "PerfTimer", lambda: PerfTimer(clock=lambda: next(ticks))
        )
        status, report = run_workloads_gate(
            write_baseline(tmp_path, baseline), workers=1
        )
        assert status == 0, report["problems"]
        assert report["wall_clock"]["serial_s"] == 1.0
        assert report["wall_clock"]["parallel_s"] == 1000.0


class TestTamperDetection:
    def test_drifted_fingerprint_fails(self, tmp_path, baseline):
        tampered = dict(baseline, fingerprint="0" * 16)
        status, report = run_workloads_gate(
            write_baseline(tmp_path, tampered), workers=1
        )
        assert status == 1
        assert any("fingerprint drifted" in p for p in report["problems"])

    @pytest.mark.parametrize("key", ["events", "wire_bytes",
                                     "undo_redo_merges",
                                     "state_fingerprint"])
    def test_changed_row_counter_fails(self, tmp_path, baseline, key):
        assert key in EXACT_WORKLOAD_KEYS
        rows = [dict(row) for row in baseline["rows"]]
        rows[0][key] = "tampered" if key == "state_fingerprint" else (
            rows[0][key] + 1
        )
        tampered = dict(baseline, rows=rows)
        status, report = run_workloads_gate(
            write_baseline(tmp_path, tampered), workers=1
        )
        assert status == 1
        assert any(key in p for p in report["problems"])

    def test_missing_workload_fails(self, tmp_path, baseline):
        tampered = dict(baseline, rows=list(baseline["rows"][1:]))
        status, report = run_workloads_gate(
            write_baseline(tmp_path, tampered), workers=1
        )
        assert status == 1
        assert any("missing from baseline" in p for p in report["problems"])

    def test_extra_workload_fails(self, tmp_path, baseline):
        ghost = dict(baseline["rows"][0], workload="ghost:workload")
        tampered = dict(baseline, rows=list(baseline["rows"]) + [ghost])
        status, report = run_workloads_gate(
            write_baseline(tmp_path, tampered), workers=1
        )
        assert status == 1
        assert any("not re-run" in p for p in report["problems"])


class TestUsageErrors:
    def test_unreadable_baseline_exits_two(self, tmp_path):
        status, report = run_workloads_gate(
            tmp_path / "nope.json", workers=1
        )
        assert status == 2
        assert "cannot read baseline" in report["error"]

    def test_missing_section_exits_two(self, tmp_path):
        path = tmp_path / "BENCH_workloads.json"
        path.write_text(json.dumps({"experiment": "E20"}))
        status, report = run_workloads_gate(path, workers=1)
        assert status == 2
        assert "smoke_baseline" in report["error"]

    def test_certify_and_workloads_flags_conflict(self, capsys):
        assert main(["--certify", "--workloads"]) == 2
        capsys.readouterr()

    def test_cli_clean_run_text_and_json(self, tmp_path, baseline, capsys):
        path = write_baseline(tmp_path, baseline)
        code = main(["--workloads", "--baseline", str(path),
                     "--workers", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "workloads" in out
        code = main(["--workloads", "--baseline", str(path),
                     "--workers", "1", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["mode"] == "workloads"
