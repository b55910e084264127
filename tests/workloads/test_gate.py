"""The ``workloads`` row of the CI gate, under the ids tier-1 has named
since it was a gate of its own.  The suite over every row of ``GATES``
(all twenty pinned keys, every stage) is ``tests/perf/test_gate.py``."""

import json

import pytest

from repro.perf.gate import GATES, main, run_gate, workloads_smoke_baseline


@pytest.fixture(scope="module")
def baseline():
    """One real smoke leaderboard shared by the module (the slow part;
    every test compares against a copy)."""
    return workloads_smoke_baseline(workers=1)


def write_baseline(tmp_path, smoke):
    path = tmp_path / "BENCH_workloads.json"
    path.write_text(json.dumps({"smoke_baseline": smoke}, indent=2))
    return path


def gate(tmp_path, smoke, workers=1):
    status, report = run_gate(
        "workloads", write_baseline(tmp_path, smoke), workers=workers
    )
    return status, [
        f"{p['stage']}:{p['reason']} {p['subject']}"
        for p in report["problems"]
    ], report


class TestCleanGate:
    def test_fresh_run_matches_committed_baseline(self, tmp_path, baseline):
        status, problems, report = gate(tmp_path, baseline, workers=2)
        assert (status, problems) == (0, [])
        assert report["gate"] == "workloads"
        assert report["fresh"]["fingerprint"] == baseline["fingerprint"]


class TestTamperDetection:
    def test_drifted_fingerprint_fails(self, tmp_path, baseline):
        status, problems, _ = gate(
            tmp_path, dict(baseline, fingerprint="0" * 16)
        )
        assert (status, problems) == (1, ["fingerprint:changed fingerprint"])

    @pytest.mark.parametrize("key", ["events", "wire_bytes",
                                     "undo_redo_merges",
                                     "state_fingerprint"])
    def test_changed_row_counter_fails(self, tmp_path, baseline, key):
        assert key in GATES["workloads"].row_keys
        rows = [dict(row) for row in baseline["rows"]]
        rows[0][key] = "tampered" if key == "state_fingerprint" else (
            rows[0][key] + 1
        )
        status, problems, _ = gate(tmp_path, dict(baseline, rows=rows))
        assert status == 1
        assert problems == [f"rows:changed {rows[0]['workload']}.{key}"]

    def test_missing_workload_fails(self, tmp_path, baseline):
        status, problems, _ = gate(
            tmp_path, dict(baseline, rows=list(baseline["rows"][1:]))
        )
        assert status == 1
        assert problems == [
            f"rows:missing {baseline['rows'][0]['workload']}"
        ]

    def test_extra_workload_fails(self, tmp_path, baseline):
        ghost = dict(baseline["rows"][0], workload="ghost:workload")
        status, problems, _ = gate(
            tmp_path, dict(baseline, rows=list(baseline["rows"]) + [ghost])
        )
        assert (status, problems) == (1, ["rows:extra ghost:workload"])


class TestUsageErrors:
    def test_unreadable_baseline_exits_two(self, tmp_path):
        status, report = run_gate("workloads", tmp_path / "nope.json")
        assert status == 2
        assert report["problems"][0]["reason"] == "unreadable"

    def test_missing_section_exits_two(self, tmp_path):
        path = tmp_path / "BENCH_workloads.json"
        path.write_text(json.dumps({"experiment": "E20"}))
        status, report = run_gate("workloads", path)
        assert status == 2
        assert report["problems"][0]["reason"] == "no-smoke-baseline"

    def test_cli_clean_run_text_and_json(self, capsys):
        # the CLI takes no row selector: it gates every committed
        # baseline, this row's included.
        assert main(["--workers", "1"]) == 0
        out = capsys.readouterr().out
        for name, spec in GATES.items():
            assert f"{name} gate vs {spec.baseline}: CLEAN" in out
        assert main(["--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == 0
        assert [g["gate"] for g in report["gates"]] == list(GATES)
        assert all(g["workers"] == 2 for g in report["gates"])
