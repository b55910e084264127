"""The CI perf-regression gate: clean pass, tamper detection, usage
errors — driven against real smoke baselines written to tmp_path."""

import json

import pytest

from repro.perf import (
    PerfTimer,
    certify_smoke_baseline,
    run_certify_gate,
    run_gate,
    run_runtime_gate,
    smoke_baseline,
)
from repro.perf import gate
from repro.perf.gate import RUNTIME_BASELINE, _runtime_smoke_rows, main


@pytest.fixture(scope="module")
def baseline():
    """One real smoke baseline shared by the module (it is the slow
    part; every test below compares against a copy of it)."""
    return smoke_baseline(workers=1)


def write_baseline(tmp_path, smoke):
    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps({"smoke_baseline": smoke}, indent=2))
    return path


class TestCleanGate:
    def test_fresh_run_matches_committed_baseline(self, tmp_path, baseline):
        path = write_baseline(tmp_path, baseline)
        status, report = run_gate(path, workers=2)
        assert status == 0, report["problems"]
        assert report["problems"] == []
        assert report["fresh"]["aggregate_fingerprint"] == (
            baseline["aggregate_fingerprint"]
        )

    def test_wall_clock_is_reported_not_judged(
        self, tmp_path, baseline, monkeypatch
    ):
        # a clock on which the parallel arm takes 1000x the serial one.
        ticks = iter([0.0, 1.0, 1.0, 1001.0])
        monkeypatch.setattr(
            gate, "PerfTimer", lambda: PerfTimer(clock=lambda: next(ticks))
        )
        status, report = run_gate(
            write_baseline(tmp_path, baseline), workers=1
        )
        assert status == 0, report["problems"]
        assert report["wall_clock"]["serial_s"] == 1.0
        assert report["wall_clock"]["parallel_s"] == 1000.0


class TestTamperDetection:
    def test_drifted_fingerprint_fails(self, tmp_path, baseline):
        tampered = dict(baseline, aggregate_fingerprint="0" * 16)
        status, report = run_gate(write_baseline(tmp_path, tampered),
                                  workers=1)
        assert status == 1
        assert any("fingerprint" in p for p in report["problems"])

    def test_changed_cell_counter_fails(self, tmp_path, baseline):
        cells = [dict(row) for row in baseline["cells"]]
        cells[0]["cost_evaluations"] += 1
        tampered = dict(baseline, cells=cells)
        status, report = run_gate(write_baseline(tmp_path, tampered),
                                  workers=1)
        assert status == 1
        assert any("cost_evaluations" in p for p in report["problems"])

    def test_hit_rate_above_band_fails(self, tmp_path, baseline):
        tampered = dict(
            baseline, cost_hit_rate=baseline["cost_hit_rate"] + 0.5
        )
        status, report = run_gate(write_baseline(tmp_path, tampered),
                                  workers=1, tolerance=0.02)
        assert status == 1
        assert any("hit rate" in p for p in report["problems"])

    def test_hit_rate_within_band_passes(self, tmp_path, baseline):
        tampered = dict(
            baseline, cost_hit_rate=baseline["cost_hit_rate"] + 0.01
        )
        status, _ = run_gate(write_baseline(tmp_path, tampered),
                             workers=1, tolerance=0.02)
        assert status == 0

    def test_missing_cell_fails(self, tmp_path, baseline):
        tampered = dict(baseline, cells=list(baseline["cells"][1:]))
        status, report = run_gate(write_baseline(tmp_path, tampered),
                                  workers=1)
        assert status == 1
        assert any("missing from baseline" in p for p in report["problems"])


class TestCertifyGate:
    @pytest.fixture(scope="class")
    def certify(self):
        return certify_smoke_baseline()

    def write(self, tmp_path, smoke):
        path = tmp_path / "BENCH_certify.json"
        path.write_text(json.dumps({"smoke_baseline": smoke}, indent=2))
        return path

    def test_fresh_run_matches_committed_baseline(self, tmp_path, certify):
        status, report = run_certify_gate(self.write(tmp_path, certify))
        assert status == 0, report["problems"]
        assert report["fresh"]["certified_hits"] > 0

    def test_changed_certified_counter_fails(self, tmp_path, certify):
        cells = [
            dict(row, certified=dict(row["certified"]))
            for row in certify["cells"]
        ]
        cells[0]["certified"]["certified_hits"] += 1
        tampered = dict(certify, cells=cells)
        status, report = run_certify_gate(self.write(tmp_path, tampered))
        assert status == 1
        assert any("certified_hits" in p for p in report["problems"])

    def test_missing_cell_fails(self, tmp_path, certify):
        tampered = dict(certify, cells=list(certify["cells"][1:]))
        status, report = run_certify_gate(self.write(tmp_path, tampered))
        assert status == 1
        assert any("missing from baseline" in p for p in report["problems"])

    def test_missing_section_exits_two(self, tmp_path):
        path = tmp_path / "BENCH_certify.json"
        path.write_text(json.dumps({"experiment": "E19"}))
        status, report = run_certify_gate(path)
        assert status == 2
        assert "smoke_baseline" in report["error"]


class TestRuntimeGate:
    @pytest.fixture(scope="class")
    def smoke_rows(self):
        """The deterministic runtime rows, recomputed once per class
        (pure event-stream generation, no cluster boot)."""
        return _runtime_smoke_rows()

    @pytest.fixture()
    def payload(self, smoke_rows):
        """A well-formed BENCH_runtime.json payload built around the
        real deterministic rows, with invented wall numbers."""
        series = [
            dict(row, submitted=row["events"], rejected=0, converged=True,
                 wall_secs=1.0, ops_per_sec=500.0 - 10.0 * i)
            for i, row in enumerate(smoke_rows)
        ]
        return {
            "experiment": "E21",
            "headline": {
                "workload": smoke_rows[0]["workload"],
                "pipeline": 32,
                "serial_ops_per_sec": 40.0,
                "pipelined_ops_per_sec": 500.0,
                "speedup_vs_fresh_serial": 12.5,
                "speedup_vs_committed_baseline": 15.6,
                "checks": {"clean": True},
                "serial_checks": {"clean": True},
            },
            "series": series,
            "smoke_baseline": {"rows": smoke_rows},
        }

    def write(self, tmp_path, payload, name="BENCH_runtime.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload, indent=2))
        return path

    def test_committed_baseline_gates_clean(self):
        status, report = run_runtime_gate(RUNTIME_BASELINE)
        assert status == 0, report["problems"]

    def test_well_formed_payload_gates_clean(self, tmp_path, payload):
        status, report = run_runtime_gate(self.write(tmp_path, payload))
        assert status == 0, report["problems"]
        assert report["mode"] == "runtime"

    def test_sub_minimum_speedup_fails(self, tmp_path, payload):
        payload["headline"]["speedup_vs_committed_baseline"] = 9.9
        status, report = run_runtime_gate(self.write(tmp_path, payload))
        assert status == 1
        assert any("below the required" in p for p in report["problems"])

    def test_drifted_smoke_row_fails(self, tmp_path, payload):
        rows = [dict(row) for row in payload["smoke_baseline"]["rows"]]
        rows[0]["events"] += 1
        payload["smoke_baseline"] = {"rows": rows}
        status, report = run_runtime_gate(self.write(tmp_path, payload))
        assert status == 1
        assert any("drifted" in p for p in report["problems"])

    def test_unclean_checks_fail(self, tmp_path, payload):
        payload["headline"]["checks"] = {"clean": False}
        status, report = run_runtime_gate(self.write(tmp_path, payload))
        assert status == 1
        assert any("clean oracle" in p for p in report["problems"])

    def test_unranked_series_fails(self, tmp_path, payload):
        payload["series"][0]["ops_per_sec"] = 1.0  # now below row 1
        status, report = run_runtime_gate(self.write(tmp_path, payload))
        assert status == 1
        assert any("not ranked" in p for p in report["problems"])

    def test_unconverged_series_row_fails(self, tmp_path, payload):
        payload["series"][-1]["converged"] = False
        status, report = run_runtime_gate(self.write(tmp_path, payload))
        assert status == 1
        assert any("did not converge" in p for p in report["problems"])

    def test_fresh_smoke_bench_matching_passes(self, tmp_path, payload):
        baseline = self.write(tmp_path, payload)
        fresh = self.write(tmp_path, payload, name="fresh.json")
        status, report = run_runtime_gate(baseline, fresh_path=fresh)
        assert status == 0, report["problems"]
        assert report["fresh"]["pipelined_ops_per_sec"] == 500.0

    def test_fresh_deterministic_drift_fails(self, tmp_path, payload):
        baseline = self.write(tmp_path, payload)
        rows = [dict(row) for row in payload["smoke_baseline"]["rows"]]
        rows[0]["events"] += 1
        drifted = dict(payload, smoke_baseline={"rows": rows})
        fresh = self.write(tmp_path, drifted, name="fresh.json")
        status, report = run_runtime_gate(baseline, fresh_path=fresh)
        assert status == 1
        assert any(
            "fresh smoke bench" in p for p in report["problems"]
        )

    def test_fresh_pipelined_below_serial_fails(self, tmp_path, payload):
        baseline = self.write(tmp_path, payload)
        slow = dict(payload)
        slow["headline"] = dict(
            payload["headline"],
            serial_ops_per_sec=500.0, pipelined_ops_per_sec=40.0,
        )
        fresh = self.write(tmp_path, slow, name="fresh.json")
        status, report = run_runtime_gate(baseline, fresh_path=fresh)
        assert status == 1
        assert any("fell below" in p for p in report["problems"])

    def test_missing_section_exits_two(self, tmp_path):
        path = self.write(tmp_path, {"experiment": "E21"})
        status, report = run_runtime_gate(path)
        assert status == 2
        assert "smoke_baseline" in report["error"]

    def test_unreadable_fresh_exits_two(self, tmp_path, payload):
        baseline = self.write(tmp_path, payload)
        status, report = run_runtime_gate(
            baseline, fresh_path=tmp_path / "nope.json"
        )
        assert status == 2
        assert "cannot read fresh bench" in report["error"]


class TestUsageErrors:
    def test_unreadable_baseline_exits_two(self, tmp_path):
        status, report = run_gate(tmp_path / "nope.json", workers=1)
        assert status == 2
        assert "cannot read baseline" in report["error"]

    def test_missing_section_exits_two(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps({"experiment": "E16"}))
        status, report = run_gate(path, workers=1)
        assert status == 2
        assert "smoke_baseline" in report["error"]

    def test_cli_validates_workers(self, capsys):
        assert main(["--workers", "0"]) == 2
        capsys.readouterr()

    def test_cli_modes_are_mutually_exclusive(self, capsys):
        assert main(["--certify", "--runtime"]) == 2
        capsys.readouterr()

    def test_cli_fresh_requires_runtime(self, tmp_path, capsys):
        assert main(["--fresh", str(tmp_path / "x.json")]) == 2
        capsys.readouterr()

    def test_cli_json_reports_error(self, tmp_path, capsys):
        code = main([
            "--baseline", str(tmp_path / "nope.json"),
            "--workers", "1", "--format", "json",
        ])
        assert code == 2
        assert "error" in json.loads(capsys.readouterr().out)
