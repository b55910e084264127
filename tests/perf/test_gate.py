"""The CI gate, one suite over the rows of ``GATES``: clean pass, every
stage's typed problems (``schema`` → ``workers`` → ``fingerprint`` →
``rows`` → ``verdict``), and the CLI — driven against real smoke
payloads written to tmp_path."""

import copy
import dataclasses
import functools
import json

import pytest

from repro.perf import gate
from repro.perf.gate import GATES, HIT_RATE_BAND, main, run_gate

ROW_KEYS = [(name, key) for name in GATES for key in GATES[name].row_keys]
PAYLOAD_KEYS = [
    (name, key) for name in GATES for key in GATES[name].payload_keys
]


@functools.lru_cache(maxsize=None)
def _real_payload(name):
    return GATES[name].build(1)


def payload(name):
    """A private copy of the row's real smoke payload (computed once per
    session: it is the slow part every test below tampers with)."""
    return copy.deepcopy(_real_payload(name))


def write(tmp_path, smoke):
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps({"smoke_baseline": smoke}, indent=2))
    return path


def codes(report):
    return [f"{p['stage']}:{p['reason']}" for p in report["problems"]]


def inject(monkeypatch, name, build):
    """Swap the row's builder (``build`` takes the worker count)."""
    monkeypatch.setitem(
        gate.GATES, name, dataclasses.replace(GATES[name], build=build)
    )


@pytest.fixture
def replayed(monkeypatch):
    """Every row's builder replays its cached real payload, so a test
    about what the gate *compares* does not pay for two fresh builds."""
    for name in GATES:
        inject(monkeypatch, name, lambda workers, name=name: payload(name))


def holder(row, dotted):
    """``(dict, leaf)`` such that ``dict[leaf]`` is the row's ``a.b``."""
    *parents, leaf = dotted.split(".")
    for part in parents:
        row = row[part]
    return row, leaf


@pytest.mark.parametrize("name", list(GATES))
class TestEveryGate:
    def test_clean_against_the_committed_baseline(self, name):
        status, report = run_gate(name)
        assert status == 0, report["problems"]
        assert report["gate"] == name
        assert report["baseline"] == str(GATES[name].baseline)
        assert report["problems"] == []

    def test_clean_against_its_own_fresh_payload(self, tmp_path, name):
        status, report = run_gate(name, write(tmp_path, payload(name)))
        assert (status, report["problems"]) == (0, [])
        assert report["fresh"] == {
            key: _real_payload(name)[key] for key in GATES[name].payload_keys
        }

    def test_wall_clock_is_not_reported(self, tmp_path, replayed, name):
        _, report = run_gate(name, write(tmp_path, payload(name)))
        assert set(report) == {
            "gate", "baseline", "workers", "status", "fresh", "problems",
        }

    def test_unreadable_file_is_a_schema_error(self, tmp_path, name):
        status, report = run_gate(name, tmp_path / "nope.json")
        assert status == 2
        assert codes(report) == ["schema:unreadable"]

    def test_missing_smoke_baseline_is_a_schema_error(self, tmp_path, name):
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps({"experiment": "E16"}))
        status, report = run_gate(name, path)
        assert status == 2
        assert codes(report) == ["schema:no-smoke-baseline"]

    def test_baseline_row_lacking_a_gated_key_is_a_schema_error(
        self, tmp_path, name
    ):
        smoke = payload(name)
        key = GATES[name].row_keys[-1]
        where, leaf = holder(smoke[GATES[name].rows][1], key)
        del where[leaf]
        status, report = run_gate(name, write(tmp_path, smoke))
        assert status == 2
        assert codes(report) == ["schema:missing-key"]
        assert report["problems"][0]["subject"].endswith(f"[1].{key}")

    def test_schema_failure_never_builds(self, tmp_path, monkeypatch, name):
        def boom(workers):
            raise AssertionError("built a fresh payload after schema failed")

        inject(monkeypatch, name, boom)
        smoke = payload(name)
        del smoke[GATES[name].payload_keys[0]]
        for path in (tmp_path / "nope.json", write(tmp_path, smoke)):
            status, report = run_gate(name, path)
            assert status == 2
            assert "fresh" not in report
        # ... and the same builder does raise once the schema holds.
        with pytest.raises(AssertionError):
            run_gate(name, write(tmp_path, payload(name)))

    def test_worker_dependence_fails(self, tmp_path, monkeypatch, name):
        real = payload(name)
        poisoned = dict(real, built_by_workers=2)
        inject(monkeypatch, name, lambda w: real if w == 1 else poisoned)
        status, report = run_gate(name, write(tmp_path, real), workers=2)
        assert status == 1
        assert codes(report) == ["workers:payload-differs"]

    def test_missing_row_fails(self, tmp_path, replayed, name):
        smoke = payload(name)
        dropped = smoke[GATES[name].rows].pop(0)[GATES[name].name]
        status, report = run_gate(name, write(tmp_path, smoke))
        assert status == 1
        assert "rows:missing" in codes(report)
        assert dropped in [p["subject"] for p in report["problems"]]

    def test_extra_row_fails(self, tmp_path, replayed, name):
        smoke = payload(name)
        rows = smoke[GATES[name].rows]
        rows.append(dict(rows[0], **{GATES[name].name: "ghost:row"}))
        status, report = run_gate(name, write(tmp_path, smoke))
        assert status == 1
        assert {"stage": "rows", "reason": "extra", "subject": "ghost:row",
                "detail": "in the baseline but not re-run"} in (
            report["problems"]
        )

    def test_stages_report_together(self, tmp_path, replayed, name):
        # a drifted fingerprint does not hide the row that moved.
        smoke = payload(name)
        spec = GATES[name]
        smoke[spec.payload_keys[0]] = "tampered"
        where, leaf = holder(smoke[spec.rows][0], spec.row_keys[0])
        where[leaf] = "tampered"
        status, report = run_gate(name, write(tmp_path, smoke))
        assert status == 1
        assert {"fingerprint:changed", "rows:changed"} <= set(codes(report))


@pytest.mark.parametrize("name,key", PAYLOAD_KEYS)
def test_tampered_payload_key_is_a_fingerprint_problem(
    tmp_path, replayed, name, key
):
    smoke = payload(name)
    smoke[key] = "tampered"
    status, report = run_gate(name, write(tmp_path, smoke))
    assert status == 1
    assert {"stage": "fingerprint", "reason": "changed", "subject": key,
            "detail": f"'tampered' -> {_real_payload(name)[key]!r}"} in (
        report["problems"]
    )


@pytest.mark.parametrize("name,key", ROW_KEYS)
def test_tampered_row_key_names_row_and_key(tmp_path, replayed, name, key):
    smoke = payload(name)
    row = smoke[GATES[name].rows][-1]
    where, leaf = holder(row, key)
    where[leaf] = "tampered"
    status, report = run_gate(name, write(tmp_path, smoke))
    assert status == 1
    changed = [p for p in report["problems"] if p["stage"] == "rows"]
    assert [(p["reason"], p["subject"]) for p in changed] == [
        ("changed", f"{row[GATES[name].name]}.{key}")
    ]


class TestVerdicts:
    def test_certified_skip_never_fired(self, tmp_path, monkeypatch):
        inert = payload("certify")
        for row in inert["cells"]:
            row["certified"] = dict(row["baseline"])
            row["replay_reduction"] = 0
        inert["certified_hits"] = 0
        inject(monkeypatch, "certify", lambda workers: inert)
        status, report = run_gate("certify", write(tmp_path, inert))
        assert status == 1
        assert codes(report) == [
            "verdict:skip-never-fired", "verdict:no-out-of-order-payoff",
        ]

    def test_certified_arm_diverging_from_baseline_state(
        self, tmp_path, monkeypatch
    ):
        diverged = payload("certify")
        diverged["cells"][1]["states_agree"] = False
        inject(monkeypatch, "certify", lambda workers: diverged)
        status, report = run_gate("certify", write(tmp_path, diverged))
        assert status == 1
        assert report["problems"] == [{
            "stage": "verdict", "reason": "states-diverged",
            "subject": diverged["cells"][1]["cell"], "detail": "",
        }]

    def test_inconsistent_workload(self, tmp_path, monkeypatch):
        broken = payload("workloads")
        broken["rows"][0]["consistent"] = False
        inject(monkeypatch, "workloads", lambda workers: broken)
        status, report = run_gate("workloads", write(tmp_path, broken))
        assert status == 1
        assert report["problems"] == [{
            "stage": "verdict", "reason": "inconsistent",
            "subject": broken["rows"][0]["workload"], "detail": "",
        }]


class TestCli:
    @pytest.mark.parametrize("flag", [
        "--baseline", "--certify", "--workloads", "--runtime", "--fresh",
        "--tolerance",
    ])
    def test_retired_options_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([flag])
        assert exit_info.value.code == 2
        capsys.readouterr()

    def test_json_report_carries_typed_problems(
        self, tmp_path, monkeypatch, capsys
    ):
        smoke = payload("perf")
        smoke["cells"][0]["cost_evaluations"] += 1
        monkeypatch.setitem(gate.GATES, "perf", dataclasses.replace(
            GATES["perf"], baseline=write(tmp_path, smoke)
        ))
        assert main(["--workers", "1", "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [g["status"] for g in report["gates"]] == [1, 0, 0]
        (problem,) = report["gates"][0]["problems"]
        assert problem["stage"] == "rows" and problem["reason"] == "changed"
        assert problem["subject"] == (
            f"{smoke['cells'][0]['cell']}.cost_evaluations"
        )
        # text renders the same record as ``stage:reason subject detail``.
        assert main(["--workers", "1"]) == 1
        assert f"problem: rows:changed {problem['subject']} " in (
            capsys.readouterr().out
        )


# -- the perf and certify cases tier-1 has named since the rows were
# separate gates (each is one fixed instance of the suite above, kept
# under its historical id) --------------------------------------------------

def gate_after(tmp_path, name, tamper):
    """Gate ``name`` against its real payload after ``tamper(smoke)``."""
    smoke = payload(name)
    tamper(smoke)
    return run_gate(name, write(tmp_path, smoke), workers=1)


class TestCleanGate:
    def test_fresh_run_matches_committed_baseline(self, tmp_path):
        status, report = gate_after(tmp_path, "perf", lambda smoke: None)
        assert (status, report["problems"]) == (0, [])


class TestTamperDetection:
    def test_drifted_fingerprint_fails(self, tmp_path):
        status, report = gate_after(
            tmp_path, "perf",
            lambda smoke: smoke.update(aggregate_fingerprint="0" * 16),
        )
        assert (status, codes(report)) == (1, ["fingerprint:changed"])

    def test_changed_cell_counter_fails(self, tmp_path):
        def tamper(smoke):
            smoke["cells"][0]["cost_evaluations"] += 1

        status, report = gate_after(tmp_path, "perf", tamper)
        assert (status, codes(report)) == (1, ["rows:changed"])
        assert report["problems"][0]["subject"].endswith(".cost_evaluations")

    def test_hit_rate_above_band_fails(self, tmp_path):
        def tamper(smoke):
            smoke["cost_hit_rate"] += 0.5

        status, report = gate_after(tmp_path, "perf", tamper)
        assert (status, codes(report)) == (1, ["verdict:hit-rate-below-band"])

    def test_hit_rate_within_band_passes(self, tmp_path):
        def tamper(smoke):
            smoke["cost_hit_rate"] += HIT_RATE_BAND / 2

        assert gate_after(tmp_path, "perf", tamper)[0] == 0

    def test_improved_hit_rate_passes(self, tmp_path):
        def tamper(smoke):
            smoke["cost_hit_rate"] -= 0.5

        assert gate_after(tmp_path, "perf", tamper)[0] == 0

    def test_missing_cell_fails(self, tmp_path):
        status, report = gate_after(
            tmp_path, "perf", lambda smoke: smoke["cells"].pop(0)
        )
        assert (status, codes(report)) == (1, ["rows:missing"])


class TestCertifyGate:
    def test_fresh_run_matches_committed_baseline(self, tmp_path):
        status, report = gate_after(tmp_path, "certify", lambda smoke: None)
        assert (status, report["problems"]) == (0, [])
        assert report["fresh"]["certified_hits"] > 0

    def test_changed_certified_counter_fails(self, tmp_path):
        def tamper(smoke):
            smoke["cells"][0]["certified"]["certified_hits"] += 1

        status, report = gate_after(tmp_path, "certify", tamper)
        assert (status, codes(report)) == (1, ["rows:changed"])
        assert report["problems"][0]["subject"].endswith(
            ".certified.certified_hits"
        )

    def test_missing_cell_fails(self, tmp_path):
        status, report = gate_after(
            tmp_path, "certify", lambda smoke: smoke["cells"].pop(0)
        )
        assert (status, codes(report)) == (1, ["rows:missing"])

    def test_missing_section_exits_two(self, tmp_path):
        path = tmp_path / "BENCH_certify.json"
        path.write_text(json.dumps({"experiment": "E19"}))
        status, report = run_gate("certify", path)
        assert (status, codes(report)) == (2, ["schema:no-smoke-baseline"])


class TestUsageErrors:
    def test_unreadable_baseline_exits_two(self, tmp_path):
        status, report = run_gate("perf", tmp_path / "nope.json", workers=1)
        assert (status, codes(report)) == (2, ["schema:unreadable"])

    def test_missing_section_exits_two(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps({"experiment": "E16"}))
        status, report = run_gate("perf", path, workers=1)
        assert (status, codes(report)) == (2, ["schema:no-smoke-baseline"])

    def test_cli_validates_workers(self, capsys):
        assert main(["--workers", "0"]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_cli_json_reports_error(self, tmp_path, monkeypatch, capsys):
        # the worst row decides the exit status.
        monkeypatch.setitem(gate.GATES, "certify", dataclasses.replace(
            GATES["certify"], baseline=tmp_path / "nope.json"
        ))
        assert main(["--workers", "1", "--format", "json"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert [g["status"] for g in report["gates"]] == [0, 2, 0]
        assert report["gates"][1]["problems"][0]["reason"] == "unreadable"
