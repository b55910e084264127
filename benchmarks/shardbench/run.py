"""shardbench: one end-to-end + per-layer benchmark for the simulated
cluster, the live TCP cluster and the offline verifiers.

Two ways to run it, from the root of a checkout::

    python3 benchmarks/shardbench/run.py --seed N [--out FILE]
    python3 benchmarks/shardbench/run.py --workload NAME --seed N \\
        --seconds S --trace 0|1

The first runs every workload of ``BENCHMARK.json`` untraced and traced
(each in a fresh subprocess), prints every metric by name with its unit
and writes them to ``FILE``.  The second is one run of one workload —
what the first spawns, and what a driver calls: its last output line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  A failed correctness check prints which check failed
and exits non-zero without a result.

See README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
#: scratch space inside the checkout (git-ignored): live-cluster
#: histories and the default ``--out`` file.
WORK = HERE / ".work"

#: line prefix of the machine-readable detail a single run prints before
#: its result line (counts, fingerprint, span table).
DETAIL_PREFIX = "shardbench-detail "

LIVE_WORKLOAD = "live-open-loop"

#: a simulator run first repeats a small cluster for this long, unmeasured.
WARMUP_S = 2.0
WARMUP_EVENTS = 300


def load_benchmark() -> Dict[str, object]:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def program_environment() -> Dict[str, str]:
    """The environment every run (and every node process it boots)
    gets: the program importable from source, string hashing pinned so
    set iteration order — and with it every count — repeats."""
    env = dict(os.environ)
    paths = [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    return env


class HarnessBug(Exception):
    """The harness contradicted itself (e.g. traced != untraced)."""


# -- one run of one workload ---------------------------------------------------


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def run_sim(name: str, seed: int, seconds: float, traced: bool):
    """Trials of a simulator workload until ``seconds`` are filled.

    Returns ``(end_to_end, per_layer, attempted, failed, detail)``;
    ``per_layer`` is None for an untraced run."""
    from stats import percentile
    from sim_workloads import ROOT_SPAN, patch_layers, run_trial, workload_for
    from tracing import SpanRecorder

    workload = workload_for(name, seed)
    # warm-up, not measured: the first busy second after an idle spell
    # runs up to a third slower on this kind of machine, whatever runs.
    warmup = dataclasses.replace(
        workload,
        plans=(dataclasses.replace(workload.plans[0], events=WARMUP_EVENTS),),
        verify_prefix=min(workload.verify_prefix, WARMUP_EVENTS),
    )
    warmup_started = time.perf_counter()
    while time.perf_counter() - warmup_started < WARMUP_S:
        run_trial(warmup)
    trials = []
    window_started = time.perf_counter()
    while True:
        trial_started = time.perf_counter()
        trials.append(run_trial(workload))
        now = time.perf_counter()
        # every trial repeats the same fixed work; another one starts
        # only if it would still end inside the measuring window.
        if (now - window_started) + (now - trial_started) > seconds:
            break
    first = trials[0]
    for other in trials[1:]:
        if (other.counts, other.fingerprint) != (first.counts, first.fingerprint):
            raise HarnessBug("two untraced trials of one seed differ")
    attempted = sum(t.events for t in trials)
    failed = sum(t.rejected for t in trials)
    end_to_end = {
        "setup_s": median(s for t in trials for s in t.setup_s),
        "ops_per_s": median(t.events / t.run_s for t in trials),
        "ack_p50_ms": median(percentile(t.ack_ms, 50) for t in trials),
        "wire_bytes_per_op": first.counts["wire_bytes"] / first.events,
        "verify_txn_per_s": median(t.verified / t.verify_s for t in trials),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
    }
    detail = {
        "trials": len(trials),
        "ack_samples": len(first.ack_ms),
        "fingerprint": first.fingerprint,
        "counts": first.counts,
    }
    if not traced:
        return end_to_end, None, attempted, failed, detail

    with SpanRecorder() as recorder:
        patch_layers(recorder)
        traced_trial = run_trial(workload, recorder)
    # determinism cross-check: tracing must not change what the program
    # does, only how long it takes.
    if traced_trial.fingerprint != first.fingerprint:
        raise HarnessBug(
            f"traced final state {traced_trial.fingerprint} differs from "
            f"untraced {first.fingerprint}"
        )
    if traced_trial.counts != first.counts:
        changed = sorted(
            key for key in first.counts
            if traced_trial.counts.get(key) != first.counts[key]
        )
        raise HarnessBug(f"traced counts differ from untraced: {changed}")
    counts = first.counts
    events = first.events
    untraced_window = median(t.run_s + t.verify_s for t in trials)
    root_total = recorder.total_s(ROOT_SPAN)
    per_layer = {
        "workloads.generate_s": traced_trial.generate_s,
        "workloads.events": events,
        "sim.self_s": recorder.self_s("sim"),
        "sim.ops_per_s_q1": median(
            t.first_slice[0] / t.first_slice[1] for t in trials
        ),
        "sim.ops_per_s_q4": median(
            t.last_slice[0] / t.last_slice[1] for t in trials
        ),
        "network.self_s": recorder.self_s("network"),
        "network.send_calls": counts["network.send_calls"],
        "network.messages_per_op": counts["network.send_calls"] / events,
        "gossip.publish_self_s": recorder.self_s("gossip.publish"),
        "gossip.receive_self_s": recorder.self_s("gossip.receive"),
        "gossip.exchange_self_s": recorder.self_s("gossip.exchange"),
        "gossip.flood_messages": counts["gossip.flood_messages"],
        "gossip.anti_entropy_messages": counts["gossip.anti_entropy_messages"],
        "gossip.items_carried": counts["gossip.items_carried"],
        "gossip.useful_copy_ratio": _share(
            counts["gossip.remote_deliveries"], counts["gossip.items_carried"]
        ),
        "gossip.causally_deferred": counts["gossip.causally_deferred"],
        "gossip.delta_records": counts["gossip.delta_records"],
        "gossip.repair_pulls": counts["gossip.repair_pulls"],
        "gossip.ack_timeouts": counts["gossip.ack_timeouts"],
        "gossip.delivery_delay_p50": percentile(first.delivery_delays, 50),
        "gossip.delivery_delay_p99": percentile(first.delivery_delays, 99),
        "shard.initiate_self_s": recorder.self_s("shard.initiate"),
        "shard.initiate_calls": counts["shard.initiate_calls"],
        "shard.rejected": first.rejected,
        "shard.ack_p90_ms": median(percentile(t.ack_ms, 90) for t in trials),
        "shard.k_deficit_mean": sum(first.k_deficits) / len(first.k_deficits),
        "shard.k_deficit_p99": percentile(first.k_deficits, 99),
        "replica.ingest_self_s": recorder.self_s("replica.ingest"),
        "replica.ingest_batch_self_s": recorder.self_s("replica.ingest_batch"),
        "replica.inserts": counts["replica.inserts"],
        "replica.fastpath_rate": _share(
            counts["replica.fastpath_hits"], counts["replica.inserts"]
        ),
        "replica.undo_redo_merges": counts["replica.undo_redo_merges"],
        "replica.replay_per_insert": _share(
            counts["replica.updates_applied"], counts["replica.inserts"]
        ),
        "replica.certified_hits": counts["replica.certified_hits"],
        "replica.batched_inserts": counts["replica.batched_inserts"],
        "replica.cost_hit_rate": _share(
            counts["replica.cost_hits"],
            counts["replica.cost_hits"] + counts["apps.cost_evaluations"],
        ),
        "apps.cost_fn_self_s": recorder.self_s("apps.cost_fn"),
        "apps.cost_evaluations": counts["apps.cost_evaluations"],
        "shard.history.extract_s": recorder.total_s("shard.history.extract"),
        "core.validate_s": recorder.total_s("core.validate"),
        "core.transitive_s": recorder.total_s("core.transitive"),
        "consistency.history_build_s": recorder.total_s(
            "consistency.history_build"
        ),
        "consistency.rc_s": recorder.total_s("consistency.rc"),
        "consistency.ra_s": recorder.total_s("consistency.ra"),
        "consistency.causal_s": recorder.total_s("consistency.causal"),
        "trace.overhead_share": (
            (traced_trial.run_s + traced_trial.verify_s) / untraced_window - 1.0
        ),
        "trace.coverage_share": 1.0
        - _share(recorder.self_s(ROOT_SPAN), root_total),
    }
    detail["spans"] = recorder.table()
    return end_to_end, per_layer, attempted, failed, detail


def run_live(seed: int, seconds: float, traced: bool):
    """One run of the live workload; same return shape as ``run_sim``."""
    from live_workload import run_trial
    from stats import highest_supported_percentile, percentile

    WORK.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="live-", dir=WORK)
    try:
        trial = run_trial(seed, seconds, work_dir, probe=traced)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    acks = trial.open_loop.ack_ms
    acked = len(acks)
    end_to_end = {
        "setup_s": median(trial.boot_s),
        "ops_per_s": median(trial.flat_out_ops_per_s),
        "ack_p50_ms": percentile(acks, 50),
        "wire_bytes_per_op": trial.open_loop_profile["bytes_out"] / acked,
        "verify_txn_per_s": trial.verified / trial.verify_s,
        "peak_rss_mb": trial.peak_node_rss_mb,
    }
    detail = {
        "trials": 1,
        "ack_samples": acked,
        "ack_highest_supported_percentile": highest_supported_percentile(acked),
        "boots": len(trial.boot_s),
        "flat_out_ops_per_s": trial.flat_out_ops_per_s,
    }
    if not traced:
        return end_to_end, None, trial.attempted, trial.failed, detail
    flat = trial.flat_out_profile
    open_loop = trial.open_loop_profile
    per_layer = {
        "workloads.events": trial.attempted,
        "gossip.delivery_delay_p50": percentile(trial.delivery_delays, 50),
        "gossip.delivery_delay_p99": percentile(trial.delivery_delays, 99),
        "shard.rejected": trial.failed,
        "shard.k_deficit_mean": sum(trial.k_deficits) / len(trial.k_deficits),
        "shard.k_deficit_p99": percentile(trial.k_deficits, 99),
        "runtime.supervisor.boot_s": median(trial.boot_s),
        "runtime.supervisor.recover_catchup_s": trial.recover_catchup_s,
        "runtime.client.ack_p90_ms": percentile(acks, 90),
        "runtime.client.ack_p99_ms": percentile(acks, 99),
        "runtime.client.late_p99_ms": percentile(trial.open_loop.late_ms, 99),
        "runtime.client.codec_us_per_op": trial.probes["client_codec_us_per_op"],
        "runtime.client.inflight_peak": trial.client_inflight_peak,
        "runtime.client.rejected": trial.client_rejected,
        "runtime.node.converge_s": trial.converge_s,
        "runtime.wire.node_codec_ms_per_op": (
            (open_loop["encode_ns"] + open_loop["decode_ns"]) / 1e6 / acked
        ),
        "runtime.wire.encode_us_per_record": trial.probes["encode_us_per_record"],
        "runtime.wire.decode_us_per_record": trial.probes["decode_us_per_record"],
        "runtime.wire.bytes_per_record_head": trial.probes["bytes_per_record_head"],
        "runtime.wire.bytes_per_record_tail": trial.probes["bytes_per_record_tail"],
        "runtime.transport.frames_out_per_op": _share(
            flat["frames_out"], trial.flat_out_ops
        ),
        # every outbound frame carries one payload unless it is a batch.
        "runtime.transport.payloads_per_frame": _share(
            flat["frames_out"] - flat["batch_frames_out"]
            + flat["batched_payloads_out"],
            flat["frames_out"],
        ),
        "runtime.transport.send_queue_peak": flat["send_queue_peak"],
        "runtime.transport.payloads_dropped": flat["payloads_dropped"],
        "trace.overhead_share": _share(
            trial.probe_s, trial.wall_s - trial.probe_s
        ),
        # the live phases run one after another on the harness's clock;
        # nothing inside the node processes is spanned from here.
        "trace.coverage_share": 0.0,
    }
    return end_to_end, per_layer, trial.attempted, trial.failed, detail


def run_one(args: argparse.Namespace, benchmark: Dict[str, object]) -> int:
    """One run of one workload: print its metrics and the result line."""
    from sim_workloads import CheckFailed

    environment = program_environment()
    if os.environ.get("PYTHONHASHSEED") != "0":
        # start over with hashing pinned (see program_environment).
        os.execve(sys.executable, [sys.executable] + sys.argv, environment)
    # the node processes a live run boots inherit this.
    os.environ["PYTHONPATH"] = environment["PYTHONPATH"]
    traced = bool(args.trace)
    try:
        if args.workload == LIVE_WORKLOAD:
            result = run_live(args.seed, args.seconds, traced)
        else:
            result = run_sim(args.workload, args.seed, args.seconds, traced)
    except CheckFailed as failure:
        print(f"CHECK FAILED [{args.workload}]: {failure}", file=sys.stderr)
        return 1
    except HarnessBug as bug:
        print(f"HARNESS BUG [{args.workload}]: {bug}", file=sys.stderr)
        return 3
    end_to_end, per_layer, attempted, failed, detail = result
    kind = "per_layer" if traced else "end_to_end"
    declared = {m["name"]: m["unit"] for m in benchmark[kind]}
    values = per_layer if traced else end_to_end
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise HarnessBug(f"metrics not declared in BENCHMARK.json: {unknown}")
    # a layer the workload does not exercise reports 0.
    metrics = {
        name: {"value": values.get(name, 0.0), "unit": unit}
        for name, unit in declared.items()
    }
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(
        f"{args.workload} attempted = {attempted}, failed = {failed}, "
        f"failed_ops_share = {failed / attempted:.6g}"
    )
    print(DETAIL_PREFIX + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


# -- every workload, untraced and traced -----------------------------------------


def _spawn(workload: str, seed: int, seconds: float, trace: int):
    """One run in a fresh process; returns ``(result, detail)`` or None
    when it failed (its own output says why)."""
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT, env=program_environment(), stdout=subprocess.PIPE,
        text=True, timeout=900, check=False,
    )
    lines = completed.stdout.splitlines()
    if completed.returncode != 0 or not lines:
        print(f"{workload} (trace {trace}) exited with {completed.returncode}")
        return None
    detail = {}
    for line in lines[:-1]:
        if line.startswith(DETAIL_PREFIX):
            detail = json.loads(line[len(DETAIL_PREFIX):])
        else:
            print(line)
    return json.loads(lines[-1]), detail


def run_all(args: argparse.Namespace, benchmark: Dict[str, object]) -> int:
    seconds = args.seconds if args.seconds else benchmark["run_seconds"]
    report: Dict[str, object] = {
        "seed": args.seed,
        "seconds": seconds,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workloads": {},
    }
    failures: List[str] = []
    for entry in benchmark["workloads"]:
        name = entry["name"]
        untraced = _spawn(name, args.seed, seconds, 0)
        traced = _spawn(name, args.seed, seconds, 1) if untraced else None
        if untraced is None or traced is None:
            failures.append(name)
            continue
        (result, detail), (traced_result, traced_detail) = untraced, traced
        # the two runs are separate processes of one seed: every exact
        # count, and the final state, must agree.
        if name != LIVE_WORKLOAD and (
            detail["counts"], detail["fingerprint"]
        ) != (traced_detail["counts"], traced_detail["fingerprint"]):
            print(f"{name}: traced and untraced runs disagree on counts")
            failures.append(name)
            continue
        report["workloads"][name] = {
            "attempted": result["attempted"],
            "failed": result["failed"],
            "end_to_end": result["metrics"],
            "per_layer": traced_result["metrics"],
            "detail": detail,
            "spans": traced_detail.get("spans", {}),
        }
    out = args.out
    if out is None:
        WORK.mkdir(exist_ok=True)
        out = str(WORK / f"shardbench-seed{args.seed}.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"metrics written to {out}")
    if failures:
        print(f"FAILED (no metrics written for): {', '.join(failures)}")
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/shardbench/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", default=None,
                        help="run only this workload (one run, one result line)")
    parser.add_argument("--seed", type=int, default=0,
                        help="every generated input derives from it")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = the traced, per-layer run")
    parser.add_argument("--out", default=None,
                        help="without --workload: where the metrics go "
                        "(default: a scratch file under .work/)")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    if args.workload is None:
        return run_all(args, benchmark)
    names = [entry["name"] for entry in benchmark["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; known: {names}")
    if args.seconds is None:
        args.seconds = float(benchmark["run_seconds"])
    sys.path.insert(0, str(SRC))
    return run_one(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
