"""``python -m repro.consistency``: check a recorded history's models.

Point it at either a run directory (``--history DIR`` with
``events-*.jsonl`` / ``records-*.jsonl`` files, as written by the
runtime or ``repro.runtime.demo``) or a portable history JSON file
(``--file``, the :meth:`repro.consistency.model.History.to_json` shape),
and it reports, per consistency model, whether the history satisfies it
— with the minimal witness when it does not.

Exit codes follow the ``python -m repro.chaos`` convention:

* ``0`` — every requested model is satisfied;
* ``1`` — at least one model is violated (or a prefix search came back
  indeterminate — treated conservatively as not-passing), or the node
  logs of a ``--history`` directory hold differing copies of a record;
* ``2`` — unreadable input, no records, unknown model, or a checker fault.

A directory's node logs are merged by txid
(:class:`~repro.shard.history.RecordedRun`) and the models are checked
on their union; copies that differ between logs are a typed failure of
their own, ``copies``, since the union keeps only one of them.

``--format json`` emits one object with a per-model verdict map and a
``violations`` *count* (matching the campaign report shape), plus a
``failures`` list of the typed failures outside the models when there
is one; ``--format text`` prints one line per model plus the witness
edges.
"""

from __future__ import annotations

import argparse
import json
from typing import Dict, List, Optional

from .checkers import MODEL_ORDER, Verdict, canonical_model, check
from .model import History


def _parse_models(spec: str) -> List[str]:
    models = []
    for name in spec.split(","):
        name = name.strip()
        if not name:
            continue
        models.append(canonical_model(name))
    return models or list(MODEL_ORDER)


def _print_text(
    history: History,
    verdicts: List[Verdict],
    failures: List[Dict[str, object]],
) -> None:
    meta = history.meta
    print(
        f"history: {len(history)} transaction(s), "
        f"{len(history.sessions())} session(s)"
        + (
            f", {meta['dangling_refs']} dangling visibility ref(s)"
            if meta.get("dangling_refs") else ""
        )
    )
    for verdict in verdicts:
        print(f"{verdict.model}: {verdict.status}")
        if verdict.witness is not None:
            if verdict.witness.description:
                print(f"  {verdict.witness.description}")
            for src, dst, reason in verdict.witness.edges:
                print(f"  - {reason}")
    for failure in failures:
        print(f"{failure['check']}: {failure['description']}")
    failing = sum(1 for v in verdicts if not v.ok)
    problems = [f"{failing} model(s) not satisfied"] if failing else []
    problems += [f"{failure['check']} failed" for failure in failures]
    print("; ".join(problems) or "ok")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.consistency",
        description=(
            "black-box transactional consistency checking over a "
            "recorded history"
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--history", default=None,
        help="directory of events-*.jsonl / records-*.jsonl files",
    )
    source.add_argument(
        "--file", default=None,
        help="portable history JSON file (History.to_json shape)",
    )
    parser.add_argument(
        "--models", default=",".join(MODEL_ORDER),
        help="comma-separated models to check "
             f"(default {','.join(MODEL_ORDER)}; aliases rc,ra,cc,pc)",
    )
    parser.add_argument(
        "--no-session-split", action="store_true",
        help="keep one session per node across crashes (stricter: a "
             "volatile-state loss then reads as a session violation)",
    )
    parser.add_argument("--budget", type=int, default=None,
                        help="prefix-search state budget")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    args = parser.parse_args(argv)

    try:
        models = _parse_models(args.models)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2

    failures: List[Dict[str, object]] = []
    if args.history is not None:
        from ..runtime.history import load_run
        from .adapters import history_from_trace

        try:
            run = load_run(args.history, None)
            history = history_from_trace(
                run.records, run.events,
                split_sessions_at_crash=not args.no_session_split,
            )
        except (OSError, ValueError) as exc:
            print(f"error: cannot load history from {args.history}: {exc}")
            return 2
        source_name = args.history
        if run.disagreeing:
            failures.append({
                "check": "copies",
                "description": (
                    "node logs hold differing copies of txid(s) "
                    f"{list(run.disagreeing)}"
                ),
                "txids": list(run.disagreeing),
            })
    else:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                history = History.from_json(handle.read())
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot load history from {args.file}: {exc}")
            return 2
        source_name = args.file
    if len(history) == 0:
        print(f"error: no transactions found in {source_name}")
        return 2

    verdicts = []
    for model in models:
        kwargs = {}
        if model == "prefix" and args.budget is not None:
            kwargs["budget"] = args.budget
        try:
            verdicts.append(check(history, model, **kwargs))
        except Exception as exc:  # a checker fault is not a verdict
            print(f"error: {model} check failed: {type(exc).__name__}: {exc}")
            return 2

    failing = sum(1 for v in verdicts if not v.ok) + len(failures)
    if args.format == "json":
        report: Dict[str, object] = {
            "source": source_name,
            "transactions": len(history),
            "sessions": sorted(history.sessions()),
            "meta": dict(sorted(history.meta.items())),
            "models": {v.model: v.as_dict() for v in verdicts},
            "violations": failing,
            "ok": failing == 0,
        }
        if failures:
            report["failures"] = failures
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _print_text(history, verdicts, failures)
    return 0 if failing == 0 else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
