"""R3's adapter allowlist: wall-clock confined to the clock adapter."""

import ast
import textwrap
from pathlib import Path

import repro
from repro.lint import all_rules, lint_source
from repro.lint.rules.determinism import ADAPTER_ALLOWLIST

WALL_CLOCK_SOURCE = textwrap.dedent(
    """
    import time

    def wall_epoch():
        return time.time()
    """
)


def r3_findings(path):
    result = lint_source(path, WALL_CLOCK_SOURCE, all_rules(["R3"]))
    return [f for f in result.findings if f.rule == "R3"]


def test_the_clock_adapter_is_allowlisted():
    assert "repro/runtime/clock.py" in ADAPTER_ALLOWLIST
    assert r3_findings("src/repro/runtime/clock.py") == []
    # path comparison is suffix-based: absolute checkouts qualify too.
    assert r3_findings("/some/checkout/src/repro/runtime/clock.py") == []


def test_everything_else_is_still_flagged():
    assert r3_findings("src/repro/runtime/transport.py")
    assert r3_findings("src/repro/gossip/service.py")
    assert r3_findings("src/repro/runtime/clock_evil.py")


def test_allowlist_is_narrow():
    """The escape hatch stays a single module wide: growing it is a
    deliberate, reviewed act, not a drive-by."""
    assert ADAPTER_ALLOWLIST == ("repro/runtime/clock.py",)


def test_no_r3_suppression_remains_in_the_tree():
    """The allowlisted adapter is the *only* way to read a clock: no
    module under ``src/repro`` carries a written ``ignore[R3]`` (the
    last one went with the perf package's profiling timer)."""
    marker = "ignore[" + "R3]"
    root = Path(repro.__file__).parent
    offenders = [
        str(path.relative_to(root))
        for path in sorted(root.rglob("*.py"))
        if marker in path.read_text()
    ]
    assert offenders == []


def test_retired_gossip_seams_and_options_stay_retired():
    """The causal gate reads its node's delivered mapping; the callback
    seams, the per-item delivery path and the options nothing set were
    deleted, not wrapped (the CI grep step holds the same line)."""
    retired = (
        "is_delivered", "on_deliver=", "register_transport",
        "timestamp_of =", "bucket_width=", "repair_cooldown",
    )
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        offenders += [
            (str(path.relative_to(root)), name)
            for name in retired if name in text
        ]
        offenders += [
            (str(path.relative_to(root)), "CausalBuffer(lambda)")
            for call in ast.walk(ast.parse(text))
            if isinstance(call, ast.Call)
            and getattr(call.func, "id", None) == "CausalBuffer"
            and any(isinstance(n, ast.Lambda) for n in ast.walk(call))
        ]
    assert offenders == []


def test_the_app_registry_is_the_one_table_and_unset_options_stay_gone():
    """``repro.apps.registry`` is the only declaration of an application:
    the workload catalog module, the hand-registered codec tables and
    the options nothing set were deleted, not wrapped (the CI grep step
    holds the same line)."""
    retired = (
        "register_transaction", "register_update",
        "CATEGORY_OPS", "CATEGORY_PARAMS", "KEY_PREFIX",
        "flush_interval", "ready_timeout", "max_probes", "max_faults",
        "max_rounds",
    )
    root = Path(repro.__file__).parent
    assert not (root / "workloads" / "catalog.py").exists()
    offenders = [
        (str(path.relative_to(root)), name)
        for path in sorted(root.rglob("*.py"))
        for name in retired if name in path.read_text()
    ]
    assert offenders == []
    assert "apps.airline" not in (root / "runtime" / "wire.py").read_text()


def _called_name(call):
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def test_one_gossip_service_builds_the_dissemination_machinery():
    """Partial replication runs on the one ``GossipService``, which also
    runs the run-set exchange itself: the partial store adapter, its
    stats, the flat store, the documentation-only store class and the
    separate exchange engine were deleted, not wrapped, and the peer
    scheduler and causal buffer are each constructed in exactly one
    place (the CI grep step holds the same line)."""
    retired = (
        "_PartialStore", "_FlatStore", "GossipStore", "PartialStats",
        "ExchangeEngine",
    )
    built = ("PeerScheduler", "CausalBuffer")
    root = Path(repro.__file__).parent
    offenders = []
    sites = {name: [] for name in built}
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        where = str(path.relative_to(root))
        offenders += [(where, name) for name in retired if name in text]
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and _called_name(node) in sites:
                sites[_called_name(node)].append(where)
            if (
                isinstance(node, ast.ImportFrom)
                and (node.module or "").endswith("cluster")
                and any(a.name == "QUIESCE_ROUNDS" for a in node.names)
            ):
                offenders.append((where, "QUIESCE_ROUNDS from cluster"))
    assert offenders == []
    assert sites == {name: ["gossip/service.py"] for name in built}


def test_one_node_class_serves_both_topologies():
    """Partial replication runs on ``NodeHost``/``ShardNode`` with one
    replica per held group: the partial node class, the keyed record
    wrapper and the payload peek behind receipt-time clock observation
    were deleted, not wrapped, and ``ShardNode`` is built in exactly one
    place (the CI grep step holds the same line)."""
    retired = ("PartialNode", "KeyedRecord", "carried_records")
    root = Path(repro.__file__).parent
    offenders = []
    sites = []
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        where = str(path.relative_to(root))
        offenders += [(where, name) for name in retired if name in text]
        sites += [
            where for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Call) and _called_name(node) == "ShardNode"
        ]
    assert offenders == []
    assert sites == ["shard/host.py"]
