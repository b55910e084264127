"""The supervisor's crash window brackets everything the node does."""

import asyncio
from types import SimpleNamespace

from repro.chaos.oracles import oracle_trace
from repro.runtime.history import HistoryWriter, events_path, merged_events
from repro.runtime.supervisor import ClusterSupervisor, make_spec


class KilledProcess:
    returncode = None

    def kill(self):
        self.returncode = -9


def test_a_respawned_node_gossiping_before_its_ready_line_is_not_crashed(
    tmp_path,
):
    """The new incarnation may send and log gossip before ``spawn`` has
    read its readiness line; the ``recover`` event must still sort before
    the node's first event, so the merged trace passes the trace oracle."""
    history = str(tmp_path)
    supervisor = ClusterSupervisor(make_spec(n_nodes=3, history_dir=history))
    supervisor._procs[2] = KilledProcess()
    supervisor.kill(2)

    async def spawn(node_id):
        node = HistoryWriter(events_path(history, node_id))
        node.record(
            supervisor.clock.now, "gossip_delta", node_id,
            peer=0, pushed=1, wanted=0,
        )
        node.close()
        await asyncio.sleep(0.05)  # the readiness line comes later

    supervisor.spawn = spawn
    asyncio.run(supervisor.respawn(2))
    supervisor.history.close()
    events = merged_events(
        [events_path(history, "supervisor"), events_path(history, 2)]
    )
    assert [e.kind for e in events] == ["crash", "recover", "gossip_delta"]
    assert oracle_trace(SimpleNamespace(events=events)) == []
