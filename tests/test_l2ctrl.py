"""Unit tests of the node-side coherence path, message by message.

Each test drives the code the machine runs: a real :class:`Node` whose
network interface records what it sends.  Replies reach a stack's
controller, and invalidations and recalls reach the node, through
``Node._dispatch``; misses leave through the cluster bus (which owns the
network-cache probe) or straight from the stack's controller.
"""

import pytest

from repro.cache.states import LineState
from repro.errors import ProtocolError
from repro.network.message import MessagePool, MsgKind
from repro.node.node import Node
from repro.sim.engine import Simulator

from conftest import tiny_config

NODE = 1
HOME = 0
BLOCK = 0x40


class Harness:
    def __init__(self, netcache=False, home=HOME, **config):
        if netcache:
            config.setdefault("netcache_size", 4096)
        self.config = tiny_config(num_nodes=2, l1_size=512, l2_size=2048,
                                  **config)
        self.sim = Simulator()
        self.node = Node(
            self.sim, NODE, self.config, fabric=None,
            home_of=lambda addr: home, barriers=None, locks=None,
            stats=None, sync_addr=None, on_done=None,
        )
        self.sent = []
        self.sent_at = []

        def send(msg, at=None):
            self.sent.append(msg)
            self.sent_at.append(self.sim.now if at is None else at)

        self.node.ni.send = send
        self.stack = self.node.stacks[0]
        self.hierarchy = self.stack.hierarchy
        self.ctrl = self.stack.netctrl
        self.netcache = self.node.netcache
        self.pool = MessagePool(64)
        self.completed = []

    def deliver(self, kind, addr=BLOCK, data=None, **fields):
        msg = self.pool.make(kind, HOME, NODE, addr, data=data)
        for name, value in fields.items():
            setattr(msg, name, value)
        self.node._dispatch(msg)
        return msg

    def issue_read(self):
        return self.ctrl.issue_read(BLOCK, self.completed.append)

    def issue_write(self):
        return self.ctrl.issue_write(BLOCK, self.completed.append)

    def bus_read(self, stack=None, addr=BLOCK):
        """A node read miss through the cluster bus; runs to quiescence."""
        stack = stack if stack is not None else self.stack
        stack.issue_read(addr, self.completed.append)
        self.sim.run()


class TestReads:
    def test_read_sends_request_and_fills_on_reply(self):
        h = Harness()
        txn = h.issue_read()
        assert h.sent[0].kind is MsgKind.READ
        h.deliver(MsgKind.DATA_S, data=4, transaction=txn)
        assert h.completed == [txn]
        assert txn.data == 4
        line = h.hierarchy.l2.probe(BLOCK)
        assert line.state is LineState.SHARED and line.data == 4
        # demand fill reaches L1 too
        assert h.hierarchy.l1.probe(BLOCK) is not None

    def test_mshr_conflict_raises(self):
        h = Harness()
        h.issue_read()
        with pytest.raises(ProtocolError):
            h.issue_read()

    def test_unmatched_reply_raises(self):
        h = Harness()
        with pytest.raises(ProtocolError):
            h.deliver(MsgKind.DATA_S, data=1)

    def test_served_by_classification(self):
        h = Harness()
        txn = h.issue_read()
        h.deliver(MsgKind.DATA_S, data=0,
                  served_by="switch", served_switch=(2, 0))
        assert txn.served_by == "switch"


class TestLateInvalidation:
    def test_inv_during_pending_read_marks_use_once(self):
        h = Harness()
        txn = h.issue_read()
        h.deliver(MsgKind.INV)
        assert txn.pending_inval
        # the ack went back immediately
        assert h.sent[-1].kind is MsgKind.INV_ACK
        h.deliver(MsgKind.DATA_S, data=3)
        assert h.completed  # processor got its data...
        assert h.hierarchy.l2.probe(BLOCK) is None  # ...but nothing cached
        assert h.ctrl.late_invals == 1

    def test_no_ack_inv_sends_nothing(self):
        h = Harness()
        h.hierarchy.fill(BLOCK, LineState.SHARED, 0)
        h.deliver(MsgKind.INV, no_ack=True)
        assert h.sent == []
        assert h.hierarchy.l2.probe(BLOCK) is None

    def test_purge_only_inv_keeps_l2_copy(self):
        h = Harness()
        h.hierarchy.fill(BLOCK, LineState.SHARED, 0)
        h.deliver(MsgKind.INV, purge_only=True)
        assert h.hierarchy.l2.probe(BLOCK) is not None
        assert h.sent[-1].kind is MsgKind.INV_ACK

    def test_purge_only_inv_purges_netcache(self):
        h = Harness(netcache=True)
        h.netcache.fill(BLOCK, 0)
        h.hierarchy.fill(BLOCK, LineState.SHARED, 0)
        h.deliver(MsgKind.INV, purge_only=True)
        assert h.netcache.array.probe(BLOCK) is None

    def test_inv_purges_every_stack_and_counts_per_stack(self):
        h = Harness(procs_per_node=2)
        for stack in h.node.stacks:
            stack.hierarchy.fill(BLOCK, LineState.SHARED, 0)
        h.deliver(MsgKind.INV)
        for stack in h.node.stacks:
            assert stack.hierarchy.l2.probe(BLOCK) is None
            assert stack.netctrl.invs_received == 1
        assert h.node.invs_received == 1
        assert [m.kind for m in h.sent] == [MsgKind.INV_ACK]


class TestWritesAndUpgrades:
    def test_write_miss_issues_readx(self):
        h = Harness()
        h.issue_write()
        assert h.sent[0].kind is MsgKind.READX

    def test_shared_copy_issues_upgrade(self):
        h = Harness()
        h.hierarchy.fill(BLOCK, LineState.SHARED, 2)
        h.issue_write()
        assert h.sent[0].kind is MsgKind.UPGRADE

    def test_upgr_ack_promotes_line(self):
        h = Harness()
        h.hierarchy.fill(BLOCK, LineState.SHARED, 2)
        h.issue_write()
        h.deliver(MsgKind.UPGR_ACK)
        assert h.hierarchy.state_of(BLOCK) is LineState.MODIFIED
        assert h.completed

    def test_upgr_ack_without_copy_raises(self):
        h = Harness()
        h.hierarchy.fill(BLOCK, LineState.SHARED, 2)
        h.issue_write()
        h.hierarchy.invalidate(BLOCK)
        with pytest.raises(ProtocolError):
            h.deliver(MsgKind.UPGR_ACK)

    def test_data_x_fills_modified(self):
        h = Harness()
        h.issue_write()
        h.deliver(MsgKind.DATA_X, data=6)
        line = h.hierarchy.l2.probe(BLOCK)
        assert line.state is LineState.MODIFIED and line.data == 6


class TestRecalls:
    def test_recall_downgrades_and_returns_data(self):
        h = Harness()
        h.hierarchy.fill(BLOCK, LineState.MODIFIED, 9)
        h.deliver(MsgKind.RECALL)
        reply = h.sent[-1]
        assert reply.kind is MsgKind.RECALL_REPLY and reply.data == 9
        assert h.hierarchy.state_of(BLOCK) is LineState.SHARED

    def test_recall_x_invalidates(self):
        h = Harness()
        h.hierarchy.fill(BLOCK, LineState.MODIFIED, 9)
        h.deliver(MsgKind.RECALL_X)
        assert h.hierarchy.state_of(BLOCK) is LineState.INVALID
        assert h.sent[-1].data == 9

    def test_recall_after_eviction_answers_no_data(self):
        h = Harness()
        h.deliver(MsgKind.RECALL)
        reply = h.sent[-1]
        assert reply.kind is MsgKind.RECALL_REPLY
        assert reply.data is None

    def test_recall_x_purges_netcache_and_every_stack(self):
        # write ownership leaves the node: the owned copy answers, and
        # every other local copy goes with it
        h = Harness(netcache=True, procs_per_node=2)
        owner, sibling = h.node.stacks
        owner.hierarchy.fill(BLOCK, LineState.MODIFIED, 9)
        sibling.hierarchy.fill(BLOCK, LineState.SHARED, 8)
        h.netcache.fill(BLOCK, 8)
        h.deliver(MsgKind.RECALL_X)
        assert [m.kind for m in h.sent] == [MsgKind.RECALL_REPLY]
        assert h.sent[0].data == 9
        for stack in h.node.stacks:
            assert stack.hierarchy.state_of(BLOCK) is LineState.INVALID
        assert h.netcache.array.probe(BLOCK) is None

    def test_recall_x_after_eviction_still_purges_netcache(self):
        h = Harness(netcache=True)
        h.netcache.fill(BLOCK, 8)
        h.deliver(MsgKind.RECALL_X)
        assert h.sent[-1].data is None
        assert h.netcache.array.probe(BLOCK) is None


class TestVictimSpill:
    def test_dirty_victim_spills_writeback(self):
        # direct-mapped tiny L2 to force conflict
        h = Harness(l2_assoc=1)
        h.hierarchy.fill(0, LineState.MODIFIED, 5)
        txn = h.ctrl.issue_read(2048, h.completed.append)  # same set
        h.deliver(MsgKind.DATA_S, addr=2048, data=0, transaction=txn)
        wbs = [m for m in h.sent if m.kind is MsgKind.WRITEBACK]
        assert len(wbs) == 1
        assert wbs[0].addr == 0 and wbs[0].data == 5
        assert h.ctrl.writebacks_sent == 1

    def test_bus_spill_charged_to_filling_stack(self):
        # stack 1's sibling-served fill displaces its own dirty victim:
        # the writeback is stack 1's, not stack 0's
        h = Harness(procs_per_node=2, l2_assoc=1)
        first, second = h.node.stacks
        second.hierarchy.fill(0, LineState.MODIFIED, 5)
        first.hierarchy.fill(2048, LineState.SHARED, 1)  # same set
        h.bus_read(stack=second, addr=2048)
        assert h.completed[0].served_by == "cluster"
        wbs = [m for m in h.sent if m.kind is MsgKind.WRITEBACK]
        assert [(m.addr, m.data) for m in wbs] == [(0, 5)]
        assert second.netctrl.writebacks_sent == 1
        assert first.netctrl.writebacks_sent == 0


class TestNetcachePath:
    def test_nc_hit_skips_network(self):
        h = Harness(netcache=True)
        h.netcache.fill(BLOCK, 3)
        h.bus_read()
        assert h.sent == []  # no READ message left the node
        (txn,) = h.completed
        assert txn.served_by == "netcache"
        assert h.hierarchy.l2.probe(BLOCK).data == 3

    def test_nc_miss_adds_probe_latency(self):
        h = Harness(netcache=True)
        h.bus_read()
        # the READ departs only after the bus grant and the probe
        assert [m.kind for m in h.sent] == [MsgKind.READ]
        assert h.sent_at == [
            h.config.local_bus_cycles + h.config.netcache_access_cycles
        ]
        assert h.ctrl.outstanding == 1

    def test_remote_fill_populates_netcache(self):
        h = Harness(netcache=True)
        h.issue_read()
        h.deliver(MsgKind.DATA_S, data=2)
        assert h.netcache.array.probe(BLOCK).data == 2


class TestRouting:
    @pytest.mark.parametrize(
        "kind", [MsgKind.INV, MsgKind.RECALL, MsgKind.RECALL_X]
    )
    def test_controller_rejects_node_addressed_kinds(self, kind):
        # invalidations and recalls address the node: only Node._dispatch
        # routes them, so a stack's controller never handles one itself
        h = Harness()
        h.hierarchy.fill(BLOCK, LineState.MODIFIED, 9)
        with pytest.raises(ProtocolError):
            h.ctrl.receive(h.pool.make(kind, HOME, NODE, BLOCK))
        assert h.hierarchy.state_of(BLOCK) is LineState.MODIFIED
        assert h.sent == []
