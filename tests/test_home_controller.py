"""Direct unit tests of the home controller state machine.

A stub transport captures outgoing messages so each protocol race can be
driven message by message: recalls crossing evictions, writebacks from
the requester itself, upgrade escalation, and directory updates against
every directory state.
"""

import pytest

from repro.cache.states import DirState
from repro.coherence.directory import Directory
from repro.coherence.home import HomeController
from repro.errors import ProtocolError
from repro.memory.dram import MemoryModule
from repro.network.message import MessagePool, MsgKind
from repro.sim.engine import Simulator

HOME = 0
BLOCK = 0x40


class Harness:
    def __init__(self):
        self.sim = Simulator()
        self.directory = Directory(HOME, 64)
        self.memory = MemoryModule(self.sim, HOME)
        self.sent = []
        self.pool = MessagePool(64)
        self.home = HomeController(
            self.sim, HOME, self.directory, self.memory,
            send=lambda msg, at: self.sent.append(msg),
            block_size=64,
        )

    def deliver(self, kind, src, **kw):
        msg = self.pool.make(kind, src, HOME, BLOCK, **kw)
        self.home.receive(msg)
        return msg

    def run(self):
        self.sim.run()

    def sent_kinds(self):
        return [m.kind for m in self.sent]

    def last(self, kind):
        matches = [m for m in self.sent if m.kind is kind]
        assert matches, f"no {kind} sent; sent={self.sent_kinds()}"
        return matches[-1]


class TestReads:
    def test_read_unowned_serves_memory(self):
        h = Harness()
        h.deliver(MsgKind.READ, src=2)
        h.run()
        reply = h.last(MsgKind.DATA_S)
        assert reply.dst == 2
        assert reply.data == 0
        assert h.directory.entry(BLOCK).sharers == {2}

    def test_read_shared_adds_sharer(self):
        h = Harness()
        h.directory.add_sharer(BLOCK, 1)
        h.directory.entry(BLOCK).version = 5
        h.deliver(MsgKind.READ, src=2)
        h.run()
        assert h.last(MsgKind.DATA_S).data == 5
        assert h.directory.entry(BLOCK).sharers == {1, 2}

    def test_read_modified_recalls_owner(self):
        h = Harness()
        h.directory.set_owner(BLOCK, 3)
        h.deliver(MsgKind.READ, src=2)
        h.run()
        recall = h.last(MsgKind.RECALL)
        assert recall.dst == 3
        # owner returns the dirty data
        h.deliver(MsgKind.RECALL_REPLY, src=3, data=7)
        h.run()
        reply = h.last(MsgKind.DATA_S)
        assert reply.data == 7
        assert reply.served_by == "owner"
        entry = h.directory.entry(BLOCK)
        assert entry.state is DirState.SHARED
        assert entry.sharers == {2, 3}
        assert entry.version == 7

    def test_read_with_owner_eviction_race(self):
        h = Harness()
        h.directory.set_owner(BLOCK, 3)
        h.deliver(MsgKind.READ, src=2)
        h.run()
        # the owner's writeback was already in flight and arrives first
        h.deliver(MsgKind.WRITEBACK, src=3, data=9)
        h.run()
        # the recall then finds nothing at the ex-owner
        h.deliver(MsgKind.RECALL_REPLY, src=3)  # no data
        h.run()
        reply = h.last(MsgKind.DATA_S)
        assert reply.data == 9
        entry = h.directory.entry(BLOCK)
        assert entry.state is DirState.SHARED
        assert 2 in entry.sharers

    def test_read_no_data_reply_then_writeback(self):
        h = Harness()
        h.directory.set_owner(BLOCK, 3)
        h.deliver(MsgKind.READ, src=2)
        h.run()
        h.deliver(MsgKind.RECALL_REPLY, src=3)  # no data
        h.run()
        # nothing served yet: data still in flight
        assert MsgKind.DATA_S not in h.sent_kinds()
        h.deliver(MsgKind.WRITEBACK, src=3, data=4)
        h.run()
        assert h.last(MsgKind.DATA_S).data == 4

    def test_read_from_own_writeback_race(self):
        # the owner reads its own block whose writeback is in flight
        h = Harness()
        h.directory.set_owner(BLOCK, 2)
        h.deliver(MsgKind.READ, src=2)
        h.run()
        assert MsgKind.RECALL not in h.sent_kinds()
        h.deliver(MsgKind.WRITEBACK, src=2, data=3)
        h.run()
        assert h.last(MsgKind.DATA_S).data == 3


class TestWrites:
    def test_readx_unowned(self):
        h = Harness()
        h.deliver(MsgKind.READX, src=2)
        h.run()
        reply = h.last(MsgKind.DATA_X)
        assert reply.dst == 2
        entry = h.directory.entry(BLOCK)
        assert entry.state is DirState.MODIFIED and entry.owner == 2

    def test_readx_invalidates_all_sharers(self):
        h = Harness()
        for s in (1, 3):
            h.directory.add_sharer(BLOCK, s)
        h.deliver(MsgKind.READX, src=2)
        h.run()
        invs = [m for m in h.sent if m.kind is MsgKind.INV]
        assert {m.dst for m in invs} == {1, 3}
        assert all(not m.purge_only for m in invs)
        # data held until both acks arrive
        assert MsgKind.DATA_X not in h.sent_kinds()
        h.deliver(MsgKind.INV_ACK, src=1)
        h.run()
        assert MsgKind.DATA_X not in h.sent_kinds()
        h.deliver(MsgKind.INV_ACK, src=3)
        h.run()
        assert MsgKind.DATA_X in h.sent_kinds()

    def test_readx_requester_as_stale_sharer_gets_purge_only(self):
        h = Harness()
        h.directory.add_sharer(BLOCK, 2)  # silently evicted earlier
        h.deliver(MsgKind.READX, src=2)
        h.run()
        inv = h.last(MsgKind.INV)
        assert inv.dst == 2
        assert inv.purge_only

    def test_readx_modified_recalls_exclusively(self):
        h = Harness()
        h.directory.set_owner(BLOCK, 3)
        h.deliver(MsgKind.READX, src=2)
        h.run()
        assert h.last(MsgKind.RECALL_X).dst == 3
        h.deliver(MsgKind.RECALL_REPLY, src=3, data=6)
        h.run()
        reply = h.last(MsgKind.DATA_X)
        assert reply.data == 6
        entry = h.directory.entry(BLOCK)
        assert entry.owner == 2

    def test_upgrade_happy_path(self):
        h = Harness()
        h.directory.add_sharer(BLOCK, 2)
        h.directory.add_sharer(BLOCK, 3)
        h.deliver(MsgKind.UPGRADE, src=2)
        h.run()
        invs = [m for m in h.sent if m.kind is MsgKind.INV]
        by_dst = {m.dst: m.purge_only for m in invs}
        assert by_dst == {2: True, 3: False}
        h.deliver(MsgKind.INV_ACK, src=2)
        h.deliver(MsgKind.INV_ACK, src=3)
        h.run()
        assert MsgKind.UPGR_ACK in h.sent_kinds()
        assert h.directory.entry(BLOCK).owner == 2

    def test_upgrade_escalates_when_copy_lost(self):
        h = Harness()
        h.directory.add_sharer(BLOCK, 3)  # requester 2 is NOT a sharer
        h.deliver(MsgKind.UPGRADE, src=2)
        h.run()
        h.deliver(MsgKind.INV_ACK, src=3)
        h.run()
        assert MsgKind.UPGR_ACK not in h.sent_kinds()
        assert MsgKind.DATA_X in h.sent_kinds()

    def test_upgrade_against_modified_block(self):
        h = Harness()
        h.directory.set_owner(BLOCK, 3)
        h.deliver(MsgKind.UPGRADE, src=2)
        h.run()
        assert MsgKind.RECALL_X in h.sent_kinds()
        h.deliver(MsgKind.RECALL_REPLY, src=3, data=8)
        h.run()
        assert h.last(MsgKind.DATA_X).data == 8

    def test_write_from_own_writeback_race(self):
        h = Harness()
        h.directory.set_owner(BLOCK, 2)
        h.deliver(MsgKind.READX, src=2)
        h.run()
        h.deliver(MsgKind.WRITEBACK, src=2, data=5)
        h.run()
        assert h.last(MsgKind.DATA_X).data == 5


class TestDirUpdate:
    def test_registers_sharer_when_shared(self):
        h = Harness()
        h.directory.add_sharer(BLOCK, 1)
        h.deliver(MsgKind.DIR_UPDATE, src=2)
        h.run()
        assert h.directory.entry(BLOCK).sharers == {1, 2}
        assert h.home.dir_updates == 1
        assert h.home.corrective_invs == 0

    def test_corrective_inv_when_modified(self):
        h = Harness()
        h.directory.set_owner(BLOCK, 3)
        h.deliver(MsgKind.DIR_UPDATE, src=2)
        h.run()
        inv = h.last(MsgKind.INV)
        assert inv.dst == 2
        assert inv.no_ack
        assert h.home.corrective_invs == 1
        # the requester is NOT registered (its copy is being chased)
        assert 2 not in h.directory.entry(BLOCK).sharers

    def test_queued_behind_pending_write(self):
        h = Harness()
        h.directory.add_sharer(BLOCK, 1)
        h.deliver(MsgKind.READX, src=3)   # pending: waits for ack from 1
        h.deliver(MsgKind.DIR_UPDATE, src=2)
        h.run()
        # dir update not yet processed
        assert h.home.corrective_invs == 0
        h.deliver(MsgKind.INV_ACK, src=1)
        h.run()
        # write completed (state M), then the update found M -> corrective
        assert h.home.corrective_invs == 1


class TestErrors:
    def test_stray_inv_ack_raises(self):
        h = Harness()
        with pytest.raises(ProtocolError):
            h.deliver(MsgKind.INV_ACK, src=1)

    def test_stray_recall_reply_with_data_raises(self):
        h = Harness()
        with pytest.raises(ProtocolError):
            h.deliver(MsgKind.RECALL_REPLY, src=1, data=1)

    def test_late_no_data_recall_reply_tolerated(self):
        h = Harness()
        h.deliver(MsgKind.RECALL_REPLY, src=1)  # no data

    def test_unexpected_kind_raises(self):
        h = Harness()
        with pytest.raises(ProtocolError):
            h.deliver(MsgKind.DATA_S, src=1, data=0)

    def test_per_block_serialization(self):
        h = Harness()
        h.directory.set_owner(BLOCK, 3)
        h.deliver(MsgKind.READ, src=1)
        h.deliver(MsgKind.READ, src=2)
        h.run()
        # only one recall outstanding; the second read is queued
        assert h.sent_kinds().count(MsgKind.RECALL) == 1
        h.deliver(MsgKind.RECALL_REPLY, src=3, data=1)
        h.run()
        # both reads eventually served
        replies = [m for m in h.sent if m.kind is MsgKind.DATA_S]
        assert {m.dst for m in replies} == {1, 2}
