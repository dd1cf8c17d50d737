"""Home-node memory/directory controller.

Each node is home for a slice of physical memory.  This controller owns
that slice's full-map directory and memory module and runs the
three-state (MSI) directory protocol [7]:

* ``READ``    — serve from memory (U/S) or recall the owner (M).
* ``READX``   — invalidate every registered sharer, read memory, grant
  ownership; recall-and-invalidate the owner when modified.
* ``UPGRADE`` — invalidate the other sharers and acknowledge; degenerates
  to READX when the requester's copy was invalidated by a racing write.
* ``DIR_UPDATE`` — switch-cache bookkeeping: a switch served this read, so
  register the requester as a sharer.  If a write slipped in between the
  switch hit and this update (directory now MODIFIED), send a *corrective
  invalidation* to the requester: it purges the stale switch copies along
  the home-to-requester path and the requester's own copy.
* ``WRITEBACK`` / ``RECALL_REPLY`` — owner data returns; both are accepted
  for a transaction awaiting owner data because an eviction can race a
  recall (the ex-owner answers the recall with ``no_data`` and the in-
  flight writeback supplies the block).

Transactions to the same block are serialized through a per-block FIFO —
a request arriving while another is active simply queues, which is how
the transient states of a hardware directory are realized here.

**Switch-cache purge rule.**  Invalidations for a write go to *every*
registered sharer, including the writer itself when it is upgrading: the
writer receives a ``purge_only`` invalidation that it acknowledges without
dropping its copy.  The purpose is to walk the home-to-writer path and
purge the switch-cache copies deposited when the writer originally
fetched the block (the paper's tree-cover argument requires every
home-to-sharer path to be snooped).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional

from ..cache.states import DirState
from ..errors import ProtocolError
from ..memory.dram import MemoryModule
from ..network.message import Message, MessagePool, MsgKind
from ..sim.engine import Simulator
from .directory import Directory

#: hoisted kinds for the per-message dispatch in receive/_start: each
#: ``MsgKind.X`` lookup goes through EnumType.__getattr__ on Python 3.11
_READ = MsgKind.READ
_READX = MsgKind.READX
_UPGRADE = MsgKind.UPGRADE
_DIR_UPDATE = MsgKind.DIR_UPDATE
_INV_ACK = MsgKind.INV_ACK
_RECALL_REPLY = MsgKind.RECALL_REPLY
_WRITEBACK = MsgKind.WRITEBACK
#: the requests that open a home transaction (queued per block); a
#: tuple, since its identity-first membership test beats hashing an enum
_REQUESTS = (_READ, _READX, _UPGRADE, _DIR_UPDATE)

#: directory-access overhead for transactions that do not touch memory
DIR_CYCLES = 4


class HomeTxn:
    """One active transaction at the home (per-block serialized)."""

    __slots__ = (
        "msg",
        "block",
        "requester",
        "acks_needed",
        "mem_done",
        "awaiting_owner_data",
        "awaiting_wb",
        "owner_version",
        "reply_kind",
        "mem_wait",
        "finished",
    )

    def __init__(self, msg: Message, block: int) -> None:
        self.msg = msg
        self.block = block
        self.requester = msg.src
        self.acks_needed = 0
        self.mem_done: Optional[int] = None  # cycle memory data is ready
        self.awaiting_owner_data = False
        self.awaiting_wb = False
        self.owner_version: Optional[int] = None
        self.reply_kind: Optional[MsgKind] = None
        self.mem_wait = 0
        self.finished = False


class HomeController:
    """Directory + memory controller for one node's home memory."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        directory: Directory,
        memory: MemoryModule,
        send: Callable[[Message, Optional[int]], None],
        block_size: int,
        pool: Optional[MessagePool] = None,
    ) -> None:
        self.sim = sim
        self._tracer = sim.tracer  # installed before construction
        self.node_id = node_id
        self.directory = directory
        self.memory = memory
        self._send = send
        self.block_size = block_size
        # shared machine-wide pool (one id stream); private when the
        # controller is built standalone in unit tests
        self._pool = pool if pool is not None else MessagePool(block_size)
        self._active: Dict[int, HomeTxn] = {}
        self._pending: Dict[int, Deque[Message]] = {}
        self.trace_track = f"home{node_id}"
        # statistics
        self.reads_served = 0
        self.reads_recalled = 0
        self.writes_served = 0
        self.upgrades_served = 0
        self.dir_updates = 0
        self.corrective_invs = 0
        self.writebacks = 0

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def receive(self, msg: Message) -> None:
        kind = msg.kind
        if kind in _REQUESTS:
            self._enqueue(msg)
        elif kind is _INV_ACK:
            self._on_inv_ack(msg)
        elif kind is _RECALL_REPLY:
            self._on_recall_reply(msg)
        elif kind is _WRITEBACK:
            self._on_writeback(msg)
        else:
            entry = self.directory.peek(msg.addr)
            raise ProtocolError(
                f"home got unexpected {msg!r}",
                node=self.node_id, addr=msg.addr,
                state=entry.state if entry is not None else None,
            )

    def _block(self, addr: int) -> int:
        return (addr // self.block_size) * self.block_size

    def _enqueue(self, msg: Message) -> None:
        block = self._block(msg.addr)
        if block in self._active:
            self._pending.setdefault(block, deque()).append(msg)
        else:
            self._start(msg, block)

    def _complete(self, txn: HomeTxn) -> None:
        del self._active[txn.block]
        queue = self._pending.get(txn.block)
        if queue:
            nxt = queue.popleft()
            if not queue:
                del self._pending[txn.block]
            self._start(nxt, txn.block)

    # ------------------------------------------------------------------
    # transaction start
    # ------------------------------------------------------------------
    def _start(self, msg: Message, block: int) -> None:
        txn = HomeTxn(msg, block)
        self._active[block] = txn
        kind = msg.kind
        if kind is _READ:
            self._start_read(txn)
        elif kind is _READX:
            self._start_write(txn, upgrade=False)
        elif kind is _UPGRADE:
            self._start_write(txn, upgrade=True)
        elif kind is _DIR_UPDATE:
            self._start_dir_update(txn)
        else:  # pragma: no cover - guarded by receive()
            raise ProtocolError(
                f"cannot start {msg!r}", node=self.node_id, addr=msg.addr
            )

    def _start_read(self, txn: HomeTxn) -> None:
        entry = self.directory.entry(txn.block)
        txn.reply_kind = MsgKind.DATA_S
        tracer = self._tracer
        if tracer is not None:
            now = self.sim.now
            tracer.instant(
                self.trace_track, "read", now,
                {
                    "addr": txn.block, "requester": txn.requester,
                    "state": entry.state.name,
                    "recalled": entry.state is DirState.MODIFIED,
                },
            )
            tracer.counter(
                self.trace_track, "mem_backlog", now,
                max(0, self.memory.array.free_at() - now),
            )
        if entry.state is DirState.MODIFIED:
            self.reads_recalled += 1
            if entry.owner == txn.requester:
                # the requester's own writeback is in flight; wait for it
                txn.awaiting_wb = True
            else:
                txn.awaiting_owner_data = True
                self._send_ctl(MsgKind.RECALL, entry.owner, txn)
        else:
            start, done = self.memory.read()
            txn.mem_wait = max(0, start - self.sim.now - self.memory.bus_cycles)
            txn.mem_done = done
            self.sim.call_at(done, self._finish_read_from_memory, txn)

    def _finish_read_from_memory(self, txn: HomeTxn) -> None:
        entry = self.directory.entry(txn.block)
        self.reads_served += 1
        self.directory.add_sharer(txn.block, txn.requester)
        self._reply_data(txn, MsgKind.DATA_S, entry.version, served_by="home_mem")
        self._complete(txn)

    def _start_write(self, txn: HomeTxn, upgrade: bool) -> None:
        entry = self.directory.entry(txn.block)
        requester = txn.requester
        tracer = self._tracer
        if tracer is not None:
            tracer.instant(
                self.trace_track, "upgrade" if upgrade else "write",
                self.sim.now,
                {
                    "addr": txn.block, "requester": requester,
                    "state": entry.state.name, "invs": entry.num_sharers(),
                },
            )
        if (upgrade and entry.state is DirState.SHARED
                and entry.has_sharer(requester)):
            # true upgrade: no data needed
            txn.reply_kind = MsgKind.UPGR_ACK
        else:
            # write miss — or an upgrade whose copy a racing write destroyed
            txn.reply_kind = MsgKind.DATA_X
        if entry.state is DirState.MODIFIED:
            if entry.owner == requester:
                txn.awaiting_wb = True
            else:
                txn.awaiting_owner_data = True
                self._send_ctl(MsgKind.RECALL_X, entry.owner, txn)
            return
        # invalidate every registered sharer; the requester (if registered)
        # gets a purge-only invalidation that cleans its path's switch
        # caches.  Ascending node order: fan-out order must not depend on
        # set hash order or simulated timing would vary across builds.
        targets = entry.sorted_sharers()
        txn.acks_needed = len(targets)
        for sharer in targets:
            inv = self._pool.make(MsgKind.INV, self.node_id, sharer, txn.block)
            inv.purge_only = sharer == requester
            self._send(inv, None)
        if txn.reply_kind is MsgKind.DATA_X:
            start, done = self.memory.read()
            txn.mem_wait = max(0, start - self.sim.now - self.memory.bus_cycles)
            txn.mem_done = done
            self.sim.call_at(done, self._write_maybe_finish, txn)
        else:
            txn.mem_done = self.sim.now + DIR_CYCLES
            self.sim.call_at(txn.mem_done, self._write_maybe_finish, txn)

    def _write_maybe_finish(self, txn: HomeTxn) -> None:
        if txn.finished:
            return
        if txn.acks_needed > 0:
            return
        if txn.mem_done is None or self.sim.now < txn.mem_done:
            return
        txn.finished = True
        entry = self.directory.entry(txn.block)
        if txn.reply_kind is MsgKind.UPGR_ACK:
            self.upgrades_served += 1
            self.directory.clear_sharers(txn.block)
            self.directory.set_owner(txn.block, txn.requester)
            reply = self._pool.make(
                MsgKind.UPGR_ACK,
                src=self.node_id,
                dst=txn.requester,
                addr=txn.block,
                transaction=txn.msg.transaction,
            )
            reply.proc = txn.msg.proc
            self._send(reply, None)
        else:
            self.writes_served += 1
            version = (
                txn.owner_version if txn.owner_version is not None else entry.version
            )
            self.directory.clear_sharers(txn.block)
            self.directory.set_owner(txn.block, txn.requester, version=version)
            self._reply_data(txn, MsgKind.DATA_X, version, served_by="home_mem")
        self._complete(txn)

    def _start_dir_update(self, txn: HomeTxn) -> None:
        self.dir_updates += 1
        requester = txn.requester
        served = txn.msg.data
        entry = self.directory.entry(txn.block)
        stale = entry.state is DirState.MODIFIED or (
            served is not None and served != entry.version
        )
        tracer = self._tracer
        if tracer is not None:
            tracer.instant(
                self.trace_track, "dir_update", self.sim.now,
                {"addr": txn.block, "requester": requester, "stale": stale},
            )
            if stale:
                tracer.instant(
                    self.trace_track, "corrective_inv", self.sim.now,
                    {"addr": txn.block, "requester": requester},
                )
        if stale:
            # a write slipped between the switch hit and this update: the
            # requester received stale data — chase it with an invalidation
            # that also purges the stale switch copies along the path.
            # The version comparison catches the writeback race the dir
            # state alone misses: the intervening writer may already have
            # evicted (dir back to UNOWNED/SHARED at a newer version) by
            # the time this update arrives, and the requester's copy is
            # stale all the same.
            self.corrective_invs += 1
            inv = self._pool.make(MsgKind.INV, self.node_id, requester, txn.block)
            inv.no_ack = True
            self._send(inv, None)
        else:
            self.directory.add_sharer(txn.block, requester)
        self.sim.call(DIR_CYCLES, self._complete, txn)

    # ------------------------------------------------------------------
    # responses feeding active transactions
    # ------------------------------------------------------------------
    def _on_inv_ack(self, msg: Message) -> None:
        txn = self._active.get(self._block(msg.addr))
        if txn is None:
            entry = self.directory.peek(msg.addr)
            raise ProtocolError(
                f"stray INV_ACK {msg!r} at home",
                node=self.node_id, addr=msg.addr,
                state=entry.state if entry is not None else None,
            )
        txn.acks_needed -= 1
        if txn.acks_needed < 0:
            raise ProtocolError(
                f"too many INV_ACKs for block {txn.block:#x}",
                node=self.node_id, addr=txn.block,
                state=self.directory.entry(txn.block).state,
            )
        self._write_maybe_finish(txn)

    def _on_recall_reply(self, msg: Message) -> None:
        txn = self._active.get(self._block(msg.addr))
        if txn is None or not txn.awaiting_owner_data:
            if msg.data is None:
                return  # benign late reply; the writeback already served us
            entry = self.directory.peek(msg.addr)
            raise ProtocolError(
                f"stray RECALL_REPLY {msg!r} at home",
                node=self.node_id, addr=msg.addr,
                state=entry.state if entry is not None else None,
            )
        if msg.data is None:
            # the owner evicted before the recall arrived; its writeback
            # is already in flight on the same path and will supply data
            txn.awaiting_owner_data = False
            txn.awaiting_wb = True
            if txn.owner_version is not None:
                self._owner_data_ready(txn)
        else:
            txn.awaiting_owner_data = False
            txn.owner_version = msg.data
            self._owner_data_ready(txn)

    def _on_writeback(self, msg: Message) -> None:
        self.writebacks += 1
        tracer = self._tracer
        if tracer is not None:
            tracer.instant(
                self.trace_track, "writeback", self.sim.now,
                {"addr": msg.addr, "owner": msg.src},
            )
        block = self._block(msg.addr)
        txn = self._active.get(block)
        entry = self.directory.entry(block)
        if entry.state is DirState.MODIFIED and entry.owner == msg.src:
            self.directory.writeback(block, msg.src, msg.data)
        self.memory.write()
        if txn is not None and (txn.awaiting_wb or txn.awaiting_owner_data):
            txn.owner_version = msg.data
            if txn.awaiting_wb:
                txn.awaiting_wb = False
                self._owner_data_ready(txn)
            # if still awaiting the recall reply, _on_recall_reply will
            # notice owner_version is set and finish then

    def _owner_data_ready(self, txn: HomeTxn) -> None:
        """Owner (or writeback) data arrived for the active transaction."""
        version = txn.owner_version
        if version is None:
            raise ProtocolError(
                "owner data ready without a version",
                node=self.node_id, addr=txn.block,
                state=self.directory.entry(txn.block).state,
            )
        entry = self.directory.entry(txn.block)
        if txn.msg.kind is MsgKind.READ:
            # recall (M -> S): old owner keeps a shared copy unless it
            # answered with no_data (eviction); memory is updated
            if entry.state is DirState.MODIFIED:
                owner = entry.owner
                self.directory.writeback(txn.block, owner, version)
                self.directory.add_sharer(txn.block, owner)
            else:
                entry.version = version
            self.directory.add_sharer(txn.block, txn.requester)
            self.memory.write()
            self.reads_served += 1
            self._reply_data(txn, MsgKind.DATA_S, version, served_by="owner")
            self._complete(txn)
        else:
            # RECALL_X or owner==requester writeback for a write
            if entry.state is DirState.MODIFIED:
                self.directory.writeback(txn.block, entry.owner, version)
            else:
                entry.version = version
            txn.mem_done = self.sim.now
            self._write_maybe_finish(txn)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _reply_data(
        self, txn: HomeTxn, kind: MsgKind, version: int, served_by: str
    ) -> None:
        reply = self._pool.make(
            kind,
            src=self.node_id,
            dst=txn.requester,
            addr=txn.block,
            data=version,
            transaction=txn.msg.transaction,
        )
        reply.proc = txn.msg.proc
        reply.served_by = served_by
        reply.mem_wait = txn.mem_wait
        self._send(reply, None)

    def _send_ctl(self, kind: MsgKind, dst: int, txn: HomeTxn) -> None:
        msg = self._pool.make(kind, src=self.node_id, dst=dst, addr=txn.block)
        self._send(msg, None)
