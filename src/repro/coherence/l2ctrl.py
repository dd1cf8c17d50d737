"""Node-side coherence controller (L2 controller + MSHRs).

Sits between a processor's cache hierarchy and the system: it turns node
misses (what the cluster bus could not serve) into directory
transactions, fills the replies, and spills dirty victims as writebacks.
One MSHR per block; the processor model guarantees at most one
outstanding read plus one outstanding write drain, and never both to the
same block (reads that match a pending write-buffer entry are forwarded
from the buffer instead).  Invalidations and recalls address the node,
not a processor: :class:`~repro.node.node.Node` routes and handles them,
so :meth:`NodeController.receive` rejects them.

The *late invalidation* race is handled DASH-style: an INV that arrives
while the block's reply is still in flight marks the MSHR (through
:meth:`NodeController.mark_pending_inval`); the reply's data is then
delivered to the processor once but not installed in any cache.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..cache.hierarchy import CacheHierarchy
from ..cache.states import CODE_SHARED, LineState
from ..errors import ProtocolError
from ..memory.netcache import NetworkCache
from ..memory.nic import NetworkInterface
from ..sim.engine import Simulator
from .messages import Transaction


# imported lazily by name to avoid a hard import cycle in type checkers
from ..network.message import Message, MessagePool, MsgKind

#: hoisted kinds for the per-message dispatch in receive: each
#: ``MsgKind.X`` lookup goes through EnumType.__getattr__ on Python 3.11
_DATA_S = MsgKind.DATA_S
_DATA_X = MsgKind.DATA_X
_UPGR_ACK = MsgKind.UPGR_ACK


class NodeController:
    """Coherence controller for one node's processor side."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        hierarchy: CacheHierarchy,
        ni: NetworkInterface,
        home_of: Callable[[int], int],
        block_size: int,
        netcache: Optional[NetworkCache] = None,
        proc_id: Optional[int] = None,
        pool: Optional[MessagePool] = None,
    ) -> None:
        self.sim = sim
        self._tracer = sim.tracer  # installed before construction
        self.node_id = node_id
        self.hierarchy = hierarchy
        self.ni = ni
        self.home_of = home_of
        self.block_size = block_size
        # the machine shares one pool (one id stream); standalone
        # controllers in unit tests get a private pool
        self._pool = pool if pool is not None else MessagePool(block_size)
        self.netcache = netcache
        self.proc_id = proc_id
        self._mshr: Dict[int, Transaction] = {}
        # statistics
        self.reads_issued = 0
        self.writes_issued = 0
        self.upgrades_issued = 0
        self.writebacks_sent = 0
        self.invs_received = 0
        self.late_invals = 0

    def _block(self, addr: int) -> int:
        return (addr // self.block_size) * self.block_size

    def mark_pending_inval(self, block: int) -> None:
        """Node-level INV handling: flag an in-flight read as use-once."""
        pending = self._mshr.get(block)
        if pending is not None and pending.kind == "read":
            pending.pending_inval = True

    # ------------------------------------------------------------------
    # processor-facing: miss issue
    # ------------------------------------------------------------------
    def issue_read(
        self, addr: int, callback: Callable[[Transaction], None]
    ) -> Transaction:
        """Node read miss: request the block from its home."""
        block = self._block(addr)
        home = self.home_of(block)
        txn = Transaction(
            "read", block, self.node_id, home, self.block_size, self.sim.now,
            callback, self._pool.next_txn_id(),
        )
        self.reads_issued += 1
        if block in self._mshr:
            raise ProtocolError(
                f"MSHR conflict on read (pending {self._mshr[block]!r})",
                node=self.node_id, addr=block,
                state=self.hierarchy.state_of(block),
            )
        self._mshr[block] = txn
        msg = self._pool.make(
            MsgKind.READ, self.node_id, home, block, transaction=txn,
        )
        msg.proc = self.proc_id
        txn.req_msg = msg
        self.ni.send(msg)
        return txn

    def issue_write(
        self, addr: int, callback: Callable[[Transaction], None]
    ) -> Transaction:
        """Write-buffer drain needs ownership: upgrade or read-for-ownership."""
        block = self._block(addr)
        home = self.home_of(block)
        if self.hierarchy.state_code(block) == CODE_SHARED:
            kind, txn_kind = MsgKind.UPGRADE, "upgrade"
            self.upgrades_issued += 1
        else:
            kind, txn_kind = MsgKind.READX, "write"
            self.writes_issued += 1
        txn = Transaction(
            txn_kind, block, self.node_id, home, self.block_size, self.sim.now,
            callback, self._pool.next_txn_id(),
        )
        if block in self._mshr:
            raise ProtocolError(
                f"MSHR conflict on write (pending {self._mshr[block]!r})",
                node=self.node_id, addr=block,
                state=self.hierarchy.state_of(block),
            )
        self._mshr[block] = txn
        msg = self._pool.make(
            kind, self.node_id, home, block, transaction=txn,
        )
        msg.proc = self.proc_id
        txn.req_msg = msg
        self.ni.send(msg)
        return txn

    # ------------------------------------------------------------------
    # network-facing: receive
    # ------------------------------------------------------------------
    def receive(self, msg: Message) -> None:
        kind = msg.kind
        if kind is _DATA_S:
            self._on_data_s(msg)
        elif kind is _DATA_X:
            self._on_data_x(msg)
        elif kind is _UPGR_ACK:
            self._on_upgr_ack(msg)
        else:
            raise ProtocolError(
                f"node got unexpected {msg!r}",
                node=self.node_id, addr=msg.addr,
                state=self.hierarchy.state_of(msg.addr),
            )

    def _pop_mshr(self, msg: Message) -> Transaction:
        block = self._block(msg.addr)
        txn = self._mshr.pop(block, None)
        if txn is None:
            raise ProtocolError(
                f"reply {msg!r} matches no MSHR",
                node=self.node_id, addr=block,
                state=self.hierarchy.state_of(block),
            )
        return txn

    def _on_data_s(self, msg: Message) -> None:
        txn = self._pop_mshr(msg)
        txn.reply_msg = msg
        txn.data = msg.data
        served_by = msg.served_by
        if served_by == "switch" or served_by == "owner":
            txn.served_by = served_by
        else:
            txn.served_by = "local_mem" if txn.home == self.node_id else "remote_mem"
        if txn.pending_inval:
            # use-once data: deliver to the processor, install nowhere
            self.late_invals += 1
            self._finish(txn)
            return
        victim = self.hierarchy.fill(txn.addr, LineState.SHARED, msg.data, fill_l1=True)
        self.spill(victim)
        if self.netcache is not None and txn.home != self.node_id:
            self.netcache.fill(txn.addr, msg.data)
        self._finish(txn)

    def _on_data_x(self, msg: Message) -> None:
        txn = self._pop_mshr(msg)
        txn.reply_msg = msg
        txn.data = msg.data
        txn.served_by = "home_mem"
        victim = self.hierarchy.fill(txn.addr, LineState.MODIFIED, msg.data)
        self.spill(victim)
        self._finish(txn)

    def _on_upgr_ack(self, msg: Message) -> None:
        txn = self._pop_mshr(msg)
        txn.reply_msg = msg
        state = self.hierarchy.state_of(txn.addr)
        if state is not LineState.SHARED:
            raise ProtocolError(
                "UPGR_ACK but line is not SHARED — the home should have "
                "escalated to READX",
                node=self.node_id, addr=txn.addr, state=state,
            )
        self.hierarchy.upgrade(txn.addr)
        self._finish(txn)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def spill(self, victim) -> None:
        """Send a displaced owned L2 victim home as a writeback."""
        if victim is None:
            return
        victim_addr, victim_data = victim
        home = self.home_of(victim_addr)
        self.writebacks_sent += 1
        wb = self._pool.make(
            MsgKind.WRITEBACK, self.node_id, home, victim_addr,
            data=victim_data,
        )
        self.ni.send(wb)

    def _finish(self, txn: Transaction) -> None:
        txn.completed_at = self.sim.now
        tracer = self._tracer
        if tracer is not None:
            proc = self.proc_id if self.proc_id is not None else self.node_id
            tracer.async_span(
                f"proc{proc}", txn.kind, "txn", txn.id,
                txn.issued_at, txn.completed_at,
                {"addr": txn.addr, "served_by": txn.served_by},
            )
        if txn.callback is not None:
            txn.callback(txn)

    @property
    def outstanding(self) -> int:
        return len(self._mshr)
