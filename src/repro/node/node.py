"""Node assembly: processor stacks + cluster bus + NI + home memory.

Each CC-NUMA node hosts ``procs_per_node`` processor stacks (see
:mod:`repro.node.cluster`) sharing the node's cluster bus, network
interface, optional network cache, and memory-side stack (the node's
slice of shared memory, its full-map directory, and the home
controller).  The directory tracks **nodes**; intra-node coherence is the
cluster bus's job.

With the default ``procs_per_node = 1`` this degenerates to the paper's
configuration: one stack, a bus with no siblings to snoop.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..cache.states import CODE_MODIFIED
from ..coherence.directory import Directory
from ..coherence.home import HomeController
from ..coherence.l2ctrl import NodeController
from ..errors import ProtocolError
from ..memory.dram import MemoryModule
from ..memory.netcache import NetworkCache
from ..memory.nic import NetworkInterface
from ..network.fabric import Fabric
from ..network.message import Message, MessagePool, MsgKind
from ..sim.engine import Simulator
from .cluster import ClusterBus, ProcStack
from .sync import BarrierManager, LockManager

_HOME_KINDS = frozenset(
    {
        MsgKind.READ,
        MsgKind.READX,
        MsgKind.UPGRADE,
        MsgKind.DIR_UPDATE,
        MsgKind.WRITEBACK,
        MsgKind.RECALL_REPLY,
        MsgKind.INV_ACK,
    }
)
#: index-by-code form of _HOME_KINDS for Node._dispatch: a set test
#: would call the Python-level Enum.__hash__ per delivered message
_TO_HOME: Tuple[bool, ...] = tuple(k in _HOME_KINDS for k in MsgKind)
#: hoisted kinds for the router arms of Node._dispatch
_INV = MsgKind.INV
_RECALLS = (MsgKind.RECALL, MsgKind.RECALL_X)


class Node:
    """One processor-memory node (possibly a bus-based cluster)."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        config,  # SystemConfig
        fabric: Optional[Fabric],
        home_of: Callable[[int], int],
        barriers: BarrierManager,
        locks: LockManager,
        stats,  # MachineStats
        sync_addr: Callable[[str, int], int],
        on_done: Callable[[int], None],
        pool: Optional[MessagePool] = None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.config = config
        self.stats = stats
        # the machine's shared worm pool (one id stream per machine);
        # standalone nodes in unit tests get a private one
        self._pool = pool if pool is not None else MessagePool(config.block_size)
        self.barriers = barriers
        self.locks = locks
        self.home_of = home_of
        self._sync_addr = sync_addr
        self._on_done = on_done
        block = config.block_size
        ppn = config.procs_per_node
        first_proc = node_id * ppn
        self.ni = NetworkInterface(sim, node_id, fabric, config.local_bus_cycles)
        self.netcache: Optional[NetworkCache] = None
        if config.netcache_size:
            self.netcache = NetworkCache(
                sim, node_id,
                size=config.netcache_size, block_size=block,
                assoc=config.netcache_assoc,
                access_cycles=config.netcache_access_cycles,
            )
        self.stacks: List[ProcStack] = [
            ProcStack(sim, self, first_proc + k, config) for k in range(ppn)
        ]
        if ppn > 1:
            for stack in self.stacks:
                stack.siblings = tuple(s for s in self.stacks if s is not stack)
        self.bus = ClusterBus(sim, self, config.local_bus_cycles)
        # one network-side controller (MSHRs) per stack
        self._netctrls: List[NodeController] = [
            stack.netctrl for stack in self.stacks
        ]
        self._first_proc = first_proc
        self.directory = Directory(node_id, block)
        self.memory = MemoryModule(
            sim, node_id,
            access_cycles=config.memory_access_cycles,
            bus_cycles=config.memory_bus_cycles,
        )
        self.home_ctrl = HomeController(
            sim, node_id, self.directory, self.memory,
            send=lambda msg, at: self.ni.send(msg, at=at),
            block_size=block,
            pool=self._pool,
        )
        self.ni.attach(self._dispatch)
        # statistics
        self.invs_received = 0

    # ------------------------------------------------------------------
    # single-processor compatibility accessors
    # ------------------------------------------------------------------
    @property
    def processor(self):
        return self.stacks[0].processor

    @property
    def hierarchy(self):
        return self.stacks[0].hierarchy

    @property
    def write_buffer(self):
        return self.stacks[0].write_buffer

    @property
    def write_trace(self):
        return self.stacks[0].write_trace

    @property
    def l2ctrl(self) -> NodeController:
        return self._netctrls[0]

    def netctrl(self, stack: ProcStack) -> NodeController:
        return stack.netctrl

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, msg: Message) -> None:
        kind = msg.kind
        if _TO_HOME[kind.code]:
            if msg.dst != self.node_id:
                raise ProtocolError(
                    f"misrouted {msg!r}", node=self.node_id, addr=msg.addr
                )
            self.home_ctrl.receive(msg)
        elif kind is _INV:
            self._on_inv(msg)
        elif kind in _RECALLS:
            self._on_recall(msg)
        else:
            # data replies and upgrade acks go to the requesting stack
            proc = msg.proc
            if proc is None:
                ctrl = self._netctrls[0]
            else:
                ctrl = self._netctrls[proc - self._first_proc]
            ctrl.receive(msg)

    # ------------------------------------------------------------------
    # node-level coherence actions (the directory addresses nodes)
    # ------------------------------------------------------------------
    def _on_inv(self, msg: Message) -> None:
        self.invs_received += 1
        block = (msg.addr // self.config.block_size) * self.config.block_size
        if self.netcache is not None:
            self.netcache.invalidate(block)
        if not msg.purge_only:
            for stack, ctrl in zip(self.stacks, self._netctrls):
                stack.hierarchy.invalidate(block)
                ctrl.mark_pending_inval(block)
                ctrl.invs_received += 1
        if not msg.no_ack:
            ack = self._pool.make(MsgKind.INV_ACK, self.node_id, msg.src, block)
            self.ni.send(ack)

    def _on_recall(self, msg: Message) -> None:
        block = (msg.addr // self.config.block_size) * self.config.block_size
        reply = None
        for stack in self.stacks:
            if stack.hierarchy.state_code(block) == CODE_MODIFIED:
                if msg.kind is MsgKind.RECALL:
                    data = stack.hierarchy.downgrade(block)
                else:
                    _state, data = stack.hierarchy.invalidate(block)
                reply = self._pool.make(
                    MsgKind.RECALL_REPLY, self.node_id, msg.src, block,
                    data=data,
                )
                break
        if msg.kind is MsgKind.RECALL_X:
            # write-ownership moves off-node: purge every local copy
            if self.netcache is not None:
                self.netcache.invalidate(block)
            for stack in self.stacks:
                stack.hierarchy.invalidate(block)
        if reply is None:
            # no data: the owner evicted first, its writeback is on the way
            reply = self._pool.make(
                MsgKind.RECALL_REPLY, self.node_id, msg.src, block
            )
        self.ni.send(reply)

    # ------------------------------------------------------------------
    # glue
    # ------------------------------------------------------------------
    def sync_addr(self, kind: str, sync_id: int) -> int:
        return self._sync_addr(kind, sync_id)

    def on_stack_done(self, stack: ProcStack) -> None:
        self._on_done(stack.proc_id)
