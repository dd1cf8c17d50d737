"""Flit-level wormhole reference network (validation model).

The production fabric (:mod:`repro.network.fabric`) moves whole messages
with per-hop pipelined timing — fast enough for execution-driven runs,
but it approximates wormhole flow control (DESIGN.md substitution
table).  This module is the *reference* it is validated against: a true
flit-level wormhole network with

* per-input-port virtual channels of finite depth,
* credit-based flow control (a flit advances only when the downstream
  VC has a free slot),
* wormhole semantics — a worm holds its VC and its switch path while
  blocked, so backpressure propagates upstream,
* per-output-link serialization of one flit per ``cycles_per_flit``.

It exposes the same ``inject``/handler interface as ``Fabric``, embeds
CAESAR engines the same way (the engines run their hooks as a header
reaches their switch, and a hit is served from the switch), and drives
full machine runs, with or without switch caches
(``SystemConfig(network_model="flit")``).  ``tests/test_flit_reference.py``
and experiment A8 check that the production model tracks this reference
on microbenchmarks (within one cycle) and on end-to-end application runs
(GE within 0.5 % on a base machine and 1 % with 1 KB switch caches) —
the evidence behind the "who-wins conclusions are unaffected" claim in
DESIGN.md.

The implementation pumps once per cycle while flits are in flight,
roughly an order of magnitude slower than the message-level fabric; use
it for validation, not production sweeps.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple

from ..errors import NetworkError
from ..sim.engine import Simulator
from .fabric import FabricStats
from .message import (
    INTERCEPTABLE,
    SNOOPS_SWITCH_CACHES,
    SWITCH_CACHEABLE,
    Message,
    MessagePool,
    MsgKind,
)
from .topology import BminTopology

if TYPE_CHECKING:
    from ..core.caesar import CaesarEngine

DeliverFn = Callable[[Message], None]

#: port identifier: ("sw", stage, row) or ("node", n)
Port = Tuple


def _vertex(x) -> Port:
    if isinstance(x, tuple) and len(x) == 2:
        return ("sw",) + x
    return ("node", x)


class _Worm:
    """Bookkeeping for one in-flight message."""

    __slots__ = ("msg", "hops", "flits_left", "ready_at", "hooked_at")

    def __init__(self, msg: Message, hops: List[Port]) -> None:
        self.msg = msg
        self.hops = hops  # vertices from source to destination
        self.flits_left = msg.flits
        self.ready_at = 0
        self.hooked_at = None  # last vertex whose engine hooks ran


class _Channel:
    """One directed link with per-VC buffers at its receiving end."""

    __slots__ = ("src", "dst", "vcs", "vc_depth", "busy_until", "arrivals")

    def __init__(self, src: Port, dst: Port, vc_count: int, vc_depth: int) -> None:
        self.src = src
        self.dst = dst
        # each VC buffer holds (worm, is_header, is_tail, enqueue_time)
        self.vcs: List[Deque] = [deque() for _ in range(vc_count)]
        self.vc_depth = vc_depth
        self.busy_until = 0
        self.arrivals = 0

    def vc_free_slots(self, vc: int) -> int:
        return self.vc_depth - len(self.vcs[vc])


class FlitNetwork:
    """Flit-accurate wormhole BMIN (validation reference)."""

    def __init__(
        self,
        sim: Simulator,
        topology: BminTopology,
        vc_count: int = 2,
        vc_depth: int = 4,
        cycles_per_flit: int = 4,
        switch_delay: int = 4,
        pool: Optional[MessagePool] = None,
    ) -> None:
        self.sim = sim
        self.topo = topology
        # id source for switch-fabricated worms: the machine's id stream
        self.pool = pool if pool is not None else MessagePool()
        self.vc_count = vc_count
        self.vc_depth = vc_depth
        self.cycles_per_flit = cycles_per_flit
        self.switch_delay = switch_delay
        self._handlers: Dict[int, DeliverFn] = {}
        # the embedded CAESAR engines, in switch order and by switch id
        self.cache_engines: List[CaesarEngine] = []
        self.stats = FabricStats(self.cache_engines)
        self._engine_at: Dict[Tuple[int, int], CaesarEngine] = {}
        self._inject_wait_sum = 0
        # channels keyed by (src_vertex, dst_vertex)
        self.channels: Dict[Tuple[Port, Port], _Channel] = {}
        # per-worm state: current (channel, vc) its head occupies, or the
        # injection queue; worms advance hop by hop
        self._worm_vc: Dict[int, Tuple[_Channel, int]] = {}
        self._inject_queues: Dict[int, Deque[_Worm]] = {}
        self._pump_scheduled = False
        self._build()

    # ------------------------------------------------------------------
    def switch_cache_blocks(self):
        """All (switch, block_addr, version) resident in switch caches."""
        return [
            (engine.switch_id, addr, line.data)
            for engine in self.cache_engines
            for addr, line in engine.array.resident_blocks()
        ]

    def injection_queue_delay(self) -> float:
        """Mean NI injection queueing delay (cycles), as Fabric counts it:
        switch-originated worms do not enter through an NI."""
        if self.stats.msgs_injected == 0:
            return 0.0
        return self._inject_wait_sum / self.stats.msgs_injected

    def install_cache_engines(self, factory) -> None:
        """Embed a CAESAR engine in every switch (as in Fabric)."""
        engines = (factory(sid) for sid in self.topo.switches())
        self.cache_engines[:] = [e for e in engines if e is not None]
        self._engine_at = {e.switch_id: e for e in self.cache_engines}

    def _build(self) -> None:
        for sid in self.topo.switches():
            for up in self.topo.up_neighbors(sid):
                self._add_channel(_vertex(sid), _vertex(up))
                self._add_channel(_vertex(up), _vertex(sid))
        for node in range(self.topo.num_nodes):
            sw = _vertex(self.topo.node_switch(node))
            self._add_channel(("node", node), sw)
            self._add_channel(sw, ("node", node))
            self._inject_queues[("node", node)] = deque()
        for sid in self.topo.switches():
            # switch-originated worms (switch-cache replies, dir updates)
            self._inject_queues[("sw",) + sid] = deque()

    def _add_channel(self, src: Port, dst: Port) -> None:
        self.channels[(src, dst)] = _Channel(
            src, dst, self.vc_count, self.vc_depth
        )

    def attach_node(self, node: int, handler: DeliverFn) -> None:
        self._handlers[node] = handler

    # ------------------------------------------------------------------
    def inject(self, msg: Message) -> None:
        if msg.src == msg.dst:
            raise NetworkError("local messages must not enter the network")
        if msg.created_at < 0:
            msg.created_at = self.sim.now
        path = self.topo.path(msg.src, msg.dst)
        hops: List[Port] = (
            [("node", msg.src)]
            + [_vertex(s) for s in path]
            + [("node", msg.dst)]
        )
        worm = _Worm(msg, hops)
        self.stats.msgs_injected += 1
        self.stats.flits_injected += msg.flits
        self._inject_queues[("node", msg.src)].append(worm)
        self._schedule_pump()

    # ------------------------------------------------------------------
    # the pump: one pass per cycle-ish advancing every movable flit
    # ------------------------------------------------------------------
    def _schedule_pump(self) -> None:
        if not self._pump_scheduled:
            self._pump_scheduled = True
            self.sim.call(1, self._pump)

    def _pump(self) -> None:
        self._pump_scheduled = False
        moved = self._advance_all()
        if moved or self._work_pending():
            self._schedule_pump()

    def _work_pending(self) -> bool:
        if any(q for q in self._inject_queues.values()):
            return True
        return any(
            vc for ch in self.channels.values() for vc in ch.vcs
        )

    def _advance_all(self) -> bool:
        now = self.sim.now
        moved = False
        # 1) movements out of switch input VCs toward next channels
        for channel in self.channels.values():
            dst = channel.dst
            if dst[0] != "sw":
                continue  # ejection handled below
            for vc_index, vc in enumerate(channel.vcs):
                if not vc:
                    continue
                worm, is_header, is_tail, ready_at = vc[0]
                if ready_at + self.switch_delay > now:
                    continue
                if is_header and self._engine_hooks(worm, dst, vc, now):
                    moved = True
                    continue
                next_channel, next_vc = self._next_leg(worm, dst)
                if next_channel is None:
                    continue
                if next_channel.busy_until > now:
                    moved = True  # still draining; keep pumping
                    continue
                if next_channel.vc_free_slots(next_vc) <= 0:
                    continue  # backpressure: the worm holds this VC
                vc.popleft()
                self._transmit(worm, next_channel, next_vc, is_header, is_tail)
                moved = True
        # 2) ejection: flits arriving at node vertices
        for channel in self.channels.values():
            if channel.dst[0] != "node":
                continue
            node = channel.dst[1]
            for vc in channel.vcs:
                while vc:
                    worm, _h, is_tail, ready_at = vc[0]
                    if ready_at > now:
                        break
                    vc.popleft()
                    moved = True
                    if is_tail:
                        self._deliver(worm, node)
        # 3) injections: NIs and switch-originated worms feed their
        # first channel
        for vertex, queue in self._inject_queues.items():
            if not queue:
                continue
            worm = queue[0]
            if worm.ready_at > now:
                moved = True
                continue
            channel = self.channels[(vertex, worm.hops[1])]
            if channel.busy_until > now:
                moved = True
                continue
            vc_index = worm.msg.id % self.vc_count
            if channel.vc_free_slots(vc_index) <= 0:
                continue
            is_header = worm.flits_left == worm.msg.flits
            if is_header and worm.msg.injected_at < 0:
                worm.msg.injected_at = now
                if vertex[0] == "node":
                    self._inject_wait_sum += now - worm.msg.created_at
            is_tail = worm.flits_left == 1
            self._transmit(worm, channel, vc_index, is_header, is_tail)
            worm.flits_left -= 1
            if is_tail:
                queue.popleft()
            moved = True
        return moved

    def _engine_hooks(self, worm: _Worm, at: Port, vc, now: int) -> bool:
        """Run CAESAR hooks for a header flit at switch vertex ``at``.

        Returns True when the worm was consumed (switch-cache hit).
        """
        if worm.hooked_at == at:
            return False  # hooks already ran at this switch
        worm.hooked_at = at
        engine = self._engine_at.get(at[1:])
        if engine is None:
            return False
        msg = worm.msg
        code = msg.kind.code
        # the pump drives the clock one cycle at a time, so the header's
        # arrival is exactly the simulator clock the hooks read
        if SNOOPS_SWITCH_CACHES[code]:
            engine.snoop(msg)
            return False
        if SWITCH_CACHEABLE[code]:
            engine.try_deposit(msg)
            return False
        if INTERCEPTABLE[code]:
            served = engine.try_intercept(msg)
            if served is None:
                return False
            data, ready_at = served
            # consume the 1-flit request at this switch
            vc.popleft()
            index = worm.hops.index(at)
            # reply retraces the traversed prefix back to the source
            reply = self.pool.make(
                MsgKind.DATA_S,
                src=msg.dst,
                dst=msg.src,
                addr=msg.addr,
                data=data,  # flits default to the pool's block, as for every DATA_S
                payload={
                    "served_by": "switch",
                    "served_switch": at[1:],
                    "proc": msg.payload.get("proc"),
                },
                transaction=msg.transaction,
            )
            reply.created_at = now
            reply_hops = list(reversed(worm.hops[:index + 1]))
            self._inject_at(at, reply, reply_hops, not_before=ready_at)
            # the request continues to the home as a 1-flit dir update
            update = self.pool.make(
                MsgKind.DIR_UPDATE,
                src=msg.src,
                dst=msg.dst,
                addr=msg.addr,
                flits=1,
                payload={"sc_version": data,
                         "proc": msg.payload.get("proc")},
                transaction=msg.transaction,
            )
            update.created_at = now
            update_hops = worm.hops[index:]
            self._inject_at(at, update, update_hops)
            return True
        return False

    def _inject_at(self, vertex: Port, msg: Message, hops, not_before=None):
        """Queue a switch-originated worm for transmission from ``vertex``.

        It is no NI injection, so ``stats`` does not count it.
        """
        worm = _Worm(msg, hops)
        if not_before is not None:
            worm.ready_at = not_before
        self._inject_queues[vertex].append(worm)
        self._schedule_pump()

    def _next_leg(self, worm: _Worm, at: Port):
        """The channel/VC a worm's flits use leaving vertex ``at``."""
        index = worm.hops.index(at)
        nxt = worm.hops[index + 1]
        channel = self.channels[(at, nxt)]
        return channel, worm.msg.id % self.vc_count

    def _transmit(self, worm, channel, vc_index, is_header, is_tail) -> None:
        now = self.sim.now
        channel.busy_until = now + self.cycles_per_flit
        channel.arrivals += 1
        arrival = now + self.cycles_per_flit
        channel.vcs[vc_index].append((worm, is_header, is_tail, arrival))
        self._schedule_pump()

    def _deliver(self, worm: _Worm, node: int) -> None:
        worm.msg.delivered_at = self.sim.now
        self.stats.msgs_delivered += 1
        handler = self._handlers.get(node)
        if handler is None:
            raise NetworkError(f"no handler attached for node {node}")
        handler(worm.msg)
