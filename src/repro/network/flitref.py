"""Flit-level wormhole reference network (validation model).

The production fabric (:mod:`repro.network.fabric`) moves whole messages
with per-hop pipelined timing — fast enough for execution-driven runs,
but it approximates wormhole flow control (DESIGN.md substitution
table).  This module is the *reference* it is validated against.

:class:`FlitNetwork` is a :class:`~repro.network.fabric.Fabric` that
replaces only the transport.  Shared with the fabric:

* the :class:`~repro.network.switch.Switch` elements, their output-link
  :class:`~repro.sim.resource.Timeline`\\ s and the NI injection links;
* routes (:meth:`Fabric.route`), so a switch-served reply rides the
  mirrored route suffix from the serving switch, as on the fabric;
* node attachment and delivery, and the switch hooks: a header flit
  emits the tracer's ``hop`` instant and dispatches through the fabric's
  by-kind table ``_hooks`` (the same ``_snoop``, ``_deposit`` and
  ``_intercept`` a fabric worm runs) as it reaches a switch, and a READ
  hit's reply is built by :meth:`Fabric._switch_reply`;
* the statistics and reports: ``stats``, the resident switch-cache
  blocks, ``utilization_by_stage`` and ``hottest_links``.

The reference's own:

* per-input-port virtual channels of finite depth, one set per link, a
  worm on VC ``msg.id % vc_count``;
* credit-based flow control: a flit advances only when the downstream
  VC has a free slot;
* wormhole semantics: a worm holds its VC and its switch path while
  blocked, so backpressure propagates upstream;
* per-flit serialization: each flit is one grant of its link,
  ``reserve(cycles_per_flit)``, so a link's ``reservations`` count
  flits and its ``queued_cycles`` stay 0 (the queueing sits in the VC
  buffers and the NI queues);
* the pump, one pass per cycle while flits are in flight, visiting
  channels in the fabric's link order (each switch's up/down pair, then
  each node's injection and ejection link) — a fixed-priority
  arbitration — and then the NI queues (nodes in order) and the queues
  of switch-fabricated worms (switches in order).

A switch-cache hit consumes its READ at the serving switch
(:meth:`FlitNetwork._serve_from_switch` overrides the fabric's and
returns True) and continues it as a freshly drawn DIR_UPDATE, not the
READ rewritten in place as on the fabric: VCs are chosen by message id,
so drawing one id fewer would move every later worm's VC.  The fresh
draw stays until VCs are mapped by lane.

It drives full machine runs, with or without switch caches
(``SystemConfig(network_model="flit")``).  ``tests/test_flit_reference.py``
and experiment A8 check that the production model tracks this reference
on microbenchmarks (within one cycle) and on end-to-end application runs
(GE within 0.5 % on a base machine and 1 % with 1 KB switch caches) —
the evidence behind the "who-wins conclusions are unaffected" claim in
DESIGN.md.

The pump visits every channel each cycle, roughly an order of magnitude
slower than the message-level fabric; use it for validation, not
production sweeps.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Hashable, List, Optional, Tuple

from ..errors import NetworkError
from ..sim.engine import Simulator
from ..sim.resource import Timeline
from .fabric import Fabric
from .message import Message, MessagePool, MsgKind
from .switch import Switch
from .topology import BminTopology

#: a buffered flit: (worm, hop, is_header, is_tail, arrival cycle).  It
#: waits at the input of route hop ``hop``'s switch, or at the
#: destination NI once ``hop`` is past the last switch
Flit = Tuple["_Worm", int, bool, bool, int]


class _Worm:
    """One in-flight message and the channel its flits enter by."""

    __slots__ = ("msg", "channel", "hop", "flits_left", "ready_at", "hooked")

    def __init__(
        self, msg: Message, channel: _Channel, hop: int, ready_at: int = 0
    ) -> None:
        self.msg = msg
        # the first link the worm crosses, and the route hop it leads to
        self.channel = channel
        self.hop = hop
        self.flits_left = msg.flits
        self.ready_at = ready_at
        self.hooked = -1  # the last hop whose switch hooks ran


class _Channel:
    """A fabric link plus the VC buffers at its receiving end."""

    __slots__ = ("link", "vcs")

    def __init__(self, link: Timeline, vc_count: int) -> None:
        self.link = link
        self.vcs: List[Deque[Flit]] = [deque() for _ in range(vc_count)]


class FlitNetwork(Fabric):
    """Flit-accurate wormhole BMIN (validation reference)."""

    __slots__ = (
        "vc_count", "vc_depth", "channels", "_switch_inputs", "_ejections",
        "_inject_queues", "_inject_wait_sum", "_pump_scheduled",
    )

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
        super().__init__(
            sim, topology, switch_delay=switch_delay,
            cycles_per_flit=cycles_per_flit, pool=pool,
        )
        self.vc_count = vc_count
        self.vc_depth = vc_depth
        self._inject_wait_sum = 0
        self._pump_scheduled = False
        # the fabric's links in Fabric._build's order, which is the
        # pump's arbitration priority
        switches = self.switches
        links: List[Tuple[Timeline, bool]] = []
        for sid in topology.switches():
            for up in topology.up_neighbors(sid):
                links.append((switches[sid].output_to(up), False))
                links.append((switches[up].output_to(sid), False))
        for node in range(topology.num_nodes):
            ejection = switches[topology.node_switch(node)].output_to(node)
            links.append((self._inject_links[node], False))
            links.append((ejection, True))
        self.channels: Dict[Timeline, _Channel] = {}
        self._switch_inputs: List[_Channel] = []
        self._ejections: List[_Channel] = []
        for link, to_node in links:
            channel = self.channels[link] = _Channel(link, vc_count)
            if to_node:
                self._ejections.append(channel)
            else:
                self._switch_inputs.append(channel)
        # worms waiting for their first channel: one NI queue per node,
        # then one per switch for the worms a switch-cache hit fabricates
        self._inject_queues: Dict[Hashable, Deque[_Worm]] = {
            node: deque() for node in range(topology.num_nodes)
        }
        for sid in topology.switches():
            self._inject_queues[sid] = deque()

    def injection_queue_delay(self) -> float:
        """Mean NI injection queueing delay per injected worm (cycles).

        Counted per worm, from ``inject`` to the grant of its header
        flit: per-flit link grants never queue, so the injection links
        hold no wait.  The pump moves a header one cycle after
        ``inject`` at the earliest, so an uncontended worm waits 1 cycle
        here and 0 on :class:`Fabric`.
        """
        if self.stats.msgs_injected == 0:
            return 0.0
        return self._inject_wait_sum / self.stats.msgs_injected

    # ------------------------------------------------------------------
    def inject(self, msg: Message) -> None:
        if msg.src == msg.dst:
            raise NetworkError("local messages must not enter the network")
        if msg.created_at < 0:
            msg.created_at = self.sim.now
        msg.hops = self.route(msg.src, msg.dst)
        self.stats.msgs_injected += 1
        self.stats.flits_injected += msg.flits
        channel = self.channels[self._inject_links[msg.src]]
        self._queue(msg.src, _Worm(msg, channel, 0))

    def _queue(self, source: Hashable, worm: _Worm) -> None:
        """Queue ``worm`` at a node's NI or a switch (``source``)."""
        self._inject_queues[source].append(worm)
        self._schedule_pump()

    # ------------------------------------------------------------------
    # the pump: one pass per cycle advancing every movable flit
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
        vc_count = self.vc_count
        vc_depth = self.vc_depth
        channels = self.channels
        moved = False
        # 1) movements out of switch input VCs toward next channels
        for channel in self._switch_inputs:
            for vc in channel.vcs:
                if not vc:
                    continue
                worm, hop, is_header, is_tail, ready_at = vc[0]
                if ready_at + self.switch_delay > now:
                    continue
                if is_header and worm.hooked != hop:
                    worm.hooked = hop
                    if self._run_hooks(worm.msg, hop, vc):
                        moved = True
                        continue
                link = worm.msg.hops[hop][1]
                if link.is_busy():
                    moved = True  # still draining; keep pumping
                    continue
                next_channel = channels[link]
                next_vc = next_channel.vcs[worm.msg.id % vc_count]
                if len(next_vc) >= vc_depth:
                    continue  # backpressure: the worm holds this VC
                vc.popleft()
                self._transmit(
                    worm, hop + 1, next_channel, next_vc, is_header, is_tail,
                )
                moved = True
        # 2) ejection: flits arriving at the destination NIs
        for channel in self._ejections:
            for vc in channel.vcs:
                while vc:
                    worm, _hop, _header, is_tail, ready_at = vc[0]
                    if ready_at > now:
                        break
                    vc.popleft()
                    moved = True
                    if is_tail:
                        self._deliver(worm.msg)
        # 3) injections: NIs and switch-fabricated worms feed their
        # first channel
        for queue in self._inject_queues.values():
            if not queue:
                continue
            worm = queue[0]
            if worm.ready_at > now:
                moved = True
                continue
            channel = worm.channel
            if channel.link.is_busy():
                moved = True
                continue
            msg = worm.msg
            vc = channel.vcs[msg.id % vc_count]
            if len(vc) >= vc_depth:
                continue
            is_header = worm.flits_left == msg.flits
            if is_header and msg.injected_at < 0:
                msg.injected_at = now
                if worm.hop == 0:  # only an NI worm enters at hop 0
                    self._inject_wait_sum += now - msg.created_at
            is_tail = worm.flits_left == 1
            self._transmit(worm, worm.hop, channel, vc, is_header, is_tail)
            worm.flits_left -= 1
            if is_tail:
                queue.popleft()
            moved = True
        return moved

    def _run_hooks(self, msg: Message, hop: int, vc: Deque[Flit]) -> bool:
        """Trace a header flit at hop ``hop`` and run the switch hook.

        Returns True when a switch-cache hit consumed the worm.  The
        pump drives the clock one cycle at a time, so the header's
        arrival is exactly the simulator clock the hooks read.
        """
        tracer = self._tracer
        if tracer is not None:
            tracer.instant(
                msg.hops[hop][0].trace_track, "hop", self.sim.now,
                {"msg": msg.id, "kind": msg.kind.value, "addr": msg.addr},
            )
        hook = self._hooks[msg.kind.code]
        if hook is not None and hook(msg, hop):
            vc.popleft()  # the 1-flit request ends at this switch
            return True
        return False

    def _serve_from_switch(
        self, msg: Message, switch: Switch, hop: int, data: int,
        ready_at: int,
    ) -> bool:
        """Queue the reply and the directory update a hit fabricates;
        the request ends here (True)."""
        reply = self._switch_reply(msg, switch, data)
        hops = reply.hops = self.route(msg.dst, msg.src)
        back = len(hops) - 1 - hop  # the serving switch on the way back
        self._queue(switch.id, _Worm(
            reply, self.channels[hops[back][1]], back + 1, ready_at,
        ))
        # the request continues to the home as a 1-flit dir update
        update = self.pool.make(
            MsgKind.DIR_UPDATE,
            src=msg.src,
            dst=msg.dst,
            addr=msg.addr,
            data=data,
            transaction=msg.transaction,
            flits=1,
        )
        update.proc = msg.proc
        update.created_at = self.sim.now
        update.hops = msg.hops
        self._queue(switch.id, _Worm(
            update, self.channels[msg.hops[hop][1]], hop + 1,
        ))
        return True

    def _transmit(
        self, worm: _Worm, hop: int, channel: _Channel, vc: Deque[Flit],
        is_header: bool, is_tail: bool,
    ) -> None:
        """Send one flit over ``channel``'s link into its buffer ``vc``."""
        channel.link.reserve(self.cycles_per_flit)
        arrival = self.sim.now + self.cycles_per_flit
        vc.append((worm, hop, is_header, is_tail, arrival))
        self._schedule_pump()
