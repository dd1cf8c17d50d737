"""The wormhole BMIN fabric: injection, per-hop forwarding, delivery.

Timing model (message-granularity wormhole, Section 5 of DESIGN.md):

* injection — the worm queues for its node's injection link (NI send
  module); the header enters the stage-0 switch one flit time after the
  grant.
* per hop — the header waits ``switch_delay`` cycles (arbitration +
  crossbar traversal), then queues FIFO for the output link; the link is
  occupied ``flits * cycles_per_flit`` cycles (serialization); the header
  reaches the next switch one flit time after the grant.
* delivery — the worm is handed to the destination NI when its tail has
  fully crossed the ejection link.

Switch-cache integration: as a worm's header arrives at a switch the
fabric invokes the embedded CAESAR engine —

* ``INV`` worms snoop (purge matching blocks),
* ``DATA_S`` worms deposit their block,
* ``READ`` worms may be intercepted: the engine supplies the data, the
  fabric fabricates a ``DATA_S`` reply that retraces the request's path,
  and the request itself shrinks to a 1-flit ``DIR_UPDATE`` that continues
  to the home node so the full-map directory stays exact.

Routes are resolved on first use (:meth:`Fabric.route`): a pair's
``((switch, out_link), ...)`` hops are built the first time a worm needs
them and shared by every later worm on the pair.  The fabric relies on
the topology's reversal symmetry, ``path(a, b) == reversed(path(b, a))``:
a switch-served reply rides the home-to-requester route from the serving
switch on, which is exactly the request's traversed prefix, reversed.

Every worm takes one per-hop callback, :meth:`Fabric._hop` (DESIGN.md
§10.4).  It emits the tracer's ``hop`` instant when a tracer is
attached, runs the switch hook that the fabric's by-kind table
``_hooks`` holds for the worm's kind (``_snoop``, ``_deposit`` or
``_intercept`` once :meth:`Fabric.install_cache_engines` embeds engines,
else none), and grants the output link with the one inlined copy of
:meth:`~repro.sim.resource.Timeline.reserve`: every link is a
``Timeline``.  :class:`~repro.network.flitref.FlitNetwork` runs its
header flits through the same table.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..errors import ConfigError, NetworkError, SimulationError
from ..sim.engine import Simulator
from ..sim.resource import Timeline, pooled_queueing_delay
from .message import Message, MessagePool, MsgKind
from .switch import Switch
from .topology import BminTopology, SwitchId

if TYPE_CHECKING:
    from ..core.caesar import CaesarEngine
    from ..trace.tracer import Tracer

DeliverFn = Callable[[Message], None]
#: a switch hook: ``fn(msg, hop)`` as the header reaches hop ``hop``;
#: True when the switch consumed the worm
HookFn = Callable[[Message, int], bool]

#: one resolved route hop: (switch, out-link toward the next hop / the node)
Hop = Tuple[Switch, Timeline]

#: request kinds that open a flow arrow toward their eventual reply
_FLOW_REQUESTS = frozenset(
    {MsgKind.READ, MsgKind.READX, MsgKind.UPGRADE}
)
#: reply kinds that close a transaction's flow arrow
_FLOW_REPLIES = frozenset(
    {MsgKind.DATA_S, MsgKind.DATA_X, MsgKind.UPGR_ACK}
)

#: the kinds that run a CAESAR hook at each switch they cross, on both
#: network models.  Only clean shared data is deposited, and only a READ
#: may be served by a switch.  Invalidations purge matching blocks: they
#: cover all sharer paths.  Ownership transfers (RECALL_X en route to an
#: owner) and writebacks create no new stale copies, and RECALL (M->S
#: downgrade) does not purge: as in the paper, invalidation traffic
#: snoops and everything else passes untouched.
_INV = MsgKind.INV            # snoops
_DATA_S = MsgKind.DATA_S      # deposits
_READ = MsgKind.READ          # may be intercepted

class FabricStats:
    """Aggregate network statistics.

    ``msgs_injected``/``flits_injected`` count NI injections only.  Each
    switch-cache hit sends one switch reply and turns its READ into one
    DIR_UPDATE, so at quiescence ``msgs_delivered == msgs_injected +
    switch_hits``; the hits are the embedded engines' own count.
    """

    __slots__ = (
        "msgs_injected", "msgs_delivered", "flits_injected", "cache_engines",
    )

    def __init__(self, cache_engines: List[CaesarEngine]) -> None:
        self.msgs_injected = 0
        self.msgs_delivered = 0
        self.flits_injected = 0
        # the network's engine list, shared, not copied
        self.cache_engines = cache_engines

    @property
    def switch_hits(self) -> int:
        """Reads served by switch caches: the engines' hits, summed."""
        return sum(engine.hits for engine in self.cache_engines)


class Fabric:
    """A BMIN of :class:`Switch` elements plus node attachment points."""

    __slots__ = (
        "sim", "topo", "switch_delay", "cycles_per_flit", "stats",
        "switches", "_inject_links", "_handlers", "_tracer", "_routes",
        "pool", "_hooks", "cache_engines",
    )

    def __init__(
        self,
        sim: Simulator,
        topology: BminTopology,
        switch_delay: int = 4,
        cycles_per_flit: int = 4,
        pool: Optional[MessagePool] = None,
    ) -> None:
        if switch_delay < 0:
            raise ConfigError(f"switch_delay must be >= 0, got {switch_delay}")
        if cycles_per_flit < 1:
            raise ConfigError(
                f"cycles_per_flit must be >= 1, got {cycles_per_flit}"
            )
        self.sim = sim
        # captured once: Machine installs the tracer on the simulator
        # before any component is built, and never swaps it mid-run
        self._tracer = sim.tracer
        self.topo = topology
        self.switch_delay = switch_delay
        self.cycles_per_flit = cycles_per_flit
        # the machine shares one pool across fabric + controllers so the
        # whole machine draws one message-id stream; standalone fabrics
        # (unit tests, examples) get a private pool
        self.pool = pool if pool is not None else MessagePool()
        self.switches: Dict[SwitchId, Switch] = {}
        # the embedded CAESAR engines, in switch order
        self.cache_engines: List[CaesarEngine] = []
        self.stats = FabricStats(self.cache_engines)
        self._inject_links: Dict[int, Timeline] = {}
        # indexed by node id: a flat list beats a dict probe on the
        # delivery path (one per worm); None = no NI attached yet
        self._handlers: List[Optional[DeliverFn]] = (
            [None] * topology.num_nodes
        )
        # (src, dst) -> resolved hops, filled by route() on first use
        self._routes: Dict[Tuple[int, int], Tuple[Hop, ...]] = {}
        # the switch hook per kind, indexed by MsgKind.code: none until
        # install_cache_engines embeds CAESAR engines
        self._hooks: List[Optional[HookFn]] = [None] * len(MsgKind)
        self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        for sid in self.topo.switches():
            self.switches[sid] = Switch(self.sim, sid)
        # inter-switch links (both directions)
        for sid, switch in self.switches.items():
            for up in self.topo.up_neighbors(sid):
                switch.add_output(up)
                self.switches[up].add_output(sid)
        # node attachment: ejection link lives on the stage-0 switch,
        # injection link is owned by the fabric per node
        for node in range(self.topo.num_nodes):
            sw = self.switches[self.topo.node_switch(node)]
            sw.add_output(node)
            self._inject_links[node] = Timeline(self.sim)

    def route(self, src: int, dst: int) -> Tuple[Hop, ...]:
        """The ``((switch, out_link), ...)`` hops from node ``src`` to ``dst``.

        Resolved from the topology the first time a worm needs the pair,
        then memoised: every later worm on the pair shares the one tuple,
        so the per-hop path never consults the topology or the switches'
        output dicts.
        """
        hops = self._routes.get((src, dst))
        if hops is None:
            hops = self._resolve(self.topo.path(src, dst), dst)
            self._routes[(src, dst)] = hops
        return hops

    def _resolve(
        self, route: List[SwitchId], dst: int
    ) -> Tuple[Hop, ...]:
        """Turn a switch-id route into ``((switch, out_link), ...)`` hops."""
        switches = self.switches
        last = len(route) - 1
        return tuple(
            (switches[sid],
             switches[sid].output_to(dst if i == last else route[i + 1]))
            for i, sid in enumerate(route)
        )

    def attach_node(self, node: int, handler: DeliverFn) -> None:
        """Register the delivery callback for a node's NI receive module."""
        self._handlers[node] = handler

    def install_cache_engines(
        self, factory: Callable[[SwitchId], Optional[CaesarEngine]]
    ) -> None:
        """Embed a cache engine in every switch (``factory`` may return
        None), list the engines in ``cache_engines``, and fill the hook
        table with the three switch hooks if any engine was embedded."""
        engines = self.cache_engines
        engines.clear()
        for sid, switch in self.switches.items():
            engine = factory(sid)
            switch.embed(engine)
            if engine is not None:
                engines.append(engine)
        hooks: List[Optional[HookFn]] = [None] * len(MsgKind)
        if engines:
            hooks[_INV.code] = self._snoop
            hooks[_DATA_S.code] = self._deposit
            hooks[_READ.code] = self._intercept
        self._hooks = hooks

    # ------------------------------------------------------------------
    # injection
    # ------------------------------------------------------------------
    def inject(self, msg: Message) -> None:
        """Send ``msg`` from its source node's NI into the network."""
        if msg.src == msg.dst:
            raise NetworkError("local messages must not enter the fabric")
        sim = self.sim
        if msg.created_at < 0:
            msg.created_at = sim.now
        hops = self._routes.get((msg.src, msg.dst))
        msg.hops = hops if hops is not None else self.route(msg.src, msg.dst)
        grant = self._inject_links[msg.src].reserve(
            msg.flits * self.cycles_per_flit
        )
        msg.injected_at = grant
        self.stats.msgs_injected += 1
        self.stats.flits_injected += msg.flits
        header_at_switch = grant + self.cycles_per_flit
        sim.call_at(header_at_switch, self._hop, msg, 0)

    # ------------------------------------------------------------------
    # per-hop processing
    # ------------------------------------------------------------------
    def _hop(self, msg: Message, hop: int) -> None:
        """A header at hop ``hop``: trace, run the switch hook, grant the
        output link, move on.

        The one per-hop callback.  The hook for the worm's kind may
        consume the worm (True), or rewrite it before the grant, as a
        fabric switch-cache hit turns its READ into a DIR_UPDATE.  The
        grant is the one inlined copy of :meth:`Timeline.reserve`'s
        arithmetic (held equal to it by ``TestGrantLockstep``), followed
        by :meth:`Simulator.call_at`'s push — same sequence number, same
        peak bookkeeping, same past-time check — straight onto the heap.
        Every switch and link shares the fabric-wide ``switch_delay`` and
        ``cycles_per_flit`` (see _build), so those load from self.
        """
        sim = self.sim
        now = sim.now
        hops = msg.hops
        tracer = self._tracer
        if tracer is not None:
            tracer.instant(
                hops[hop][0].trace_track, "hop", now,
                {"msg": msg.id, "kind": msg.kind.value, "addr": msg.addr},
            )
        hook = self._hooks[msg.kind.code]
        if hook is not None and hook(msg, hop):
            return
        link = hops[hop][1]
        cycles_per_flit = self.cycles_per_flit
        duration = msg.flits * cycles_per_flit
        request_at = now + self.switch_delay
        grant = link._free_at
        if grant < request_at:
            grant = request_at
        link._free_at = grant + duration
        link.reservations += 1
        link.queued_cycles += grant - request_at
        link.busy_cycles += duration
        hop += 1
        if hop == len(hops):
            time = grant + duration
            fn = self._deliver
            args = (msg,)
        else:
            time = grant + cycles_per_flit
            fn = self._hop
            args = (msg, hop)
        if time < now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now {now}"
            )
        sim._seq = seq = sim._seq + 1
        heap = sim._heap
        heappush(heap, (time, seq, fn, args))
        if len(heap) > sim._peak:
            sim._peak = len(heap)

    def _snoop(self, msg: Message, hop: int) -> bool:
        """An INV header: purge the block from the switch cache."""
        snoop = msg.hops[hop][0].snoop
        if snoop is not None:
            snoop(msg)
        return False

    def _deposit(self, msg: Message, hop: int) -> bool:
        """A DATA_S header: deposit the block in the switch cache."""
        deposit = msg.hops[hop][0].deposit
        if deposit is not None:
            deposit(msg)
        return False

    def _intercept(self, msg: Message, hop: int) -> bool:
        """A READ header: a switch-cache hit serves it here."""
        switch = msg.hops[hop][0]
        intercept = switch.intercept
        if intercept is not None:
            served = intercept(msg)
            if served is not None:
                return self._serve_from_switch(msg, switch, hop, *served)
        return False

    def _forward(self, msg: Message, hop: int, header_at: int) -> None:
        """Grant the hop's output link for a switch-served reply, whose
        header is ready at ``header_at`` mid-fabric.

        SanitizedFabric wraps this method to register the reply.
        """
        hops = msg.hops
        duration = msg.flits * self.cycles_per_flit
        grant = hops[hop][1].reserve(duration, header_at + self.switch_delay)
        next_hop = hop + 1
        call_at = self.sim.call_at
        if next_hop == len(hops):
            call_at(grant + duration, self._deliver, msg)
        else:
            call_at(grant + self.cycles_per_flit, self._hop, msg, next_hop)

    def _deliver(self, msg: Message) -> None:
        msg.delivered_at = self.sim.now
        self.stats.msgs_delivered += 1
        tracer = self._tracer
        if tracer is not None:
            self._trace_delivery(msg, tracer)
        handler = self._handlers[msg.dst]
        if handler is None:
            raise NetworkError(f"no NI handler attached for node {msg.dst}")
        handler(msg)

    def _trace_delivery(self, msg: Message, tracer: Tracer) -> None:
        """Record the delivered worm's leg span and its flow linkage."""
        kind = msg.kind
        track = f"ni{msg.src}"
        args = {
            "msg": msg.id, "addr": msg.addr, "src": msg.src, "dst": msg.dst,
            "flits": msg.flits,
        }
        txn = msg.transaction
        if txn is not None:
            args["txn"] = txn.id
        start = msg.created_at if msg.created_at >= 0 else msg.injected_at
        tracer.async_span(
            track, kind.value, "msg", msg.id, start, msg.delivered_at, args
        )
        if txn is not None:
            # flow arrows bind the request leg to its reply leg, across
            # whatever track the reply ends up on (home or a switch)
            if kind in _FLOW_REQUESTS:
                tracer.flow_start(track, "txn", txn.id, start)
            elif kind in _FLOW_REPLIES:
                tracer.flow_end(track, "txn", txn.id, msg.delivered_at)

    # ------------------------------------------------------------------
    # switch-cache service
    # ------------------------------------------------------------------
    def _serve_from_switch(
        self,
        msg: Message,
        switch: Switch,
        hop: int,
        data: int,
        ready_at: int,
    ) -> bool:
        """A READ hit in ``switch``'s cache: send the reply, and turn the
        READ into its directory update.

        Returns False: the update is the same worm, so it continues
        through :meth:`_hop`'s own grant, requested now.
        """
        reply = self._switch_reply(msg, switch, data)
        reply.injected_at = ready_at
        # the reply retraces the request's traversed prefix: by reversal
        # symmetry that is the tail of the home-to-requester route, from
        # the serving switch on
        hops = reply.hops = self.route(msg.dst, msg.src)
        self._forward(reply, len(hops) - 1 - hop, header_at=ready_at)
        # the request continues to the home as a 1-flit directory update;
        # it carries the version the switch served so the home can detect
        # staleness even after an intervening writer has written back
        msg.kind = MsgKind.DIR_UPDATE
        msg.flits = 1
        msg.data = data
        return False

    def _switch_reply(self, msg: Message, switch: Switch, data: int) -> Message:
        """Record a hit on READ ``msg`` at ``switch``; return its DATA_S.

        Shared by both network models.  The reply is created now; the
        caller routes it and sends the directory update on to the home.
        """
        now = self.sim.now
        tracer = self._tracer
        if tracer is not None:
            tracer.instant(
                switch.trace_track, "sc_hit", now,
                {"addr": msg.addr, "requester": msg.src,
                 "stage": switch.stage},
            )
            # an intercepted request never reaches _deliver, so its leg
            # span and flow arrow are recorded here: the leg truthfully
            # ends at the serving switch, not at the home
            txn = msg.transaction
            track = f"ni{msg.src}"
            start = msg.created_at if msg.created_at >= 0 else msg.injected_at
            args = {
                "msg": msg.id, "addr": msg.addr, "src": msg.src,
                "dst": msg.dst, "flits": msg.flits, "served_by": "switch",
            }
            if txn is not None:
                args["txn"] = txn.id
            tracer.async_span(
                track, msg.kind.value, "msg", msg.id, start, now, args,
            )
            if txn is not None and msg.kind in _FLOW_REQUESTS:
                tracer.flow_start(track, "txn", txn.id, start)
        reply = self.pool.make(
            MsgKind.DATA_S,
            src=msg.dst,  # protocol-wise the reply stands in for the home's
            dst=msg.src,
            addr=msg.addr,
            data=data,  # flits default to the pool's block, as for every DATA_S
            transaction=msg.transaction,
        )
        reply.proc = msg.proc
        reply.served_by = "switch"
        reply.served_switch = switch.id
        reply.created_at = now
        return reply

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def switch_cache_blocks(self) -> List[Tuple[SwitchId, int, int]]:
        """All (switch, block_addr, version) resident in switch caches."""
        return [
            (engine.switch_id, addr, line.data)
            for engine in self.cache_engines
            for addr, line in engine.array.resident_blocks()
        ]

    def utilization_by_stage(self) -> Dict[int, float]:
        """Mean output-link utilization per MIN stage (0..stages-1)."""
        sums: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        for sid, switch in self.switches.items():
            stage = sid[0]
            for link in switch.outputs().values():
                sums[stage] = sums.get(stage, 0.0) + link.utilization()
                counts[stage] = counts.get(stage, 0) + 1
        return {
            stage: sums[stage] / counts[stage]
            for stage in sorted(sums)
        }

    def hottest_links(self, top: int = 5):
        """The ``top`` busiest links as (switch, toward, grants, mean queue).

        A grant is one ``reserve`` of the link: one per worm on the
        fabric, one per flit on the flit reference.
        """
        rows = []
        for sid, switch in self.switches.items():
            for neighbor, link in switch.outputs().items():
                if link.reservations:
                    rows.append((
                        sid, neighbor, link.reservations,
                        link.mean_queueing_delay(),
                    ))
        rows.sort(key=lambda r: (-r[3], -r[2]))
        return rows[:top]

    def injection_queue_delay(self) -> float:
        """Mean NI injection queueing delay per injected worm (cycles).

        The injection links' pooled grant wait: weighted by worms, so a
        node that injects nothing does not dilute the mean.  An
        uncontended worm waits 0 cycles.
        """
        return pooled_queueing_delay(self._inject_links.values())
