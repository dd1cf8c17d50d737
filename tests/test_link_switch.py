"""Unit tests for links and the crossbar switch timing model (per-hop grants).

A link is a :class:`~repro.sim.resource.Timeline` (its FIFO grant
arithmetic is tested in ``test_resource.py``); these tests pin what the
network adds on top: a worm of ``flits`` flits holds its link for
``flits * cycles_per_flit`` cycles, and the fabric's inlined hop grant
stays in lockstep with ``Timeline.reserve``.
"""

import random

import pytest

from repro.errors import NetworkError
from repro.network.fabric import Fabric
from repro.network.message import Message, MsgKind
from repro.network.switch import Switch
from repro.network.topology import BminTopology
from repro.sim.engine import Simulator
from repro.sim.resource import Timeline


def routed(switch):
    """(grants, flits) over ``switch``'s output links: the links' own
    ``reservations``, and ``busy_cycles`` at 4 cycles per flit."""
    links = switch.outputs().values()
    return (
        sum(link.reservations for link in links),
        sum(link.busy_cycles for link in links) // 4,
    )


class TestLink:
    """The switch's output links, driven as the fabric drives them."""

    CYCLES_PER_FLIT = 4

    @staticmethod
    def _link():
        switch = Switch(Simulator(), (0, 0))
        return switch, switch.add_output(1)

    def _send(self, link, flits, earliest=None):
        """Reserve ``link`` for a worm; returns (grant, tail_done)."""
        duration = flits * self.CYCLES_PER_FLIT
        grant = link.reserve(duration, earliest)
        return grant, grant + duration

    def test_serialization_time(self):
        _switch, link = self._link()
        assert isinstance(link, Timeline)
        assert self._send(link, flits=9, earliest=0) == (0, 36)

    def test_fifo_grants(self):
        _switch, link = self._link()
        assert self._send(link, 2, earliest=0) == (0, 8)
        assert self._send(link, 2, earliest=0) == (8, 16)

    def test_earliest_respected(self):
        _switch, link = self._link()
        grant, _tail = self._send(link, 1, earliest=100)
        assert grant == 100

    def test_stats(self):
        switch, link = self._link()
        self._send(link, 3, earliest=0)
        self._send(link, 2, earliest=0)
        assert (link.reservations, link.busy_cycles) == (2, 20)
        assert routed(switch) == (2, 5)
        link.sim.now = 40
        assert link.utilization() == 0.5


class TestSwitch:
    """A worm crossing a switch: the fabric's hop grants the output link.

    On the 4-node BMIN, nodes 0 and 1 share stage-0 switch (0, 0), whose
    outputs are the two ejection ports and two links up to stage 1.
    """

    @staticmethod
    def _fabric():
        sim = Simulator()
        return Fabric(sim, BminTopology(4), switch_delay=4, cycles_per_flit=4)

    @staticmethod
    def _cross(fabric, src, dst, flits, header_at):
        """Hop 0 of a ``src -> dst`` worm whose header is at the switch at
        ``header_at``; returns the (time, callback) it schedules next."""
        sim = fabric.sim
        sim.now = header_at
        msg = Message(MsgKind.DATA_X, src, dst, 0x40, flits)
        msg.hops = fabric.route(src, dst)
        fabric._hop(msg, 0)
        (time, _seq, fn, _args), = sim._heap
        sim._heap.clear()
        return time, fn

    def test_add_and_get_output(self):
        sim = Simulator()
        sw = Switch(sim, (1, 0))
        link = sw.add_output((2, 0))
        assert sw.output_to((2, 0)) is link
        assert sw.outputs() == {(2, 0): link}

    def test_duplicate_output_rejected(self):
        sim = Simulator()
        sw = Switch(sim, (1, 0))
        sw.add_output((2, 0))
        with pytest.raises(NetworkError):
            sw.add_output((2, 0))

    def test_missing_output_raises(self):
        sim = Simulator()
        sw = Switch(sim, (1, 0))
        with pytest.raises(NetworkError):
            sw.output_to((9, 9))

    def test_forward_timing_uncontended(self):
        fabric = self._fabric()
        link = fabric.route(0, 2)[0][1]  # up toward stage 1
        time, fn = self._cross(fabric, 0, 2, 9, header_at=100)
        # arbitration+crossbar = 4 cycles, then the header takes one flit
        # time to cross; the tail clears after 9 flit times
        assert (time, fn) == (108, fabric._hop)
        assert link._free_at == 104 + 36

    def test_forward_contention_serializes(self):
        fabric = self._fabric()
        t1, _fn = self._cross(fabric, 0, 1, 9, header_at=0)
        t2, _fn = self._cross(fabric, 0, 1, 9, header_at=0)
        # the second worm waits for the first to clear the link
        assert t2 - 36 == t1

    def test_forward_different_outputs_independent(self):
        fabric = self._fabric()
        t1, _fn = self._cross(fabric, 0, 1, 9, header_at=0)
        t2, _fn = self._cross(fabric, 1, 0, 9, header_at=0)
        assert t1 == t2 == 4 + 36

    def test_stats_accumulate(self):
        fabric = self._fabric()
        self._cross(fabric, 0, 1, 9, header_at=0)
        self._cross(fabric, 0, 1, 1, header_at=0)
        assert routed(fabric.switches[(0, 0)]) == (2, 10)

    def test_node_port_output(self):
        fabric = self._fabric()
        sw, link = fabric.route(0, 1)[-1]
        assert link is sw.output_to(1)  # the ejection port to node 1
        time, fn = self._cross(fabric, 0, 1, 9, header_at=10)
        assert (time, fn) == (14 + 36, fabric._deliver)


class TestGrantLockstep:
    """Grant arithmetic lives in a hand-inlined copy besides Timeline.reserve.

    ``Fabric._hop`` inlines the reservation for the per-hop path, the one
    callback every worm takes at every hop.
    These property tests drive fuzzed (flits, earliest, free_at) streams
    through a real fabric route and through reference ``Timeline.reserve``
    calls with the same tuples, asserting identical (grant, tail_done)
    timing and identical link counters — so the copy cannot drift
    apart silently.  Each stream also runs through the SCSan overlay
    (a plain ``Simulator`` + ``SanitizedFabric``), whose ``inject``,
    ``_forward`` and ``_deliver`` overrides must leave the grant timing
    untouched, and through switch-cache engines, whose hooked kinds
    must too.
    """

    SWITCH_DELAY = 4
    CYCLES_PER_FLIT = 4

    def _reference(self, worms, eject_busy_until=0):
        """Chained Timeline.reserve over the same (flits, inject_at) stream.

        ``free_at`` on the ejection link is fuzzed two ways: an initial
        planted occupancy (``eject_busy_until``) and, for every later
        worm, the accumulated occupancy left by its predecessors — the
        same contended values the fabric's inlined copies see.
        """
        sim = Simulator()
        inj = Timeline(sim)
        ej = Timeline(sim)
        ej._free_at = eject_busy_until
        timings = []
        for flits, inject_at in worms:
            duration = flits * self.CYCLES_PER_FLIT
            g_inj = inj.reserve(duration, earliest=inject_at)
            header_at = g_inj + self.CYCLES_PER_FLIT
            grant = ej.reserve(
                duration, earliest=header_at + self.SWITCH_DELAY
            )
            timings.append((g_inj, grant, grant + duration))
        return timings, self._counters(inj), self._counters(ej)

    @staticmethod
    def _counters(link):
        return (
            link._free_at, link.queued_cycles, link.reservations,
            link.busy_cycles, link.mean_queueing_delay(),
        )

    def _fabric_run(self, worms, sanitize="off", eject_busy_until=0,
                    caches=False):
        """The same stream through a real single-switch fabric route.

        With ``caches`` the switches embed CAESAR engines and the worms
        cycle through the hooked kinds (deposit, snoop, a missing READ)
        and a plain one, so each switch hook takes its turn.
        """
        from repro.core.caesar import CaesarEngine
        from repro.system.presets import switch_cache_config
        from repro.verify.sanitize import SanitizedFabric, Sanitizer

        sim = Simulator()
        if sanitize == "on":
            fabric = SanitizedFabric(Sanitizer(), sim, BminTopology(4))
        else:
            fabric = Fabric(sim, BminTopology(4))
        for node in range(4):
            fabric.attach_node(node, lambda m: None)
        kinds = [MsgKind.READ]
        if caches:
            fabric.install_cache_engines(
                lambda sid: CaesarEngine(sim, sid, switch_cache_config(4))
            )
            kinds = [MsgKind.DATA_S, MsgKind.INV, MsgKind.READ,
                     MsgKind.DATA_X]
        eject = fabric.route(0, 1)[-1][1]
        eject._free_at = eject_busy_until
        msgs = []
        for i, (flits, inject_at) in enumerate(worms):
            kind = kinds[i % len(kinds)]
            # the READs ask for a block no DATA_S deposits: all miss
            addr = 0x1000 if kind is MsgKind.READ and caches else 0x40
            msg = Message(kind, 0, 1, addr, flits, data=1)
            msgs.append(msg)
            sim.call_at(inject_at, fabric.inject, msg)
        sim.run()
        if sanitize == "on":
            assert not fabric.in_flight()
        inj = fabric._inject_links[0]
        return (
            [(m.injected_at, m.delivered_at - m.flits * self.CYCLES_PER_FLIT,
              m.delivered_at) for m in msgs],
            self._counters(inj),
            self._counters(eject),
        )

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("sanitize", ("off", "on"))
    def test_fabric_inline_matches_link_reserve(self, seed, sanitize):
        rng = random.Random(seed)
        when = 0
        worms = []
        for _ in range(30):
            # bursty gaps: frequent overlap keeps the ejection link
            # contended, so the grant > request_at (queued worm) branch
            # and the idle grant == request_at branch both run
            when += rng.randrange(0, 40)
            worms.append((rng.randrange(1, 12), when))
        busy = rng.randrange(0, 64)  # planted initial occupancy
        want_timing, want_inj, want_ej = self._reference(worms, busy)
        got_timing, got_inj, got_ej = self._fabric_run(worms, sanitize, busy)
        assert got_timing == want_timing
        assert got_inj == want_inj
        assert got_ej == want_ej

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("sanitize", ("off", "on"))
    def test_hooked_hops_match_link_reserve(self, seed, sanitize):
        rng = random.Random(100 + seed)
        when = 0
        worms = []
        for _ in range(30):
            when += rng.randrange(0, 40)
            worms.append((rng.randrange(1, 12), when))
        busy = rng.randrange(0, 64)
        want = self._reference(worms, busy)
        assert self._fabric_run(worms, sanitize, busy, caches=True) == want

    def test_shared_grant_matches_link_reserve(self):
        # Fabric._hop itself, against Timeline.reserve, over fuzzed fabric
        # timing, link backlog, clock and hop position: same grant, same
        # counters, and one heap entry carrying the next callback
        rng = random.Random(2024)
        for _ in range(300):
            sim = Simulator()
            cycles_per_flit = rng.randrange(1, 6)
            fabric = Fabric(sim, BminTopology(16),
                            switch_delay=rng.randrange(0, 6),
                            cycles_per_flit=cycles_per_flit)
            msg = Message(MsgKind.DATA_X, 0, 15, 0x40, rng.randrange(1, 12))
            msg.hops = fabric.route(0, 15)
            hop = rng.randrange(len(msg.hops))
            link = msg.hops[hop][1]
            link._free_at = rng.randrange(0, 80)
            sim.now = rng.randrange(0, 80)
            ref = Timeline(sim)
            ref._free_at = link._free_at
            duration = msg.flits * cycles_per_flit
            grant = ref.reserve(
                duration, earliest=sim.now + fabric.switch_delay
            )
            tail = grant + duration
            fabric._hop(msg, hop)
            (time, seq, fn, args), = sim._heap
            if hop + 1 == len(msg.hops):
                assert (time, fn, args) == (tail, fabric._deliver, (msg,))
            else:
                assert (time, fn, args) == (
                    grant + cycles_per_flit, fabric._hop, (msg, hop + 1)
                )
            assert (seq, sim.peak_pending) == (1, 1)
            assert self._counters(link) == self._counters(ref)

    def test_back_to_back_worms_chain_identically(self):
        # all injected at cycle 0: the inject link serializes them and the
        # ejection link sees strictly ordered, contended requests
        worms = [(f, 0) for f in (1, 9, 2, 9, 1, 5)]
        want = self._reference(worms)
        for sanitize in ("off", "on"):
            assert self._fabric_run(worms, sanitize) == want
