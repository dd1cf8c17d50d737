"""Tests for the BMIN fabric: timing, tracing, and CAESAR integration."""

import pytest

from repro.core.caesar import CaesarEngine
from repro.errors import NetworkError
from repro.network.fabric import Fabric
from repro.network.flitref import FlitNetwork
from repro.network.message import Message, MsgKind, flits_for
from repro.network.topology import BminTopology
from repro.sim.engine import Simulator
from repro.system.machine import Machine
from repro.system.presets import switch_cache_config
from repro.trace import Tracer
from repro.verify.sanitize import SanitizedFabric, Sanitizer


def make_fabric(
    n=16, with_caches=False, traced=False, sanitized=False, model=Fabric,
):
    sim = Simulator()
    # the fabric reads the tracer once, at construction, as in a Machine
    sim.tracer = Tracer() if traced else None
    if sanitized:
        fabric = SanitizedFabric(Sanitizer(), sim, BminTopology(n))
    else:
        fabric = model(sim, BminTopology(n))
    inbox = {node: [] for node in range(n)}
    for node in range(n):
        fabric.attach_node(node, lambda m, nid=node: inbox[nid].append(m))
    if with_caches:
        fabric.install_cache_engines(
            lambda sid: CaesarEngine(sim, sid, switch_cache_config(n))
        )
    return sim, fabric, inbox


def traced_route(fabric, msg):
    """The switch ids of the ``hop`` instants traced for ``msg``."""
    by_track = {sw.trace_track: sid for sid, sw in fabric.switches.items()}
    return [
        by_track[event["track"]]
        for event in fabric.sim.tracer.events_named("hop")
        if event["args"]["msg"] == msg.id
    ]


def send(fabric, kind, src, dst, addr=0x40, data=None, block=64):
    msg = Message(kind, src, dst, addr, flits_for(kind, block), data=data)
    fabric.inject(msg)
    return msg


class TestBasicDelivery:
    def test_message_delivered_to_destination(self):
        sim, fabric, inbox = make_fabric()
        msg = send(fabric, MsgKind.READ, 0, 15)
        sim.run()
        assert inbox[15] == [msg]
        assert fabric.stats.msgs_delivered == 1

    def test_local_injection_rejected(self):
        _sim, fabric, _inbox = make_fabric()
        with pytest.raises(NetworkError):
            send(fabric, MsgKind.READ, 3, 3)

    def test_trace_matches_topology_path(self):
        sim, fabric, _inbox = make_fabric(traced=True)
        msg = send(fabric, MsgKind.READ, 2, 13)
        sim.run()
        assert traced_route(fabric, msg) == fabric.topo.path(2, 13)
        assert [sw.id for sw, _ in msg.hops] == fabric.topo.path(2, 13)

    def test_flit_trace_records_the_fabric_route(self):
        routes = {}
        for model in (Fabric, FlitNetwork):
            sim, fabric, _inbox = make_fabric(traced=True, model=model)
            msg = send(fabric, MsgKind.READ, 0, 15)
            sim.run()
            routes[model] = traced_route(fabric, msg)
        assert routes[Fabric] == fabric.topo.path(0, 15)
        assert len(routes[Fabric]) == 7
        assert routes[FlitNetwork] == routes[Fabric]

    def test_uncontended_latency_formula(self):
        sim, fabric, _inbox = make_fabric()
        msg = send(fabric, MsgKind.READ, 0, 1)  # single switch
        sim.run()
        # inject link (1 flit = 4 cyc serialization, header enters switch at
        # 4), switch delay 4, ejection link 1 flit: tail at 8+4 = 12
        assert msg.injected_at == 0
        assert msg.delivered_at == 12

    def test_longer_path_costs_more(self):
        sim, fabric, _inbox = make_fabric()
        near = send(fabric, MsgKind.READ, 0, 1)
        far = send(fabric, MsgKind.READ, 0, 15)
        sim.run()
        assert far.delivered_at > near.delivered_at

    def test_data_message_serialization_dominates(self):
        sim, fabric, _inbox = make_fabric()
        msg = send(fabric, MsgKind.DATA_S, 0, 1, data=1)
        sim.run()
        # 9 flits * 4 cycles on the ejection link alone
        assert msg.delivered_at >= 9 * 4

    def test_missing_handler_raises(self):
        sim = Simulator()
        fabric = Fabric(sim, BminTopology(4))
        send(fabric, MsgKind.READ, 0, 3)
        with pytest.raises(NetworkError):
            sim.run()

    def test_fifo_same_path(self):
        sim, fabric, inbox = make_fabric()
        first = send(fabric, MsgKind.DATA_S, 0, 15, data=1)
        second = send(fabric, MsgKind.READ, 0, 15)
        sim.run()
        assert inbox[15] == [first, second]


class TestSwitchCacheIntegration:
    def test_deposit_then_intercept(self):
        sim, fabric, inbox = make_fabric(with_caches=True)
        # a DATA_S reply from node 15 (acting as home) to node 0 passes
        # through switches and deposits its block
        send(fabric, MsgKind.DATA_S, 15, 0, addr=0x40, data=7)
        sim.run()
        assert fabric.stats.switch_hits == 0
        deposited = fabric.switch_cache_blocks()
        assert any(addr == 0x40 and v == 7 for _sid, addr, v in deposited)
        # a READ for the same block from node 1 toward home 15 now hits
        request = send(fabric, MsgKind.READ, 1, 15, addr=0x40)
        sim.run()
        assert fabric.stats.switch_hits == 1
        # node 1 received a fabricated DATA_S with the deposited payload
        replies = [m for m in inbox[1] if m.kind is MsgKind.DATA_S]
        assert len(replies) == 1
        assert replies[0].data == 7
        assert replies[0].served_by == "switch"
        # the original request arrived at the home as a DIR_UPDATE
        updates = [m for m in inbox[15] if m.kind is MsgKind.DIR_UPDATE]
        assert updates == [request]
        assert request.src == 1

    def test_inv_purges_deposited_copies(self):
        sim, fabric, inbox = make_fabric(with_caches=True)
        send(fabric, MsgKind.DATA_S, 15, 0, addr=0x40, data=7)
        sim.run()
        assert fabric.switch_cache_blocks()
        # the home invalidates sharer 0: the INV walks the same path
        send(fabric, MsgKind.INV, 15, 0, addr=0x40)
        sim.run()
        assert fabric.switch_cache_blocks() == []
        # a later read misses everywhere and reaches the home intact
        request = send(fabric, MsgKind.READ, 1, 15, addr=0x40)
        sim.run()
        assert request.kind is MsgKind.READ
        assert request in inbox[15]

    def test_reply_from_switch_deposits_downstream(self):
        sim, fabric, _inbox = make_fabric(with_caches=True)
        send(fabric, MsgKind.DATA_S, 15, 0, addr=0x40, data=7)
        sim.run()
        deposited = {sid for sid, _a, _v in fabric.switch_cache_blocks()}
        # pick a requester whose path to the home joins the deposited tree
        # only after several hops, so the fabricated reply has a tail of
        # switches to walk back through (node 5 for the 16-node butterfly)
        requester = 5
        path = fabric.topo.path(requester, 15)
        first_common = next(i for i, sid in enumerate(path) if sid in deposited)
        assert first_common > 0
        before = len(fabric.switch_cache_blocks())
        send(fabric, MsgKind.READ, requester, 15, addr=0x40)
        sim.run()
        # the reply retraced the request and deposited at every switch of
        # the traversed prefix
        after = len(fabric.switch_cache_blocks())
        assert after == before + first_common

    def test_data_x_never_deposited(self):
        sim, fabric, _inbox = make_fabric(with_caches=True)
        send(fabric, MsgKind.DATA_X, 15, 0, addr=0x40, data=7)
        sim.run()
        assert fabric.switch_cache_blocks() == []

    def test_dir_update_flit_shrink(self):
        sim, fabric, _inbox = make_fabric(with_caches=True)
        send(fabric, MsgKind.DATA_S, 15, 0, addr=0x40, data=7)
        sim.run()
        request = send(fabric, MsgKind.READ, 1, 15, addr=0x40)
        sim.run()
        assert request.kind is MsgKind.DIR_UPDATE
        assert request.flits == 1

    def test_stage_attribution(self):
        sim, fabric, inbox = make_fabric(with_caches=True)
        send(fabric, MsgKind.DATA_S, 15, 0, addr=0x40, data=7)
        sim.run()
        send(fabric, MsgKind.READ, 1, 15, addr=0x40)
        sim.run()
        assert fabric.stats.switch_hits == 1
        reply, = [m for m in inbox[1] if m.served_by]
        stage = reply.served_switch[0]
        assert 0 <= stage < fabric.topo.stages
        # the one hit is counted once, by the serving switch's engine
        hits = {e.switch_id: e.hits for e in fabric.cache_engines if e.hits}
        assert hits == {reply.served_switch: 1}

    def test_intercept_only_for_reads(self):
        sim, fabric, inbox = make_fabric(with_caches=True)
        send(fabric, MsgKind.DATA_S, 15, 0, addr=0x40, data=7)
        sim.run()
        readx = send(fabric, MsgKind.READX, 1, 15, addr=0x40)
        sim.run()
        assert readx.kind is MsgKind.READX  # not converted
        assert readx in inbox[15]
        assert fabric.stats.switch_hits == 0


class TestRouteResolution:
    """Routes are resolved on first use; switch replies ride the mirror."""

    @staticmethod
    def _same_objects(got, want):
        return len(got) == len(want) and all(
            g_sw is w_sw and g_link is w_link
            for (g_sw, g_link), (w_sw, w_link) in zip(got, want)
        )

    @pytest.mark.parametrize("n", (2, 4, 8, 16, 32, 64))
    def test_mirrored_suffix_is_the_retraced_prefix(self, n):
        # a READ intercepted at hop ``hop`` of path(src, dst) is answered
        # along the tail of route(dst, src) from len - 1 - hop: the same
        # (switch, link) objects as resolving the reversed prefix directly
        fabric = Fabric(Simulator(), BminTopology(n))
        for src in range(n):
            for dst in range(n):
                if src == dst:
                    continue
                path = fabric.topo.path(src, dst)
                mirror = fabric.route(dst, src)
                assert len(mirror) == len(path)
                for hop in range(len(path)):
                    want = fabric._resolve(path[hop::-1], src)
                    got = mirror[len(mirror) - 1 - hop:]
                    assert self._same_objects(got, want), (src, dst, hop)

    def test_traced_switch_reply_walks_the_mirrored_suffix(self):
        sim, fabric, inbox = make_fabric(with_caches=True, traced=True)
        send(fabric, MsgKind.DATA_S, 15, 0, addr=0x40, data=7)
        sim.run()
        read = send(fabric, MsgKind.READ, 5, 15, addr=0x40)
        sim.run()
        reply, = [m for m in inbox[5] if m.served_by]
        path = fabric.topo.path(5, 15)
        hop = path.index(reply.served_switch)
        assert hop > 0  # the reply has switches to walk back through
        # the READ is served at path[hop] and continues to the home as a
        # DIR_UPDATE under the same id; the fabricated reply enters at
        # the serving switch, so its traced hops start one switch back
        assert traced_route(fabric, read) == path
        hit, = sim.tracer.events_named("sc_hit")
        assert hit["args"]["requester"] == 5
        assert hit["track"] == fabric.switches[path[hop]].trace_track
        mirror = fabric.route(15, 5)
        assert reply.hops is mirror
        suffix = mirror[len(mirror) - 1 - hop:]
        walked = [path[hop]] + traced_route(fabric, reply)
        assert walked == [sw.id for sw, _ in suffix]
        assert walked == path[hop::-1]

    def test_fresh_fabric_and_machine_resolve_nothing(self):
        _sim, fabric, _inbox = make_fabric(with_caches=True)
        assert fabric._routes == {}
        machine = Machine(switch_cache_config(16), sanitize=False)
        assert machine.fabric._routes == {}

    def test_one_inject_resolves_one_pair(self):
        sim, fabric, _inbox = make_fabric()
        msg = send(fabric, MsgKind.READ, 2, 13)
        assert list(fabric._routes) == [(2, 13)]
        sim.run()
        assert list(fabric._routes) == [(2, 13)]
        assert msg.hops is fabric.route(2, 13)

    def test_worms_on_one_pair_share_one_hop_tuple(self):
        sim, fabric, _inbox = make_fabric()
        a = send(fabric, MsgKind.READ, 2, 13)
        b = send(fabric, MsgKind.DATA_S, 2, 13, data=1)
        sim.run()
        assert a.hops is b.hops
        assert len(fabric._routes) == 1


class TestInjectionQueueing:
    def test_injection_link_serializes(self):
        sim, fabric, _inbox = make_fabric()
        a = send(fabric, MsgKind.DATA_S, 0, 15, data=1)
        b = send(fabric, MsgKind.DATA_S, 0, 15, data=2)
        sim.run()
        assert b.injected_at >= a.injected_at + a.flits * 4

    def test_injection_queue_delay_stat(self):
        sim, fabric, _inbox = make_fabric()
        for _ in range(4):
            send(fabric, MsgKind.DATA_S, 0, 15, data=1)
        sim.run()
        assert fabric.injection_queue_delay() > 0


class TestHopHandlers:
    """Every worm takes the one hop callback, ``Fabric._hop``; the switch
    hook it runs comes from the fabric's by-kind table."""

    #: the hooked kinds when switch caches are embedded
    HOOKED = {
        MsgKind.INV: "_snoop",
        MsgKind.DATA_S: "_deposit",
        MsgKind.READ: "_intercept",
    }

    @pytest.mark.parametrize("caches", (False, True), ids=("plain", "caches"))
    @pytest.mark.parametrize("network", ("fabric", "sanitized", "flit"))
    def test_hook_table_holds_the_hooked_kinds(self, network, caches):
        sim = Simulator()
        topo = BminTopology(16)
        if network == "sanitized":
            fabric = SanitizedFabric(Sanitizer(), sim, topo)
        elif network == "flit":
            fabric = FlitNetwork(sim, topo)
        else:
            fabric = Fabric(sim, topo)
        if caches:
            fabric.install_cache_engines(
                lambda sid: CaesarEngine(sim, sid, switch_cache_config(16))
            )
        want = {
            kind.code: getattr(fabric, name)
            for kind, name in self.HOOKED.items()
        } if caches else {}
        assert fabric._hooks == [want.get(kind.code) for kind in MsgKind]

    @pytest.mark.parametrize(
        "mode", ("plain", "caches", "traced", "sanitized")
    )
    @pytest.mark.parametrize("kind", list(MsgKind), ids=lambda k: k.name)
    def test_inject_schedules_the_kind_handler(self, mode, kind):
        # the one hop callback for every kind: with or without switch
        # caches, a tracer or SCSan
        sim, fabric, _inbox = make_fabric(
            with_caches=mode != "plain", traced=mode == "traced",
            sanitized=mode == "sanitized",
        )
        msg = send(fabric, kind, 2, 13)
        (_time, _seq, fn, args), = sim._heap
        assert fn == fabric._hop and args == (msg, 0)

    def test_switch_hit_continues_the_read_as_its_dir_update(self):
        # a DATA_S from 8 to 15 leaves the block at (2, 4) and no switch
        # on node 0's side; node 0's READ to 15 misses at (1, 0), (2, 0)
        # and (3, 0) and hits at (2, 4), mid-route
        sim, fabric, inbox = make_fabric()
        fabric.install_cache_engines(
            lambda sid: CaesarEngine(
                sim, sid, switch_cache_config(16, stages={1, 2, 3}),
            )
        )
        send(fabric, MsgKind.DATA_S, 8, 15, addr=0x80, data=3)
        sim.run()
        before = {
            sid: sw.cache_engine.deposits
            for sid, sw in fabric.switches.items() if sw.cache_engine
        }
        read = send(fabric, MsgKind.READ, 0, 15, addr=0x80)
        sim.run()
        # the READ itself reaches the home, as its DIR_UPDATE
        assert read.kind is MsgKind.DIR_UPDATE and read in inbox[15]
        assert read.data == 3
        reply, = inbox[0]
        assert reply.served_switch == (2, 4)
        # the reply deposits at each caching stage left on its way down
        deposited = {
            sid for sid, count in before.items()
            if fabric.switches[sid].cache_engine.deposits > count
        }
        assert deposited == {(3, 0), (2, 0), (1, 0)}

    def test_caching_stages_only_get_deposit_and_intercept(self):
        sim = Simulator()
        fabric = Fabric(sim, BminTopology(16))
        fabric.install_cache_engines(
            lambda sid: None if sid[0] == 3 else CaesarEngine(
                sim, sid, switch_cache_config(16, stages={1}),
            )
        )
        for (stage, _row), switch in fabric.switches.items():
            engine = switch.cache_engine
            assert (engine is None) == (stage == 3)
            assert (switch.snoop is None) == (stage == 3)
            caches = stage == 1
            assert (switch.deposit is not None) == caches
            assert (switch.intercept is not None) == caches

    @pytest.mark.parametrize("first", (MsgKind.DATA_S, MsgKind.DATA_X))
    def test_same_cycle_contention_grants_in_scheduling_order(self, first):
        # a DATA_S worm (deposit hook) and a DATA_X worm (no hook)
        # from nodes 0 and 1 request the stage-0 switch's up
        # link in the same cycle: the one scheduled first is granted
        # first, the other queues for its 9-flit serialization
        sim, fabric, _inbox = make_fabric(with_caches=True)
        second = MsgKind.DATA_X if first is MsgKind.DATA_S else MsgKind.DATA_S
        a = send(fabric, first, 0, 15, data=1)
        b = send(fabric, second, 1, 15, data=1)
        sim.run()
        assert (a.delivered_at, b.delivered_at) == (92, 128)
        up = fabric.route(0, 15)[0][1]
        assert up is fabric.route(1, 15)[0][1]
        assert (up.queued_cycles, up.reservations) == (36, 2)
        assert sum(
            link.queued_cycles
            for switch in fabric.switches.values()
            for link in switch.outputs().values()
        ) == 36
