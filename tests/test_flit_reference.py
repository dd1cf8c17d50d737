"""Validation of the message-level fabric against the flit-level reference.

DESIGN.md's wormhole substitution claims the message-granularity model
preserves latency pipelines and hot-spot behaviour.  These tests run the
same microbenchmark workloads on both models and check the claim:

* uncontended latencies agree within one hop's pipeline slack;
* distance ordering and serialization behaviour are identical;
* hot-spot completion times agree within a modest factor.
"""

import random

import pytest

from repro.core.caesar import CaesarEngine
from repro.network.fabric import Fabric
from repro.network.flitref import FlitNetwork
from repro.network.message import Message, MessagePool, MsgKind, flits_for
from repro.network.topology import BminTopology
from repro.sim.engine import Simulator
from repro.system.presets import switch_cache_config


def run_workload(model_cls, traffic, n=16):
    """Run [(src, dst, kind)] on a fresh network; returns delivered msgs."""
    sim = Simulator()
    network = model_cls(sim, BminTopology(n))
    delivered = []
    for node in range(n):
        network.attach_node(node, delivered.append)
    messages = []
    for src, dst, kind in traffic:
        msg = Message(kind, src, dst, 0x40, flits_for(kind, 64), data=0)
        messages.append(msg)
        network.inject(msg)
    sim.run()
    assert len(delivered) == len(traffic)
    return messages


def latency(msg):
    return msg.delivered_at - msg.created_at


class TestUncontendedAgreement:
    @pytest.mark.parametrize("dst", [1, 2, 5, 15])
    @pytest.mark.parametrize("kind", [MsgKind.READ, MsgKind.DATA_S])
    def test_single_message_latency_close(self, dst, kind):
        (fast,) = run_workload(Fabric, [(0, dst, kind)])
        (ref,) = run_workload(FlitNetwork, [(0, dst, kind)])
        hops = len(BminTopology(16).path(0, dst))
        # allow one pipeline-slack cycle set per hop plus a constant
        tolerance = 2 * hops + 10
        assert abs(latency(fast) - latency(ref)) <= tolerance, (
            f"fabric {latency(fast)} vs reference {latency(ref)}"
        )

    def test_distance_ordering_agrees(self):
        for model in (Fabric, FlitNetwork):
            msgs = run_workload(
                model,
                [(0, 1, MsgKind.DATA_S), (0, 5, MsgKind.DATA_S),
                 (0, 15, MsgKind.DATA_S)],
            )
            lats = [latency(m) for m in msgs]
            assert lats[0] < lats[1] < lats[2], (model.__name__, lats)

    def test_long_worms_cost_serialization_in_both(self):
        for model in (Fabric, FlitNetwork):
            short, long_ = run_workload(
                model, [(0, 15, MsgKind.READ), (0, 15, MsgKind.DATA_S)]
            )
            # the 9-flit worm pays at least 8 extra flit times
            assert latency(long_) >= latency(short) + 8 * 4 - 8, model


class TestContentionAgreement:
    def test_hotspot_completion_times_track(self):
        traffic = [(src, 0, MsgKind.DATA_S) for src in range(1, 16)]
        fast = run_workload(Fabric, traffic)
        ref = run_workload(FlitNetwork, traffic)
        fast_done = max(m.delivered_at for m in fast)
        ref_done = max(m.delivered_at for m in ref)
        # the ejection link's serialization dominates in both models:
        # 15 worms x 36 cycles ~ 540; agreement within 40 %
        assert fast_done <= ref_done  # the reference adds backpressure
        assert ref_done <= 1.4 * fast_done, (fast_done, ref_done)

    def test_hotspot_throughput_bound_respected_in_both(self):
        traffic = [(src, 0, MsgKind.DATA_S) for src in range(1, 16)]
        floor = 15 * 9 * 4  # worms x flits x cycles/flit on the last link
        for model in (Fabric, FlitNetwork):
            msgs = run_workload(model, traffic)
            done = max(m.delivered_at for m in msgs)
            assert done >= floor * 0.9, (model.__name__, done)

    def test_same_path_fifo_in_reference(self):
        sim = Simulator()
        network = FlitNetwork(sim, BminTopology(16))
        delivered = []
        for node in range(16):
            network.attach_node(node, delivered.append)
        sent = []
        for i in range(6):
            msg = Message(MsgKind.DATA_S, 3, 12, i * 64,
                          flits_for(MsgKind.DATA_S, 64), data=0)
            sent.append(msg)
            network.inject(msg)
        sim.run()
        assert delivered == sent


class TestReferenceMechanics:
    def test_backpressure_limits_buffered_flits(self):
        """At no instant may a VC hold more than its depth."""
        sim = Simulator()
        network = FlitNetwork(sim, BminTopology(4), vc_depth=4)
        for node in range(4):
            network.attach_node(node, lambda m: None)
        for src in (1, 2, 3):
            for i in range(3):
                network.inject(
                    Message(MsgKind.DATA_S, src, 0, i * 64,
                            flits_for(MsgKind.DATA_S, 64), data=0)
                )
        overfull = []

        def check():
            for channel in network.channels.values():
                for vc in channel.vcs:
                    if len(vc) > network.vc_depth:
                        overfull.append(len(vc))
            if network.stats.msgs_delivered < 9:
                sim.call(1, check)

        sim.call(1, check)
        sim.run()
        assert network.stats.msgs_delivered == 9
        assert overfull == []

    def test_reference_rejects_local_messages(self):
        from repro.errors import NetworkError

        sim = Simulator()
        network = FlitNetwork(sim, BminTopology(4))
        with pytest.raises(NetworkError):
            network.inject(Message(MsgKind.READ, 1, 1, 0, 1))


class TestSwitchReplyLength:
    @pytest.mark.parametrize("model_cls", (Fabric, FlitNetwork),
                             ids=("fabric", "flit"))
    def test_switch_reply_carries_the_pool_block(self, model_cls):
        # 32-byte blocks: a switch-served reply to a READ that carries no
        # transaction is as long as the DATA_S that deposited the block
        sim = Simulator()
        network = model_cls(sim, BminTopology(16), pool=MessagePool(32))
        inbox = {node: [] for node in range(16)}
        for node in range(16):
            network.attach_node(node, inbox[node].append)
        network.install_cache_engines(
            lambda sid: CaesarEngine(
                sim, sid, switch_cache_config(16, block_size=32)
            )
        )
        data_flits = flits_for(MsgKind.DATA_S, 32)
        assert data_flits == 5
        network.inject(Message(MsgKind.DATA_S, 15, 0, 0x40, data_flits, data=7))
        sim.run()
        network.inject(Message(MsgKind.READ, 1, 15, 0x40, 1))
        sim.run()
        assert network.stats.switch_hits == 1
        reply, = [m for m in inbox[1] if m.kind is MsgKind.DATA_S]
        assert reply.served_by == "switch"
        assert reply.flits == data_flits


class TestSwitchHitContinuation:
    def test_flit_hit_consumes_the_read_where_the_fabric_rewrites_it(self):
        # the same hit on both models: the fabric's _serve_from_switch
        # turns the READ into its DIR_UPDATE, which continues through
        # _hop; the flit override consumes the READ at the serving
        # switch and sends a freshly drawn DIR_UPDATE on to the home
        homes = {}
        for model_cls in (Fabric, FlitNetwork):
            sim = Simulator()
            network = model_cls(sim, BminTopology(16))
            inbox = {node: [] for node in range(16)}
            for node in range(16):
                network.attach_node(node, inbox[node].append)
            network.install_cache_engines(
                lambda sid, sim=sim: CaesarEngine(
                    sim, sid, switch_cache_config(16)
                )
            )
            network.inject(Message(MsgKind.DATA_S, 15, 0, 0x40, 9, data=7))
            sim.run()
            read = Message(MsgKind.READ, 1, 15, 0x40, 1)
            network.inject(read)
            sim.run()
            assert network.stats.switch_hits == 1
            update, = inbox[15]
            assert update.kind is MsgKind.DIR_UPDATE
            assert update.data == 7
            homes[model_cls] = (read, update)
        read, update = homes[Fabric]
        assert update is read
        read, update = homes[FlitNetwork]
        assert update is not read
        assert read.kind is MsgKind.READ and read.delivered_at == -1


class TestInjectionAccounting:
    @pytest.mark.parametrize("model_cls", (Fabric, FlitNetwork),
                             ids=("fabric", "flit"))
    def test_switch_worms_are_not_ni_injections(self, model_cls):
        # one switch hit: the reply and the DIR_UPDATE enter mid-network,
        # so both models count the two NI injections only
        sim = Simulator()
        network = model_cls(sim, BminTopology(16))
        for node in range(16):
            network.attach_node(node, lambda msg: None)
        network.install_cache_engines(
            lambda sid: CaesarEngine(sim, sid, switch_cache_config(16))
        )
        fill = Message(MsgKind.DATA_S, 15, 0, 0x40, 9, data=7)
        network.inject(fill)
        sim.run()
        read = Message(MsgKind.READ, 1, 15, 0x40, 1)
        network.inject(read)
        sim.run()
        stats = network.stats
        assert stats.switch_hits == 1
        assert (stats.msgs_injected, stats.flits_injected) == (2, 10)
        assert stats.msgs_delivered == 3
        if model_cls is FlitNetwork:
            # the reply's wait for the SRAM stream is no NI queueing
            waits = [m.injected_at - m.created_at for m in (fill, read)]
            assert network.injection_queue_delay() == sum(waits) / 2

    @pytest.mark.parametrize("model_cls", (Fabric, FlitNetwork),
                             ids=("fabric", "flit"))
    def test_injection_delay_is_a_mean_over_worms(self, model_cls):
        # node 0 injects two back-to-back worms and nodes 1-3 stay idle:
        # the second waits out the first's flits, and the mean is over the
        # two worms; idle nodes must not dilute it
        sim = Simulator()
        network = model_cls(sim, BminTopology(4))
        for node in range(4):
            network.attach_node(node, lambda msg: None)
        flits = flits_for(MsgKind.DATA_S, 64)
        worms = [Message(MsgKind.DATA_S, 0, 3, 0x40, flits, data=0)
                 for _ in range(2)]
        for msg in worms:
            network.inject(msg)
        sim.run()
        waits = [m.injected_at - m.created_at for m in worms]
        # the pump moves a header one cycle after inject at the earliest
        assert waits == ([1, 37] if model_cls is FlitNetwork else [0, 36])
        assert waits[1] - waits[0] == flits * network.cycles_per_flit
        assert network.injection_queue_delay() == sum(waits) / 2


def link_busy_cycles(network):
    """Busy cycles per link, keyed by (switch or node, toward)."""
    busy = {
        (sid, toward): link.busy_cycles
        for sid, switch in network.switches.items()
        for toward, link in switch.outputs().items()
    }
    for node, link in network._inject_links.items():
        busy[(node, network.topo.node_switch(node))] = link.busy_cycles
    return busy


class TestSharedLinks:
    """Both models carry their worms on the same Switch links."""

    def test_random_traffic_busies_every_link_alike(self):
        rng = random.Random(7)
        traffic = []
        for _ in range(400):
            src, dst = rng.sample(range(16), 2)
            kind = rng.choice((MsgKind.READ, MsgKind.DATA_S, MsgKind.INV))
            traffic.append((rng.randrange(2000), src, dst, kind))
        busy = []
        for model_cls in (Fabric, FlitNetwork):
            sim = Simulator()
            network = model_cls(sim, BminTopology(16))
            for node in range(16):
                network.attach_node(node, lambda msg: None)
            for at, src, dst, kind in traffic:
                msg = Message(kind, src, dst, 0x40, flits_for(kind, 64),
                              data=0)
                sim.call_at(at, network.inject, msg)
            sim.run()
            assert network.stats.msgs_delivered == len(traffic)
            busy.append(link_busy_cycles(network))
        assert len(busy[0]) == 128
        assert busy[0] == busy[1]
        assert sum(busy[0].values()) > 0

    def test_switch_hit_worms_busy_the_same_links(self):
        # a fill, then a READ that hits: the reply and the DIR_UPDATE
        # cross the same links for the same cycles on both models
        busy = []
        for model_cls in (Fabric, FlitNetwork):
            sim = Simulator()
            network = model_cls(sim, BminTopology(16))
            for node in range(16):
                network.attach_node(node, lambda msg: None)
            network.install_cache_engines(
                lambda sid: CaesarEngine(sim, sid, switch_cache_config(16))
            )
            network.inject(Message(MsgKind.DATA_S, 15, 0, 0x40, 9, data=7))
            sim.run()
            network.inject(Message(MsgKind.READ, 1, 15, 0x40, 1))
            sim.run()
            assert network.stats.switch_hits == 1
            assert network.stats.msgs_delivered == 3
            busy.append(link_busy_cycles(network))
        assert busy[0] == busy[1]

    def test_link_reports_run_on_a_flit_machine(self):
        from repro.apps import GaussianElimination
        from repro.system.config import SystemConfig
        from repro.system.machine import Machine

        machine = Machine(SystemConfig(num_nodes=4, l1_size=1024,
                                       l2_size=4096, network_model="flit"))
        machine.run(GaussianElimination(n=12))
        fabric = machine.fabric
        by_stage = fabric.utilization_by_stage()
        assert set(by_stage) == {0, 1}
        assert all(0 < u <= 1 for u in by_stage.values())
        hot = fabric.hottest_links(top=3)
        assert len(hot) == 3
        # a grant is one flit: the wait sits in the VC buffers, not on
        # the links
        assert [queue for *_rest, queue in hot] == [0.0, 0.0, 0.0]
        assert [flits for _s, _t, flits, _q in hot] == sorted(
            (flits for _s, _t, flits, _q in hot), reverse=True
        )


class TestFlitPacing:
    def test_body_flits_spaced_by_link_rate(self):
        """Flits cross each link at one per cycles_per_flit."""
        sim = Simulator()
        network = FlitNetwork(sim, BminTopology(4))
        delivered = []
        for node in range(4):
            network.attach_node(node, delivered.append)
        msg = Message(MsgKind.DATA_S, 0, 3, 0x40,
                      flits_for(MsgKind.DATA_S, 64), data=0)
        network.inject(msg)
        sim.run()
        assert delivered == [msg]
        # 9 flits at 4 cycles each on the final link alone
        assert msg.delivered_at - msg.injected_at >= 9 * 4

    def test_channel_arrival_accounting(self):
        sim = Simulator()
        network = FlitNetwork(sim, BminTopology(4))
        for node in range(4):
            network.attach_node(node, lambda m: None)
        msg = Message(MsgKind.DATA_S, 0, 3, 0x40,
                      flits_for(MsgKind.DATA_S, 64), data=0)
        network.inject(msg)
        sim.run()
        # injection + one link per switch; each flit is one link grant
        links = len(BminTopology(4).path(0, 3)) + 1
        total_flit_moves = sum(
            link.reservations for link in network.channels
        )
        assert total_flit_moves == msg.flits * links

    def test_two_vcs_interleave_independent_worms(self):
        sim = Simulator()
        network = FlitNetwork(sim, BminTopology(4), vc_count=2)
        delivered = []
        for node in range(4):
            network.attach_node(node, delivered.append)
        worms = []
        for i in range(2):
            msg = Message(MsgKind.DATA_S, 0, 3, i * 64,
                          flits_for(MsgKind.DATA_S, 64), data=0)
            worms.append(msg)
            network.inject(msg)
        sim.run()
        assert len(delivered) == 2


class TestEndToEndFlitMode:
    """The flit network can drive full machine runs (base configs)."""

    def _run(self, model, app_factory, **extra):
        from repro.system.config import SystemConfig
        from repro.system.machine import Machine

        cfg = SystemConfig(num_nodes=4, l1_size=1024, l2_size=4096,
                           network_model=model, **extra)
        machine = Machine(cfg)
        stats = machine.run(app_factory())
        return machine, stats

    def test_ge_execution_times_agree(self):
        from repro.apps import GaussianElimination

        factory = lambda: GaussianElimination(n=12)
        _m1, fast = self._run("message", factory)
        m2, ref = self._run("flit", factory)
        assert ref.reads_at_remote_memory() == fast.reads_at_remote_memory()
        assert abs(ref.exec_time - fast.exec_time) <= 0.05 * fast.exec_time
        assert m2.check_coherence() == []

    def test_hot_block_agrees(self):
        from repro.apps import HotBlock

        factory = lambda: HotBlock(rounds=4)
        _m1, fast = self._run("message", factory)
        m2, ref = self._run("flit", factory)
        assert abs(ref.exec_time - fast.exec_time) <= 0.10 * fast.exec_time
        assert m2.check_coherence() == []

    def test_flit_mode_accepts_switch_caches(self):
        from repro.system.config import SystemConfig
        from repro.system.machine import Machine

        machine = Machine(SystemConfig(num_nodes=4, network_model="flit",
                                       switch_cache_size=512))
        engines = machine.fabric.cache_engines
        assert len(engines) == 4  # 2 stages x 2 rows
        assert all(e is not None for e in engines)

    def test_bad_network_model_rejected(self):
        from repro.errors import ConfigError
        from repro.system.config import SystemConfig

        with pytest.raises(ConfigError):
            SystemConfig(network_model="packets")

    def test_netcache_works_under_flit_mode(self):
        from repro.apps import GaussianElimination

        m, stats = self._run("flit", lambda: GaussianElimination(n=10),
                             netcache_size=4096)
        assert stats.exec_time > 0
        assert m.check_coherence() == []


class TestFlitModeSwitchCaches:
    """The paper's contribution validated at flit fidelity."""

    def _run(self, model):
        from repro.apps import GaussianElimination
        from repro.system.config import SystemConfig
        from repro.system.machine import Machine

        cfg = SystemConfig(num_nodes=4, l1_size=1024, l2_size=4096,
                           switch_cache_size=1024, network_model=model,
                           trace_values=True)
        machine = Machine(cfg)
        stats = machine.run(GaussianElimination(n=12))
        return machine, stats

    def test_switch_hit_counts_identical_across_models(self):
        _m1, fast = self._run("message")
        _m2, ref = self._run("flit")
        assert ref.read_counts["switch"] == fast.read_counts["switch"]
        assert ref.reads_at_remote_memory() == fast.reads_at_remote_memory()

    def test_exec_times_agree_with_switch_caches(self):
        _m1, fast = self._run("message")
        _m2, ref = self._run("flit")
        assert abs(ref.exec_time - fast.exec_time) <= 0.05 * fast.exec_time

    def test_flit_mode_switch_caches_coherent(self):
        from conftest import assert_coherent, assert_monotonic_reads

        machine, _stats = self._run("flit")
        assert_coherent(machine)
        assert_monotonic_reads(machine)

    def test_dir_updates_reach_home_in_flit_mode(self):
        machine, stats = self._run("flit")
        updates = sum(n.home_ctrl.dir_updates for n in machine.nodes)
        assert updates == stats.read_counts["switch"]

    def test_hot_block_race_sweep_flit_mode(self):
        """The corrective-invalidation machinery holds under flit timing."""
        from conftest import ScriptedApp, assert_coherent
        from repro.system.config import SystemConfig
        from repro.system.machine import Machine

        for padding in (0, 60, 120, 180):
            app = ScriptedApp(
                {
                    1: [("r", ("blk", 0)), ("barrier", 1)],
                    2: [("barrier", 1), ("w", ("blk", 0))],
                    3: [("barrier", 1), ("work", padding),
                        ("r", ("blk", 0))],
                    0: [("barrier", 1)],
                },
                blocks=1, home=0,
            )
            machine = Machine(SystemConfig(
                num_nodes=4, l1_size=1024, l2_size=4096,
                switch_cache_size=1024, network_model="flit",
                trace_values=True,
            ))
            machine.run(app)
            assert_coherent(machine)
