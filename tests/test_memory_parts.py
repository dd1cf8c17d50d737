"""Unit tests for the memory module, NI, and network cache."""

import pytest

from repro.errors import SimulationError
from repro.memory.dram import MemoryModule
from repro.memory.netcache import NetworkCache
from repro.memory.nic import NetworkInterface
from repro.network.message import Message, MsgKind
from repro.sim.engine import Simulator


class TestMemoryModule:
    def test_uncontended_latency_exceeds_50(self):
        sim = Simulator()
        mem = MemoryModule(sim, 0, access_cycles=40, bus_cycles=6)
        assert mem.uncontended_latency == 52
        start, done = mem.read()
        assert start == 6
        assert done == 52

    def test_queueing_under_bulk_arrivals(self):
        sim = Simulator()
        mem = MemoryModule(sim, 0)
        dones = [mem.read()[1] for _ in range(4)]
        # strictly increasing completion: the array is a serial resource
        assert dones == sorted(dones)
        assert dones[3] - dones[0] == 3 * 40
        assert mem.mean_queueing_delay() > 0

    def test_read_write_counters(self):
        sim = Simulator()
        mem = MemoryModule(sim, 0)
        mem.read()
        mem.write()
        mem.write()
        assert mem.reads == 1
        assert mem.writes == 2


class TestNetworkInterface:
    def test_local_delivery_bypasses_fabric(self):
        sim = Simulator()
        ni = NetworkInterface(sim, 2, fabric=None, local_delay=3)
        received = []
        ni.attach(received.append)
        msg = Message(MsgKind.READ, 2, 2, 0x40, 1)
        ni.send(msg)
        sim.run()
        assert received == [msg]
        assert msg.delivered_at == 3

    def test_remote_without_fabric_raises(self):
        sim = Simulator()
        ni = NetworkInterface(sim, 2, fabric=None)
        ni.attach(lambda m: None)
        with pytest.raises(SimulationError):
            ni.send(Message(MsgKind.READ, 2, 5, 0x40, 1))

    def test_wrong_source_rejected(self):
        sim = Simulator()
        ni = NetworkInterface(sim, 2, fabric=None)
        with pytest.raises(SimulationError):
            ni.send(Message(MsgKind.READ, 3, 2, 0x40, 1))

    def test_deferred_send(self):
        sim = Simulator()
        ni = NetworkInterface(sim, 2, fabric=None, local_delay=1)
        received = []
        ni.attach(lambda m: received.append(sim.now))
        ni.send(Message(MsgKind.READ, 2, 2, 0x40, 1), at=100)
        sim.run()
        assert received == [101]

    def test_unattached_dispatch_raises(self):
        sim = Simulator()
        ni = NetworkInterface(sim, 2, fabric=None)
        ni.send(Message(MsgKind.READ, 2, 2, 0x40, 1))
        with pytest.raises(SimulationError):
            sim.run()


class TestNetworkCache:
    def test_miss_then_fill_then_hit(self):
        sim = Simulator()
        nc = NetworkCache(sim, 0, size=4096, access_cycles=12)
        data, done = nc.lookup(0x40)
        assert data is None
        assert done == 12
        nc.fill(0x40, 9)
        sim.now += 50
        data, _done = nc.lookup(0x40)
        assert data == 9
        assert nc.hit_rate() == 0.5

    def test_lookup_occupies_port(self):
        sim = Simulator()
        nc = NetworkCache(sim, 0, access_cycles=12)
        _d1, done1 = nc.lookup(0x40)
        _d2, done2 = nc.lookup(0x80)
        assert done2 == done1 + 12

    def test_invalidate(self):
        sim = Simulator()
        nc = NetworkCache(sim, 0)
        nc.fill(0x40, 1)
        nc.invalidate(0x40)
        assert nc.inv_purges == 1
        data, _done = nc.lookup(0x40)
        assert data is None

    def test_invalidate_absent_not_counted(self):
        sim = Simulator()
        nc = NetworkCache(sim, 0)
        nc.invalidate(0x40)
        assert nc.inv_purges == 0

    def test_capacity_eviction(self):
        sim = Simulator()
        nc = NetworkCache(sim, 0, size=256, block_size=64, assoc=1)
        for block in range(8):
            nc.fill(block * 64, block)
        assert nc.array.occupancy() <= 4
