"""Tests for application-framework helpers and stats export."""

import json

from repro.apps.base import (
    BarrierSequencer,
    read_row,
    touch_every_block,
)
from repro.stats.counters import MachineStats
from repro.system.addressing import AddressSpace, Matrix


class TestBarrierSequencer:
    def test_monotonic_unique_ids(self):
        seq = BarrierSequencer("GE")
        ids = [seq.next() for _ in range(5)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 5

    def test_identical_construction_yields_identical_sequences(self):
        a = BarrierSequencer("GE")
        b = BarrierSequencer("GE")
        assert [a.next() for _ in range(4)] == [b.next() for _ in range(4)]

    def test_different_apps_do_not_collide(self):
        a = BarrierSequencer("GE")
        b = BarrierSequencer("FWA")
        a_ids = {a.next() for _ in range(10)}
        b_ids = {b.next() for _ in range(10)}
        assert not a_ids & b_ids


class TestOpGenerators:
    def test_read_row_covers_row(self):
        space = AddressSpace(4, 64)
        matrix = Matrix(space, 2, 4)
        ops = list(read_row(matrix, 1, 4))
        assert all(op[0] == "r" for op in ops)
        assert [op[1] for op in ops] == [matrix.addr(1, j) for j in range(4)]

    def test_touch_every_block(self):
        ops = list(touch_every_block(0x1000, 256, 64))
        assert [op[1] for op in ops] == [0x1000, 0x1040, 0x1080, 0x10C0]


class TestStatsExport:
    def test_to_dict_is_json_serializable(self):
        stats = MachineStats(4)
        stats.add_read_hits(0, 0, 1, 0)
        stats.record_finish(0, 10)
        stats.record_finish(1, 20)
        stats.record_finish(2, 20)
        stats.record_finish(3, 25)
        payload = stats.to_dict()
        text = json.dumps(payload)
        parsed = json.loads(text)
        assert parsed["exec_time"] == 25
        assert parsed["read_counts"]["l1"] == 1

    def test_to_dict_from_real_run(self):
        from repro.apps import GaussianElimination
        from repro.system.config import SystemConfig
        from repro.system.machine import Machine

        machine = Machine(SystemConfig(num_nodes=4, l1_size=1024,
                                       l2_size=4096, switch_cache_size=512))
        stats = machine.run(GaussianElimination(n=10))
        payload = stats.to_dict()
        assert payload["total_reads"] == stats.total_reads()
        assert payload["exec_time"] == stats.exec_time
        json.dumps(payload)  # must not raise
