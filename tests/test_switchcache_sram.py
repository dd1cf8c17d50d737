"""Unit tests for the CAESAR SRAM timing model (geometry, ports, banks).

The timing is checked where the machine applies it: the engine's fabric
hooks, which reserve the regular tag port and the addressed data bank.
"""

import pytest

from repro.core.caesar import TAG_CYCLES, CaesarEngine, data_cycles
from repro.errors import ConfigError
from repro.network.message import Message, MsgKind
from repro.sim.engine import Simulator
from repro.system.presets import caesar_plus_config, switch_cache_config


def make_engine(**kw):
    sim = Simulator()
    engine = CaesarEngine(sim, (1, 0), switch_cache_config(16, **kw))
    return sim, engine


def deposit(engine, addr, data=1):
    assert engine.try_deposit(Message(MsgKind.DATA_S, 15, 0, addr, 9, data=data))


def probe(engine, addr):
    return engine.try_intercept(Message(MsgKind.READ, 2, 15, addr, 1))


def snoop(engine, addr):
    engine.snoop(Message(MsgKind.INV, 15, 0, addr, 1))


class TestGeometry:
    def test_data_cycles_scale_with_width(self):
        assert data_cycles(64, 64) == 8
        assert data_cycles(64, 128) == 4
        assert data_cycles(64, 256) == 2

    def test_paper_example_32b_block_64b_width(self):
        # "a cache with 32-byte blocks and a width of 64 bits will provide
        # 64 of 256 bits in each cache cycle" -> 4 cycles per block
        assert data_cycles(32, 64) == 4
        # and the engine streams a 32-byte block in those 4 cycles
        _sim, engine = make_engine(size=1024, block_size=32)
        deposit(engine, 0x40)
        assert engine.data_ports[0].free_at() == TAG_CYCLES + 4

    @pytest.mark.parametrize("banks", [3, 5, 8])
    def test_bad_bank_counts_rejected(self, banks):
        with pytest.raises(ConfigError):
            switch_cache_config(16, banks=banks)

    def test_width_must_divide_block(self):
        with pytest.raises(ConfigError):
            switch_cache_config(16, block_size=64, width_bits=192)

    def test_bad_width_rejected(self):
        with pytest.raises(ConfigError):
            switch_cache_config(16, width_bits=60)

    def test_bank_selection_interleaves_blocks(self):
        # consecutive blocks alternate between the two banks
        _sim, engine = make_engine(banks=2, block_size=64)
        ports = engine.data_ports
        deposit(engine, 0)
        assert [p.reservations for p in ports] == [1, 0]
        deposit(engine, 64)
        assert [p.reservations for p in ports] == [1, 1]
        deposit(engine, 128)
        assert [p.reservations for p in ports] == [2, 1]

    def test_describe_names_design(self):
        assert "CAESAR+" in caesar_plus_config().label()
        assert "CAESAR+" not in switch_cache_config(banks=1).label()


class TestSramTiming:
    def test_miss_costs_tag_only(self):
        _sim, engine = make_engine()
        assert probe(engine, 0x40) is None
        assert engine.tag_port.free_at() == 1  # one tag cycle
        assert engine.data_ports[0].reservations == 0

    def test_hit_costs_tag_plus_stream(self):
        _sim, engine = make_engine(width_bits=64)
        deposit(engine, 0x40, data=5)
        # the deposit holds the tag port for cycle 0 and the data bank for
        # cycles 1-8; a read in the same cycle queues behind it on both
        data, ready = probe(engine, 0x40)
        assert data == 5
        assert ready == 9 + 8  # data bank free at 9, then 8 data cycles

    def test_wider_output_is_faster(self):
        _s1, narrow = make_engine(width_bits=64)
        _s2, wide = make_engine(width_bits=256)
        deposit(narrow, 0x40)
        deposit(wide, 0x40)
        _d1, done_narrow = probe(narrow, 0x40)
        _d2, done_wide = probe(wide, 0x40)
        assert done_wide < done_narrow

    def test_banked_requests_overlap(self):
        _sim, engine = make_engine(banks=2)
        deposit(engine, 0)      # bank 0
        deposit(engine, 64)     # bank 1
        # both deposits' data streams overlap: the second is not delayed
        # by a full block time relative to the first
        free0 = engine.data_ports[0].free_at()
        free1 = engine.data_ports[1].free_at()
        assert abs(free0 - free1) <= TAG_CYCLES

    def test_single_bank_requests_serialize(self):
        _sim, engine = make_engine(banks=1)
        deposit(engine, 0)
        deposit(engine, 64)
        # after the first tag cycle the bank streams both blocks back to back
        assert engine.data_ports[0].free_at() == (
            TAG_CYCLES + 2 * data_cycles(64, 64)
        )

    def test_snoop_uses_separate_port(self):
        _sim, engine = make_engine()
        deposit(engine, 0x40)
        tag = engine.tag_port
        before = (tag.free_at(), tag.reservations, tag.queued_cycles)
        snoop(engine, 0x40)
        assert engine.purges == 1
        # the purge took nothing from the regular tag port
        assert (tag.free_at(), tag.reservations, tag.queued_cycles) == before

    def test_backlog_reporting(self):
        sim, engine = make_engine()
        assert engine.tag_port.free_at() - sim.now == 0
        probe(engine, 0x40)
        assert engine.tag_port.free_at() - sim.now == 1
        deposit(engine, 0x80)
        assert engine.data_ports[0].free_at() - sim.now > 0

    def test_occupancy(self):
        _sim, engine = make_engine()
        deposit(engine, 0)
        deposit(engine, 64)
        assert engine.occupancy() == 2
