"""Unit tests for the CAESAR cache engine (fabric hooks + policy)."""

import random

import pytest

from repro.apps import GaussianElimination
from repro.core.caesar import TAG_CYCLES, CaesarEngine, data_cycles
from repro.network.message import Message, MsgKind
from repro.network.switch import Switch
from repro.sim.engine import Simulator
from repro.sim.resource import Timeline
from repro.system.machine import Machine
from repro.system.presets import switch_cache_config


def make_engine(sim=None, **config_kw):
    """A stage-1 engine of a 16-node machine with 2 KB switch caches."""
    sim = sim if sim is not None else Simulator()
    return CaesarEngine(sim, (1, 0), switch_cache_config(16, **config_kw))


def run_with_caching_stage(stage, network_model):
    """The engines of a 4-node GE run that caches at ``stage`` only."""
    machine = Machine(switch_cache_config(
        4, size=1024, stages={stage}, network_model=network_model,
    ))
    machine.run(GaussianElimination(n=12))
    return machine.fabric.cache_engines


def reply(addr, data=1):
    return Message(MsgKind.DATA_S, 15, 0, addr, 9, data=data)


def read(addr, src=2):
    return Message(MsgKind.READ, src, 15, addr, 1)


def inv(addr):
    return Message(MsgKind.INV, 15, 0, addr, 1)


class TestDeposit:
    def test_deposit_stores_block(self):
        engine = make_engine()
        assert engine.try_deposit(reply(0x40, data=9))
        assert engine.deposits == 1
        line = engine.array.probe(0x40)
        assert line is not None and line.data == 9

    def test_deposit_skipped_when_bank_backed_up(self):
        engine = make_engine(switch_cache_deposit_threshold=0)
        engine.try_deposit(reply(0x40))
        # the first deposit occupied the data bank; the next must skip
        assert not engine.try_deposit(reply(0x80))
        assert engine.deposit_skips == 1

    def test_deposit_disabled_stage(self):
        # engine is at stage 1 which is excluded: its switch binds no
        # deposit hook, so no DATA_S reaches the engine
        switch = Switch(Simulator(), (1, 0))
        switch.embed(make_engine(stages={0, 2, 3}))
        assert switch.deposit is None
        for network_model in ("message", "flit"):
            engines = run_with_caching_stage(0, network_model)
            assert [e.deposits for e in engines if e.stage == 1] == [0, 0]
            assert all(e.deposits for e in engines if e.stage == 0)


class TestIntercept:
    def test_miss_returns_none(self):
        engine = make_engine()
        assert engine.try_intercept(read(0x40)) is None
        assert engine.misses == 1

    def test_hit_returns_data_and_ready_time(self):
        sim = Simulator()
        engine = make_engine(sim)
        engine.try_deposit(reply(0x40, data=3))
        sim.now += 100  # let the ports drain
        served = engine.try_intercept(read(0x40))
        assert served is not None
        data, ready = served
        assert data == 3
        # tag (1 cycle) + data stream (8 cycles at 64-bit width)
        assert ready == sim.now + 1 + 8

    def test_bypass_when_tag_port_congested(self):
        sim = Simulator()
        engine = make_engine(sim, switch_cache_bypass_threshold=0)
        engine.try_deposit(reply(0x40))
        # deposit reserved the tag port; a read arriving in the same cycle
        # sees backlog > 0 and bypasses rather than queueing
        assert engine.try_intercept(read(0x40)) is None
        assert engine.bypasses == 1
        assert engine.lookups == 0

    def test_disabled_stage_never_intercepts(self):
        # the engine's stage 1 lies outside the caching stages: its
        # switch binds no intercept hook, but keeps the snoop
        switch = Switch(Simulator(), (1, 0))
        switch.embed(make_engine(stages={0}))
        assert switch.intercept is None and switch.snoop is not None
        for network_model in ("message", "flit"):
            engines = run_with_caching_stage(0, network_model)
            assert [e.lookups for e in engines if e.stage == 1] == [0, 0]
            assert all(e.hits for e in engines if e.stage == 0)


class TestSnoop:
    def test_snoop_purges_matching_block(self):
        engine = make_engine()
        engine.try_deposit(reply(0x40))
        engine.snoop(inv(0x40))
        assert engine.purges == 1
        assert engine.array.probe(0x40) is None

    def test_snoop_miss_harmless(self):
        engine = make_engine()
        engine.snoop(inv(0x80))
        assert engine.snoops == 1
        assert engine.purges == 0

    def test_snoop_never_skipped_even_when_busy(self):
        sim = Simulator()
        engine = make_engine(sim, switch_cache_bypass_threshold=0,
                             switch_cache_deposit_threshold=0)
        engine.try_deposit(reply(0x40))
        # ports are busy, yet the snoop must still purge (correctness)
        engine.snoop(inv(0x40))
        assert engine.array.probe(0x40) is None

    def test_snooped_block_no_longer_served(self):
        sim = Simulator()
        engine = make_engine(sim)
        engine.try_deposit(reply(0x40, data=5))
        engine.snoop(inv(0x40))
        sim.now += 100
        assert engine.try_intercept(read(0x40)) is None


class TestStats:
    def test_hit_rate(self):
        sim = Simulator()
        engine = make_engine(sim)
        engine.try_deposit(reply(0x40))
        sim.now += 100
        engine.try_intercept(read(0x40))
        sim.now += 100
        engine.try_intercept(read(0x999940))
        assert engine.hit_rate() == 0.5

    def test_hit_rate_empty(self):
        assert make_engine().hit_rate() == 0.0


class TestPolicy:
    def test_defaults_enable_all_stages(self):
        config = switch_cache_config(16)
        for stage in range(4):
            assert CaesarEngine(Simulator(), (stage, 0), config).enabled

    def test_should_check_threshold(self):
        # each miss holds the tag port one cycle; a read probes while the
        # backlog is at most the threshold and bypasses once it exceeds it
        engine = make_engine(switch_cache_bypass_threshold=4)
        for _ in range(4):
            assert engine.try_intercept(read(0x40)) is None
        assert engine.tag_port.free_at() == 4  # backlog exactly 4
        engine.try_intercept(read(0x40))
        assert (engine.lookups, engine.bypasses) == (5, 0)
        engine.try_intercept(read(0x40))  # backlog 5
        assert (engine.lookups, engine.bypasses) == (5, 1)

    def test_should_deposit_threshold(self):
        sim = Simulator()
        engine = make_engine(sim, switch_cache_deposit_threshold=16)
        engine.try_deposit(reply(0x40))
        engine.try_deposit(reply(0x80))
        bank = engine.data_ports[0]
        assert bank.free_at() == 17  # tag cycle + two 8-cycle streams
        assert not engine.try_deposit(reply(0xC0))  # backlog 17
        assert engine.deposit_skips == 1
        assert bank.free_at() == 17  # a skipped deposit reserves nothing
        sim.now = 1
        assert engine.try_deposit(reply(0xC0))  # backlog exactly 16
        assert engine.deposits == 3

    def test_stage_filter(self):
        config = switch_cache_config(16, stages={2, 3})
        assert not CaesarEngine(Simulator(), (0, 0), config).enabled
        assert CaesarEngine(Simulator(), (3, 0), config).enabled


class TestGrantLockstep:
    """Fuzz the hooks against a reference engine built from the ports.

    A reference built from ``Timeline.reserve`` calls (a tag grant,
    then, for a deposit or a hit, a data-bank grant no earlier than the
    tag's end) must see the same ready times, bypasses, skips and port
    counters as the hooks over the same fuzzed stream.
    """

    @staticmethod
    def _counters(port):
        return port._free_at, port.reservations, port.queued_cycles

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("banks", (1, 2))
    def test_hooks_match_timeline_reserve(self, seed, banks):
        rng = random.Random(seed)
        sim = Simulator()
        config = switch_cache_config(
            16, size=512, banks=banks, width_bits=rng.choice((64, 128)),
            switch_cache_bypass_threshold=rng.randrange(0, 3),
            switch_cache_deposit_threshold=rng.randrange(0, 20),
        )
        engine = CaesarEngine(sim, (1, 0), config)
        stream = data_cycles(64, config.switch_cache_width_bits)
        tag = Timeline(sim)
        data = [Timeline(sim) for _ in range(banks)]
        for _ in range(200):
            # mostly same-cycle bursts, so the tag port backs up too
            sim.now += rng.choice((0, 0, 1, 3))
            addr = rng.randrange(16) * 64
            bank = data[(addr // 64) % banks]
            kind = rng.choice(("deposit", "read", "inv"))
            if kind == "deposit":
                threshold = config.switch_cache_deposit_threshold
                want = bank.free_at() - sim.now <= threshold
                if want:
                    tag_done = tag.reserve(TAG_CYCLES) + TAG_CYCLES
                    bank.reserve(stream, earliest=tag_done)
                assert engine.try_deposit(reply(addr)) == want
            elif kind == "read":
                threshold = config.switch_cache_bypass_threshold
                checked = tag.free_at() - sim.now <= threshold
                want = None
                if checked:
                    tag_done = tag.reserve(TAG_CYCLES) + TAG_CYCLES
                    line = engine.array.probe(addr)  # no LRU side effect
                    if line is not None:
                        start = bank.reserve(stream, earliest=tag_done)
                        want = (line.data, start + stream)
                assert engine.try_intercept(read(addr)) == want
            else:
                engine.snoop(inv(addr))
                assert engine.array.probe(addr) is None
            assert self._counters(engine.tag_port) == self._counters(tag)
            assert [self._counters(p) for p in engine.data_ports] == [
                self._counters(p) for p in data
            ]
