"""Tests for SystemConfig validation and the canonical presets."""

import pytest

from repro.errors import ConfigError
from repro.system.config import KB, SystemConfig
from repro.system.machine import Machine
from repro.system.presets import (
    base_config,
    caesar_plus_config,
    netcache_config,
    switch_cache_config,
)


class TestValidation:
    def test_defaults_match_paper_table2(self):
        cfg = SystemConfig()
        assert cfg.num_nodes == 16
        assert cfg.l1_size == 16 * KB
        assert cfg.l2_size == 128 * KB
        assert cfg.memory_access_cycles == 40
        assert cfg.memory_access_cycles + 2 * cfg.memory_bus_cycles > 50
        assert cfg.switch_delay == 4
        assert cfg.cycles_per_flit == 4
        assert cfg.write_buffer_entries == 8

    @pytest.mark.parametrize("n", [0, 1, 3, 6])
    def test_bad_node_counts(self, n):
        with pytest.raises(ConfigError):
            SystemConfig(num_nodes=n)

    def test_block_must_be_flit_multiple(self):
        with pytest.raises(ConfigError):
            SystemConfig(block_size=20)

    @pytest.mark.parametrize("block", [24, 48, 96])
    def test_block_must_be_power_of_two(self, block):
        # a flit multiple that is not a power of two used to construct,
        # then fail inside Machine's cache arrays
        with pytest.raises(ConfigError, match="power of two"):
            SystemConfig(num_nodes=4, block_size=block)

    def test_negative_cache_sizes_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(switch_cache_size=-1)
        with pytest.raises(ConfigError):
            SystemConfig(netcache_size=-1)

    # each of these used to construct and then fail only inside
    # Machine's cache arrays
    @pytest.mark.parametrize("overrides, match", [
        ({"switch_cache_size": 1000}, "switch_cache size 1000"),
        ({"switch_cache_size": 2048, "switch_cache_assoc": 3},
         "switch_cache size 2048"),
        ({"switch_cache_size": 2048, "switch_cache_assoc": 0},
         "switch_cache assoc"),
        ({"netcache_size": 1000}, "netcache size 1000"),
        ({"l1_size": 1000}, "l1 size 1000"),
        ({"l2_size": 96 * KB}, "l2 set count 384"),
    ], ids=["sc-size", "sc-assoc3", "sc-assoc0", "nc-size", "l1-size",
            "l2-sets"])
    def test_unbuildable_cache_geometry_rejected(self, overrides, match):
        with pytest.raises(ConfigError, match=match):
            SystemConfig(num_nodes=4, **overrides)

    def test_quantum_positive(self):
        with pytest.raises(ConfigError):
            SystemConfig(quantum=0)

    # each of these used to construct and then hang, silently simulate
    # a free network, die mid-run in the event engine, or deadlock
    @pytest.mark.parametrize("field, value", [
        ("l1_hit_cycles", -1),
        ("l2_hit_cycles", -1),
        ("l2_write_cycles", -1),
        ("memory_access_cycles", -1),
        ("memory_bus_cycles", -1),
        ("local_bus_cycles", -1),
        ("netcache_access_cycles", -1),
        ("barrier_wakeup_cycles", -1),
        ("lock_handoff_cycles", -1),
        ("switch_delay", -1),
        ("cycles_per_flit", 0),
        ("write_buffer_entries", 0),
    ])
    def test_bad_timing_rejected_at_construction(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SystemConfig(**{field: value})

    # each of these used to construct and then fail inside Machine (a
    # bank count or width) or run with a threshold no engine can meet
    @pytest.mark.parametrize("field, value", [
        ("switch_cache_banks", 3),
        ("switch_cache_width_bits", 48),
        ("switch_cache_width_bits", 60),
        ("switch_cache_bypass_threshold", -1),
        ("switch_cache_deposit_threshold", -1),
    ])
    def test_bad_caesar_organization_rejected_at_construction(
        self, field, value
    ):
        with pytest.raises(ConfigError, match=field):
            SystemConfig(switch_cache_size=2048, **{field: value})

    def test_caesar_fields_unchecked_without_switch_caches(self):
        # no engine (and no network cache) is built, so neither's
        # organization or geometry is checked
        assert SystemConfig(switch_cache_banks=3).label() == "base"
        assert SystemConfig(
            switch_cache_assoc=3, netcache_assoc=0
        ).label() == "base"

    def test_zero_latencies_allowed(self):
        cfg = SystemConfig(l1_hit_cycles=0, switch_delay=0, cycles_per_flit=1,
                           write_buffer_entries=1)
        assert cfg.switch_delay == 0

    @pytest.mark.parametrize("kwargs", [
        {"switch_delay": -1}, {"cycles_per_flit": 0},
    ])
    def test_standalone_fabric_rejects_bad_timing(self, kwargs):
        from repro.network.fabric import Fabric
        from repro.network.topology import BminTopology
        from repro.sim.engine import Simulator

        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            Fabric(Simulator(), BminTopology(4), **kwargs)

    def test_replaced_creates_modified_copy(self):
        cfg = SystemConfig()
        other = cfg.replaced(switch_cache_size=512)
        assert other.switch_cache_size == 512
        assert cfg.switch_cache_size == 0


class TestPresets:
    def test_base_has_no_extra_caches(self):
        cfg = base_config()
        assert not cfg.switch_caches_enabled
        assert not cfg.netcache_enabled
        assert cfg.label() == "base"

    def test_netcache_preset(self):
        cfg = netcache_config()
        assert cfg.netcache_enabled
        assert cfg.label().startswith("NC-")

    def test_switch_cache_preset(self):
        cfg = switch_cache_config(size=512)
        assert cfg.switch_caches_enabled
        assert cfg.switch_cache_size == 512
        assert "CAESAR-512B" in cfg.label()

    def test_caesar_plus_preset(self):
        cfg = caesar_plus_config()
        assert cfg.switch_cache_banks == 2
        assert "CAESAR+" in cfg.label()

    def test_presets_accept_overrides(self):
        cfg = switch_cache_config(size=1024, num_nodes=4, quantum=50)
        assert cfg.num_nodes == 4
        assert cfg.quantum == 50

    def test_stage_restriction_passthrough(self):
        cfg = switch_cache_config(stages={2, 3})
        assert cfg.switch_cache_stages == {2, 3}

    @pytest.mark.parametrize("stages", [{7}, {-1}, set()],
                             ids=["out-of-range", "negative", "empty"])
    def test_stage_set_outside_the_bmin_rejected(self, stages):
        # an 8-node BMIN has stages 0..2; any other set leaves every
        # switch cache idle while label() still reports SC-CAESAR
        with pytest.raises(ConfigError, match=r"stages 0\.\.2"):
            switch_cache_config(8).replaced(switch_cache_stages=stages)

    @pytest.mark.parametrize("stage", range(4))
    def test_single_stage_sets_build(self, stage):
        # experiment A1 caches at one stage at a time on 16 nodes
        cfg = switch_cache_config(16, stages={stage})
        assert Machine(cfg, sanitize=False).topology.stages == 4
