"""Unit tests for the wire-level message model."""

import pytest

from repro.core.caesar import CaesarEngine
from repro.network.fabric import Fabric
from repro.network.message import (
    CARRIES_DATA,
    FLIT_BYTES,
    FORWARD_LANE,
    REPLY_LANE,
    REQUEST_LANE,
    Message,
    MsgKind,
    flits_for,
)
from repro.network.topology import BminTopology
from repro.sim.engine import Simulator
from repro.system.presets import switch_cache_config


def kinds_hooked_by(hook_name):
    """The kinds a switch-cache fabric runs switch hook ``hook_name``
    for: the fabric's by-kind hook table declares which kinds deposit,
    are intercepted or snoop."""
    sim = Simulator()
    fabric = Fabric(sim, BminTopology(4))
    fabric.install_cache_engines(
        lambda sid: CaesarEngine(sim, sid, switch_cache_config(4))
    )
    hook = getattr(fabric, hook_name)
    return {kind for kind in MsgKind if fabric._hooks[kind.code] == hook}


class TestKinds:
    def test_data_kinds_carry_data(self):
        assert CARRIES_DATA[MsgKind.DATA_S.code]
        assert CARRIES_DATA[MsgKind.DATA_X.code]
        assert CARRIES_DATA[MsgKind.RECALL_REPLY.code]
        assert CARRIES_DATA[MsgKind.WRITEBACK.code]

    def test_control_kinds_do_not_carry_data(self):
        for kind in (MsgKind.READ, MsgKind.READX, MsgKind.UPGRADE,
                     MsgKind.INV, MsgKind.INV_ACK, MsgKind.UPGR_ACK,
                     MsgKind.RECALL, MsgKind.RECALL_X, MsgKind.DIR_UPDATE):
            assert not CARRIES_DATA[kind.code]

    def test_only_clean_shared_data_is_switch_cacheable(self):
        assert kinds_hooked_by("_deposit") == {MsgKind.DATA_S}

    def test_only_reads_interceptable(self):
        assert kinds_hooked_by("_intercept") == {MsgKind.READ}

    def test_only_invalidations_snoop(self):
        assert kinds_hooked_by("_snoop") == {MsgKind.INV}

    def test_lanes_partition_the_kinds(self):
        lanes = (REQUEST_LANE, FORWARD_LANE, REPLY_LANE)
        assert sum(len(lane) for lane in lanes) == len(MsgKind)
        assert set().union(*lanes) == set(MsgKind)


class TestFlits:
    def test_control_message_is_one_flit(self):
        assert flits_for(MsgKind.READ, 64) == 1
        assert flits_for(MsgKind.INV, 64) == 1
        assert flits_for(MsgKind.DIR_UPDATE, 64) == 1

    def test_data_message_length_scales_with_block(self):
        assert flits_for(MsgKind.DATA_S, 64) == 1 + 64 // FLIT_BYTES
        assert flits_for(MsgKind.DATA_S, 32) == 1 + 4
        assert flits_for(MsgKind.WRITEBACK, 128) == 1 + 16


class TestMessage:
    def test_ids_are_unique(self):
        a = Message(MsgKind.READ, 0, 1, 0x40, 1)
        b = Message(MsgKind.READ, 0, 1, 0x40, 1)
        assert a.id != b.id

    def test_header_fields_follow_fig9(self):
        msg = Message(MsgKind.READ, src=3, dst=7, addr=0x1C0, flits=1)
        header = msg.header_fields()
        assert header["src"] == 3
        assert header["dst"] == 7
        assert header["addr"] == 0x1C0
        assert header["type"] == list(MsgKind).index(MsgKind.READ)

    def test_default_payload_is_independent(self):
        # the declared fields default per worm; an undeclared one fails
        a = Message(MsgKind.READ, 0, 1, 0, 1)
        b = Message(MsgKind.READ, 0, 1, 0, 1)
        a.proc = 1
        assert b.proc is None
        assert (b.served_by, b.served_switch, b.mem_wait) == (None, None, 0)
        assert not b.purge_only and not b.no_ack
        with pytest.raises(AttributeError):
            a.sc_version = 1

    def test_timestamps_unset_initially(self):
        msg = Message(MsgKind.READ, 0, 1, 0, 1)
        assert msg.created_at == -1
        assert msg.injected_at == -1
        assert msg.delivered_at == -1
        assert msg.hops is None
