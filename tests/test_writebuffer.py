"""Unit tests for the release-consistency write buffer."""

import pytest

from repro.cache.writebuffer import WriteBuffer
from repro.errors import ConfigError


def test_empty_initially():
    wb = WriteBuffer(capacity=4, block_size=64)
    assert wb.is_empty()
    assert len(wb) == 0


def test_push_and_contains():
    wb = WriteBuffer(capacity=4, block_size=64)
    assert wb.push(0x100)
    assert wb.contains(0x100)
    assert wb.contains(0x100 + 63)  # same block
    assert not wb.contains(0x100 + 64)


def test_merge_same_block():
    wb = WriteBuffer(capacity=2, block_size=64)
    wb.push(0x100)
    wb.push(0x108)
    wb.push(0x110)
    assert len(wb) == 1
    assert wb.stores_retired == 3
    assert wb.stores_merged == 2


def test_capacity_rejection_counts_stall():
    wb = WriteBuffer(capacity=2, block_size=64)
    assert wb.push(0)
    assert wb.push(64)
    assert not wb.push(128)
    assert wb.full_stalls == 1


def test_can_accept_merging_block_when_full():
    wb = WriteBuffer(capacity=2, block_size=64)
    wb.push(0)
    wb.push(64)
    assert wb.can_accept(0)
    assert not wb.can_accept(128)


def test_drain_fifo_order():
    wb = WriteBuffer(capacity=4, block_size=64)
    wb.push(64)
    wb.push(0)
    assert wb.begin_drain() == 64
    wb.finish_drain()
    assert wb.begin_drain() == 0


def test_begin_drain_empty_returns_none():
    wb = WriteBuffer()
    assert wb.begin_drain() is None


def test_only_one_drain_at_a_time():
    wb = WriteBuffer(capacity=4, block_size=64)
    wb.push(0)
    wb.push(64)
    assert wb.begin_drain() == 0
    assert wb.begin_drain() is None
    wb.finish_drain()
    assert wb.begin_drain() == 64


def test_draining_block_still_counted_and_visible():
    wb = WriteBuffer(capacity=4, block_size=64)
    wb.push(0)
    wb.begin_drain()
    assert not wb.is_empty()
    assert wb.contains(0)
    assert wb.draining == 0
    wb.finish_drain()
    assert wb.is_empty()


def test_store_to_draining_block_opens_new_entry():
    wb = WriteBuffer(capacity=4, block_size=64)
    wb.push(0)
    wb.begin_drain()
    assert wb.push(8)  # same block, currently draining
    assert len(wb) == 2  # draining + fresh entry
    wb.finish_drain()
    assert wb.begin_drain() == 0


def test_store_to_draining_block_when_full_stalls():
    wb = WriteBuffer(capacity=1, block_size=64)
    wb.push(0)
    wb.begin_drain()
    wb.push(64)  # fills the single slot
    assert not wb.push(8)  # same block as draining but no room
    assert wb.full_stalls == 1


def test_pending_blocks_iteration():
    wb = WriteBuffer(capacity=4, block_size=64)
    wb.push(0)
    wb.push(64)
    wb.begin_drain()
    assert list(wb.pending_blocks()) == [0, 64]


def test_block_granularity_alignment():
    wb = WriteBuffer(capacity=4, block_size=64)
    wb.push(0x1F)
    assert wb.begin_drain() == 0


@pytest.mark.parametrize("block", [0, 24, 48])
def test_block_size_must_be_power_of_two(block):
    # blocks are addressed by masking, as in CacheArray
    with pytest.raises(ConfigError, match="power of two"):
        WriteBuffer(capacity=4, block_size=block)
