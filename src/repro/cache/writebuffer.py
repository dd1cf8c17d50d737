"""Release-consistency write buffer.

Under release consistency the processor retires stores into a write buffer
and continues; only synchronization releases wait for the buffer to drain.
Entries are kept at block granularity and stores to a block already pending
merge into the existing entry (standard coalescing write buffer).

The node controller drains the head entry through the coherence protocol;
this class only tracks contents, ordering, and occupancy statistics.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Optional

from ..errors import ConfigError


class WriteBuffer:
    """Coalescing FIFO write buffer (per processor)."""

    def __init__(self, capacity: int = 8, block_size: int = 64) -> None:
        if block_size <= 0 or block_size & (block_size - 1):
            raise ConfigError(
                f"block_size must be a power of two, got {block_size}"
            )
        self.capacity = capacity
        self.block_size = block_size
        self._neg_mask = -block_size  # block address = addr & _neg_mask
        # block_addr -> number of merged stores
        self._entries: "OrderedDict[int, int]" = OrderedDict()
        # the entry currently being drained (removed from _entries)
        self._draining: Optional[int] = None
        # statistics
        self.stores_retired = 0
        self.stores_merged = 0
        self.full_stalls = 0

    # ------------------------------------------------------------------
    # processor side
    # ------------------------------------------------------------------
    def can_accept(self, addr: int) -> bool:
        block = addr & self._neg_mask
        if block in self._entries or block == self._draining:
            return True
        return len(self._entries) < self.capacity

    def push(self, addr: int) -> bool:
        """Retire a store.  Returns False (and counts a stall) when full."""
        block = addr & self._neg_mask
        entries = self._entries
        if block == self._draining:
            # Store to the block being drained right now cannot merge into
            # the in-flight transaction; it needs a fresh entry.
            if len(entries) >= self.capacity:
                self.full_stalls += 1
                return False
            entries[block] = entries.get(block, 0) + 1
            self.stores_retired += 1
            return True
        if block in entries:
            entries[block] += 1
            self.stores_retired += 1
            self.stores_merged += 1
            return True
        if len(entries) >= self.capacity:
            self.full_stalls += 1
            return False
        entries[block] = 1
        self.stores_retired += 1
        return True

    def contains(self, addr: int) -> bool:
        """Whether a store to this block is still pending (incl. draining)."""
        block = addr & self._neg_mask
        return block in self._entries or block == self._draining

    # ------------------------------------------------------------------
    # drain side
    # ------------------------------------------------------------------
    def begin_drain(self) -> Optional[int]:
        """Pop the oldest entry and mark it in flight; returns its block addr."""
        if self._draining is not None or not self._entries:
            return None
        block, _count = self._entries.popitem(last=False)
        self._draining = block
        return block

    def finish_drain(self) -> None:
        """The in-flight entry's coherence transaction completed."""
        self._draining = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def draining(self) -> Optional[int]:
        return self._draining

    def __len__(self) -> int:
        return len(self._entries) + (1 if self._draining is not None else 0)

    def is_empty(self) -> bool:
        return len(self) == 0

    def pending_blocks(self) -> Iterator[int]:
        if self._draining is not None:
            yield self._draining
        yield from self._entries.keys()
