"""Two-level processor cache hierarchy (state mechanics).

Mirrors the paper's per-node hierarchy: a 16 KB L1 and a 128 KB L2.  The L1
is write-through/no-write-allocate (so it never holds dirty data and needs
no M state); the L2 is write-back MSI and inclusive of the L1.  All methods
are pure state transitions — the node controller adds timing and drives the
coherence protocol for misses.  Loads and store probes read the two arrays
directly (``l1``/``l2``) from the processor's op loop and the store drain.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .array import CacheArray
from .states import LineState


class CacheHierarchy:
    """L1 + inclusive write-back L2 for one processor."""

    def __init__(
        self,
        l1_size: int,
        l2_size: int,
        block_size: int,
        l1_assoc: int = 2,
        l2_assoc: int = 4,
        node_id: int = -1,
    ) -> None:
        self.block_size = block_size
        self.node_id = node_id
        self.l1 = CacheArray(l1_size, block_size, l1_assoc, name=f"L1[{node_id}]")
        self.l2 = CacheArray(l2_size, block_size, l2_assoc, name=f"L2[{node_id}]")

    # ------------------------------------------------------------------
    # processor-side stores
    # ------------------------------------------------------------------
    def perform_write(self, addr: int, data: int) -> None:
        """Commit a store to an owned L2 line (and through to L1 if present)."""
        if not self.l2.write_owned(addr, data):
            raise KeyError(f"perform_write without ownership of {addr:#x}")
        self.l1.set_data(addr, data)

    # ------------------------------------------------------------------
    # protocol-side operations
    # ------------------------------------------------------------------
    def fill(
        self, addr: int, state: LineState, data: int, fill_l1: bool = False
    ) -> Optional[Tuple[int, int]]:
        """Install a reply block into L2 (and L1 for demand-load fills).

        Returns ``(victim_addr, victim_data)`` if a *dirty* (M) victim was
        displaced and must be written back to its home; clean victims are
        dropped silently.  Inclusion: any displaced L2 victim is also purged
        from L1.
        """
        victim = self.l2.insert(addr, state, data)
        dirty_victim = None
        if victim is not None:
            victim_addr, victim_state, victim_data = victim
            self.l1.invalidate(victim_addr)
            if victim_state.owned():
                dirty_victim = (victim_addr, victim_data)
        if fill_l1:
            # the load that missed passes its data through L1 (clean copy;
            # the L1 is write-through so it never holds dirty state)
            self.l1.insert(addr, LineState.SHARED, data)
        return dirty_victim

    def upgrade(self, addr: int) -> None:
        """Promote an S-state L2 line to M after an upgrade ack."""
        self.l2.set_state(addr, LineState.MODIFIED)

    def invalidate(self, addr: int) -> Optional[Tuple[LineState, int]]:
        """Invalidate a block in both levels; returns former L2 (state, data)."""
        self.l1.invalidate(addr)
        return self.l2.invalidate(addr)

    def downgrade(self, addr: int) -> int:
        """M -> S in L2 (remote read hit an owned block); returns the data."""
        data = self.l2.downgrade_owned(addr)
        if data is None:
            raise KeyError(f"downgrade without ownership of {addr:#x}")
        return data

    def state_of(self, addr: int) -> LineState:
        line = self.l2.probe(addr)
        return line.state if line is not None else LineState.INVALID

    def state_code(self, addr: int) -> int:
        """L2 state as a small-int code (0 when absent) — the hot form."""
        return self.l2.probe_state(addr)
