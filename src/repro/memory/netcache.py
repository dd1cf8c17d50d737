"""Network cache (remote data cache) — the paper's main comparator.

Current systems implement network caches in different ways: the HP
Exemplar partitions local memory [2], NUMA-Q dedicates a 32 MB DRAM [15],
DASH has a remote-access cache [14], and Moga & Dubois argue for small
SRAM network caches [16].  Here the network cache sits at a node's NI and
holds *clean shared remote* blocks: an L2 miss to a remote address probes
it before entering the network, and incoming DATA_S replies for remote
blocks fill it.  Invalidations addressed to the node purge it (the
directory tracks nodes, so coverage is exact).

With one processor per node — the paper's configuration — a network cache
can only serve a processor's *own* conflict/capacity re-fetches, which is
exactly why the paper finds switch caches (shared by all processors whose
paths cross a switch) more effective.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..cache.array import CacheArray
from ..cache.states import LineState
from ..sim.engine import Simulator
from ..sim.resource import Timeline


class NetworkCache:
    """SRAM remote-data cache at one node's network interface."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        size: int = 128 * 1024,
        block_size: int = 64,
        assoc: int = 4,
        access_cycles: int = 12,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.access_cycles = access_cycles
        self.array = CacheArray(size, block_size, assoc, name=f"nc{node_id}")
        self.port = Timeline(sim)
        # statistics
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.inv_purges = 0

    def lookup(self, addr: int) -> Tuple[Optional[int], int]:
        """Probe for a remote read.  Returns (data_or_None, done_time)."""
        start = self.port.reserve(self.access_cycles)
        done = start + self.access_cycles
        data = self.array.lookup_data(addr)
        if data is None:
            self.misses += 1
            return None, done
        self.hits += 1
        return data, done

    def fill(self, addr: int, data: int) -> None:
        """Capture a clean shared remote block from an incoming reply."""
        self.array.insert(addr, LineState.SHARED, data)
        self.fills += 1

    def invalidate(self, addr: int) -> None:
        if self.array.invalidate(addr) is not None:
            self.inv_purges += 1

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
