"""Shared address space with explicit home placement.

The CC-NUMA shared memory is distributed across the nodes; applications
allocate their data structures here and choose a placement policy per
allocation:

* ``home=<node>`` — the whole range lives in one node's memory (used for
  row-partitioned matrices, where each processor's rows are local to it);
* ``interleave=True`` — consecutive blocks round-robin across all nodes
  (used for globally shared structures and the synchronization region).

``home_of`` resolves the home node of any address (the simulator calls
it once per L2 miss; results are memoized per block).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigError


class AddressSpace:
    """Allocator + home map for one machine's shared memory."""

    def __init__(self, num_nodes: int, block_size: int) -> None:
        self.num_nodes = num_nodes
        self.block_size = block_size
        self._starts: List[int] = []
        # parallel to _starts: (end, fixed_home_or_None)
        self._ranges: List[Tuple[int, Optional[int]]] = []
        self._next = block_size  # keep address 0 unused
        self._home_cache: Dict[int, int] = {}

    def alloc(
        self, nbytes: int, home: Optional[int] = None, interleave: bool = False
    ) -> int:
        """Allocate a block-aligned range; returns its base address."""
        if nbytes <= 0:
            raise ConfigError(f"alloc of {nbytes} bytes")
        if home is not None and interleave:
            raise ConfigError("choose either a fixed home or interleaving")
        if home is not None and not 0 <= home < self.num_nodes:
            raise ConfigError(f"home {home} out of range")
        base = self._next
        size = -(-nbytes // self.block_size) * self.block_size
        self._next = base + size
        self._starts.append(base)
        self._ranges.append((base + size, home))
        return base

    def home_of(self, addr: int) -> int:
        block = (addr // self.block_size) * self.block_size
        cached = self._home_cache.get(block)
        if cached is not None:
            return cached
        home = self._resolve(block)
        self._home_cache[block] = home
        return home

    def _resolve(self, block: int) -> int:
        idx = bisect.bisect_right(self._starts, block) - 1
        if idx >= 0:
            end, fixed_home = self._ranges[idx]
            if block < end:
                if fixed_home is not None:
                    return fixed_home
                start = self._starts[idx]
                return ((block - start) // self.block_size) % self.num_nodes
        # unmapped addresses (possible in ad-hoc tests): interleave globally
        return (block // self.block_size) % self.num_nodes

    @property
    def bytes_allocated(self) -> int:
        return self._next - self.block_size


class Matrix:
    """A 2-D array of 8-byte elements laid out row-major in shared memory.

    ``row_home(i)`` chooses the home node per row; by default rows are
    interleaved block-wise like any flat allocation.
    """

    def __init__(
        self,
        space: AddressSpace,
        rows: int,
        cols: int,
        elem_bytes: int = 8,
        row_home=None,
    ) -> None:
        self.rows = rows
        self.cols = cols
        self.elem_bytes = elem_bytes
        self.row_bytes = cols * elem_bytes
        if row_home is None:
            self._base = space.alloc(rows * self.row_bytes, interleave=True)
            self._row_base = [self._base + i * self.row_bytes for i in range(rows)]
        else:
            self._row_base = [
                space.alloc(self.row_bytes, home=row_home(i)) for i in range(rows)
            ]

    def addr(self, i: int, j: int) -> int:
        return self._row_base[i] + j * self.elem_bytes

    def row_addr(self, i: int) -> int:
        return self._row_base[i]


class Vector:
    """A 1-D array of 8-byte elements."""

    def __init__(
        self,
        space: AddressSpace,
        length: int,
        elem_bytes: int = 8,
        home: Optional[int] = None,
        interleave: bool = True,
    ) -> None:
        self.length = length
        self.elem_bytes = elem_bytes
        if home is not None:
            interleave = False
        self.base = space.alloc(length * elem_bytes, home=home, interleave=interleave)

    def addr(self, i: int) -> int:
        return self.base + i * self.elem_bytes
