"""CAESAR switch-cache SRAM: ports, banks, output width, access delays.

This models the cache subsystem embedded in a switch (paper Section 3.3 and
Table 1).  Architectural features reproduced:

* **Dual-ported tag array** (like the Pentium's on-chip cache [1]): snoop
  requests and regular requests probe tags concurrently on independent
  ports.
* **Single data array** (base CAESAR) or **2-way interleaved banks**
  (CAESAR+, like the R10000/Pentium-Pro L1s [21][28]): odd/even blocks map
  to different banks, so two regular requests to different banks can
  overlap.
* **Configurable output width**: a data array with a ``width``-bit output
  delivers ``width`` bits per cycle, so streaming one block takes
  ``block_size*8 / width`` cycles (e.g. 32-byte blocks through a 64-bit
  port: 4 cycles — the Pentium-Pro example in the paper).

The cache operates at the switch clock (200 MHz), so all delays are in
system cycles.  Tag access is one cycle.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..cache.array import CacheArray
from ..cache.states import LineState
from ..errors import ConfigError
from ..sim.engine import Simulator
from ..sim.resource import Timeline


class SwitchCacheGeometry:
    """Static description of one switch cache's organization."""

    def __init__(
        self,
        size: int = 2048,
        block_size: int = 64,
        assoc: int = 2,
        banks: int = 1,
        output_width_bits: int = 64,
        tag_cycles: int = 1,
        replacement: str = "lru",
    ) -> None:
        if banks not in (1, 2, 4):
            raise ConfigError(f"banks must be 1, 2 or 4, got {banks}")
        if output_width_bits <= 0 or output_width_bits % 8:
            raise ConfigError(f"bad output width {output_width_bits}")
        if (block_size * 8) % output_width_bits:
            raise ConfigError(
                f"block ({block_size}B) must be a multiple of the "
                f"output width ({output_width_bits}b)"
            )
        self.size = size
        self.block_size = block_size
        self.assoc = assoc
        self.banks = banks
        self.output_width_bits = output_width_bits
        self.tag_cycles = tag_cycles
        self.replacement = replacement

    @property
    def data_cycles(self) -> int:
        """Cycles to stream one block through the data-array output port."""
        return (self.block_size * 8) // self.output_width_bits

    def bank_of(self, addr: int) -> int:
        """Interleaved bank selection by low block-address bits (CAESAR+)."""
        return (addr // self.block_size) % self.banks

    def describe(self) -> str:
        kind = "CAESAR+" if self.banks > 1 else "CAESAR"
        return (
            f"{kind} {self.size}B {self.assoc}-way, {self.banks} bank(s), "
            f"{self.output_width_bits}-bit output, "
            f"tag {self.tag_cycles} cyc, data {self.data_cycles} cyc/block"
        )


class SwitchCacheSRAM:
    """Timed SRAM: tag ports, banked data arrays, and the cache contents."""

    def __init__(self, sim: Simulator, geometry: SwitchCacheGeometry, name: str = "") -> None:
        self.sim = sim
        self.geo = geometry
        self.array = CacheArray(
            geometry.size, geometry.block_size, geometry.assoc, name=name,
            replacement=geometry.replacement,
        )
        # dual-ported tags: one port for regular requests, one for snoops
        self.tag_port = Timeline(sim, f"{name}.tag")
        self.snoop_port = Timeline(sim, f"{name}.snooptag")
        self.data_ports = [
            Timeline(sim, f"{name}.data{b}") for b in range(geometry.banks)
        ]
        # geometry is immutable after construction; cache the per-access
        # quantities (banks is 1/2/4, so bank selection is a mask)
        self._tag_cycles = geometry.tag_cycles
        self._data_cycles = geometry.data_cycles
        self._block_size = geometry.block_size
        self._bank_mask = geometry.banks - 1

    # ------------------------------------------------------------------
    # timed operations — each returns completion time(s)
    # ------------------------------------------------------------------
    def tag_backlog(self) -> int:
        """Cycles until the regular tag port is free (0 when idle)."""
        return max(0, self.tag_port.free_at() - self.sim.now)

    def data_backlog(self, addr: int) -> int:
        port = self.data_ports[(addr // self._block_size) & self._bank_mask]
        return max(0, port.free_at() - self.sim.now)

    def read(self, addr: int) -> Tuple[Optional[int], int]:
        """Regular read lookup.

        Returns ``(data_or_None, done_time)``.  A hit streams the block
        through the data bank after the tag check; a miss costs only the
        tag check.
        """
        tag_cycles = self._tag_cycles
        tag_done = self.tag_port.reserve(tag_cycles) + tag_cycles
        data = self.array.lookup_data(addr)
        if data is None:
            return None, tag_done
        port = self.data_ports[(addr // self._block_size) & self._bank_mask]
        data_cycles = self._data_cycles
        data_start = port.reserve(data_cycles, earliest=tag_done)
        return data, data_start + data_cycles

    def write(self, addr: int, data: int) -> Tuple[int, Optional[int]]:
        """Deposit a block (tag update + full-block data write).

        Returns ``(done_time, victim_addr_or_None)`` — the victim is the
        block LRU-displaced by this deposit, if the set was full.
        """
        tag_cycles = self._tag_cycles
        tag_done = self.tag_port.reserve(tag_cycles) + tag_cycles
        port = self.data_ports[(addr // self._block_size) & self._bank_mask]
        data_cycles = self._data_cycles
        data_start = port.reserve(data_cycles, earliest=tag_done)
        victim = self.array.insert(addr, LineState.SHARED, data)
        victim_addr = victim[0] if victim is not None else None
        return data_start + data_cycles, victim_addr

    def snoop_invalidate(self, addr: int) -> Tuple[bool, int]:
        """Snoop-port probe + valid-bit clear on hit.

        Returns ``(purged, done_time)``.  Uses the second tag port so it
        never contends with regular requests; clearing a valid bit costs
        one extra tag-port cycle (no data-array access needed).
        """
        start = self.snoop_port.reserve(self.geo.tag_cycles)
        purged = self.array.invalidate(addr) is not None
        done = start + self.geo.tag_cycles
        if purged:
            extra = self.snoop_port.reserve(self.geo.tag_cycles)
            done = extra + self.geo.tag_cycles
        return purged, done

    # convenience for inspection
    @property
    def occupancy(self) -> int:
        return self.array.occupancy()
