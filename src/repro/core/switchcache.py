"""CAESAR switch-cache geometry: ports, banks, output width, access delays.

This describes the cache subsystem embedded in a switch (paper Section 3.3
and Table 1); :class:`~repro.core.caesar.CaesarEngine` owns the timed
ports built from it.  Architectural features reproduced:

* **Dual-ported tag array** (like the Pentium's on-chip cache [1]): snoop
  requests probe tags on their own port, so they never contend with
  regular requests and never occupy the regular tag port.
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

from ..errors import ConfigError


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

    def describe(self) -> str:
        kind = "CAESAR+" if self.banks > 1 else "CAESAR"
        return (
            f"{kind} {self.size}B {self.assoc}-way, {self.banks} bank(s), "
            f"{self.output_width_bits}-bit output, "
            f"tag {self.tag_cycles} cyc, data {self.data_cycles} cyc/block"
        )
