"""CAESAR: the CAche Embedded Switch ARchitecture engine.

One :class:`CaesarEngine` lives inside each switch of a switch-cache
interconnect, built from the :class:`~repro.system.config.SystemConfig`
it models (paper Section 3.3 and Table 1), which validates its fields.
It runs at the switch clock (200 MHz), so all delays are system cycles:

* **Dual-ported tag array** (like the Pentium's on-chip cache [1]): snoop
  requests probe tags on their own port, so they never contend with
  regular requests.  A regular tag access takes :data:`TAG_CYCLES`.
* **Single data array** (base CAESAR) or **2/4 interleaved banks**
  (CAESAR+, like the R10000/Pentium-Pro L1s [21][28]): consecutive
  blocks map to different banks, so requests to different banks overlap.
* **Configurable output width**: a ``width``-bit data port streams one
  block in :func:`data_cycles` = ``block_size*8 / width`` cycles (32-byte
  blocks through a 64-bit port: 4 cycles, the paper's Pentium-Pro example).

Each regular tag access and each block streamed through a data bank is
one :meth:`~repro.sim.resource.Timeline.reserve` grant.

The caching policy is the paper's: a switch cache holds only **clean
shared** data (DATA_S replies), intercepts only reads, and purges on
every invalidation that passes.  Two thresholds keep a busy engine from
ever slowing the switch: a read is forwarded unchecked when the tag port
is backed up beyond ``switch_cache_bypass_threshold`` cycles, and a
passing block is not deposited when its bank is backed up beyond
``switch_cache_deposit_threshold``.  ``switch_cache_stages`` limits
caching to some MIN stages.  Snoops are never skipped: correctness
depends on them.

The fabric calls the three hooks as worm headers arrive, timed off the
simulator clock: :meth:`~CaesarEngine.snoop` for an INV,
:meth:`~CaesarEngine.try_deposit` for a DATA_S and
:meth:`~CaesarEngine.try_intercept` for a READ, which on a hit returns
the data and the cycle the fabricated reply's header can start.  The
engine keeps the per-switch statistics the evaluation section reports;
its ``hits`` are the simulator's one count of switch-cache hits, which
the fabric's ``stats.switch_hits`` and the machine's hits by stage sum.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from ..cache.array import CacheArray
from ..cache.states import LineState
from ..network.message import Message
from ..sim.engine import Simulator
from ..sim.resource import Timeline

if TYPE_CHECKING:
    from ..system.config import SystemConfig

#: cycles of one regular tag access (and of one snoop-port probe)
TAG_CYCLES = 1

#: hoisted member: deposits always install clean shared copies
_SHARED = LineState.SHARED


def data_cycles(block_size: int, width_bits: int) -> int:
    """Cycles to stream one block through a ``width_bits``-wide data port."""
    return (block_size * 8) // width_bits


class CaesarEngine:
    """Cache engine embedded in one switch."""

    def __init__(
        self,
        sim: Simulator,
        switch_id: Tuple[int, int],
        config: SystemConfig,
    ) -> None:
        self.sim = sim
        self._tracer = sim.tracer  # installed before construction
        self.switch_id = switch_id
        self.stage = switch_id[0]
        block_size = config.block_size
        banks = config.switch_cache_banks
        self.array = CacheArray(
            config.switch_cache_size, block_size, config.switch_cache_assoc,
            name=f"sc{switch_id}",
            replacement=config.switch_cache_replacement,
        )
        # the regular tag port and one data port per bank.  Snoops use the
        # tag array's second port, which nothing else contends for, so it
        # needs no grant state: a snoop never delays a request or a worm
        self.tag_port = Timeline(sim)
        self.data_ports = [Timeline(sim) for _ in range(banks)]
        # whether this stage caches: Switch.embed binds try_deposit and
        # try_intercept only when it does; a disabled engine still snoops
        stages = config.switch_cache_stages
        self.enabled = stages is None or self.stage in stages
        # same tracer track as the owning switch (see Switch.trace_track)
        self.trace_track = f"switch{switch_id[0]}.{switch_id[1]}"
        self._bypass_threshold = config.switch_cache_bypass_threshold
        self._deposit_threshold = config.switch_cache_deposit_threshold
        self._data_cycles = data_cycles(
            block_size, config.switch_cache_width_bits
        )
        self._block_size = block_size
        # banks is 1/2/4, so interleaved bank selection is a mask
        self._bank_mask = banks - 1
        self._lookup_data = self.array.lookup_data
        self._insert = self.array.insert
        self._invalidate = self.array.invalidate
        # statistics
        self.lookups = 0
        self.hits = 0
        self.bypasses = 0
        self.deposits = 0
        self.deposit_skips = 0
        self.snoops = 0
        self.purges = 0

    # ------------------------------------------------------------------
    # fabric hooks
    # ------------------------------------------------------------------
    def snoop(self, msg: Message) -> None:
        """INV passing through: purge a matching block.  Never skipped."""
        self.snoops += 1
        if self._invalidate(msg.addr) is not None:
            self.purges += 1
            tracer = self._tracer
            if tracer is not None:
                tracer.instant(
                    self.trace_track, "sc_purge", self.sim.now,
                    {"addr": msg.addr},
                )

    def try_deposit(self, msg: Message) -> bool:
        """DATA_S passing through: capture the block unless the bank is busy."""
        addr = msg.addr
        now = self.sim.now
        port = self.data_ports[(addr // self._block_size) & self._bank_mask]
        # a deposit is pure opportunism: skip it when the bank is backed
        # up beyond the policy's threshold
        if port.free_at() - now > self._deposit_threshold:
            self.deposit_skips += 1
            return False
        # tag update, then the full-block data-bank occupancy starting
        # no earlier than the tag grant
        tag_done = self.tag_port.reserve(TAG_CYCLES) + TAG_CYCLES
        port.reserve(self._data_cycles, tag_done)
        victim = self._insert(addr, _SHARED, msg.data)
        self.deposits += 1
        tracer = self._tracer
        if tracer is not None:
            tracer.instant(
                self.trace_track, "sc_deposit", now, {"addr": addr}
            )
            if victim is not None:
                tracer.instant(
                    self.trace_track, "sc_evict", now, {"addr": victim[0]}
                )
        return True

    def try_intercept(self, msg: Message) -> Optional[Tuple[int, int]]:
        """READ arriving: probe; return (data, reply_ready_time) on a hit."""
        now = self.sim.now
        tag_port = self.tag_port
        addr = msg.addr
        # a read is forwarded unchecked when the tag port is backed up
        # beyond the policy's threshold
        if tag_port.free_at() - now > self._bypass_threshold:
            self.bypasses += 1
            tracer = self._tracer
            if tracer is not None:
                tracer.instant(
                    self.trace_track, "sc_bypass", now, {"addr": addr}
                )
            return None
        self.lookups += 1
        # tag check, then (on a hit) the block streams through the
        # addressed data bank
        tag_done = tag_port.reserve(TAG_CYCLES) + TAG_CYCLES
        data = self._lookup_data(addr)
        tracer = self._tracer
        if tracer is not None:
            tracer.instant(
                self.trace_track, "sc_probe", now,
                {"addr": addr, "hit": data is not None},
            )
        if data is None:
            return None
        self.hits += 1
        port = self.data_ports[(addr // self._block_size) & self._bank_mask]
        stream = self._data_cycles
        return data, port.reserve(stream, tag_done) + stream

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def misses(self) -> int:
        """Lookups that found no block (bypassed reads are no lookups)."""
        return self.lookups - self.hits

    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def occupancy(self) -> int:
        """Valid blocks currently resident in this switch's cache."""
        return self.array.occupancy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CaesarEngine sw={self.switch_id} "
            f"hits={self.hits}/{self.lookups}>"
        )
