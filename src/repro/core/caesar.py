"""CAESAR: the CAche Embedded Switch ARchitecture engine.

One :class:`CaesarEngine` lives inside each switch of a switch-cache
interconnect.  The fabric calls exactly three hooks as worm headers arrive,
each timed off the simulator clock (the header-arrival cycle):

* :meth:`snoop` — an INV worm passes: purge a matching block (the tag
  array's second port, so never skipped and never delaying the worm).
* :meth:`try_deposit` — a DATA_S worm passes: opportunistically capture
  the block as it streams through the switch.
* :meth:`try_intercept` — a READ worm arrives: probe the cache; on a hit
  return the data and the time at which the fabricated reply's header can
  start (tag check + data-array streaming); on a miss or a policy bypass
  return None and the worm is forwarded untouched.

The engine keeps the per-switch statistics the evaluation section reports
(hits by request, deposits, bypasses, snoop purges).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..cache.array import CacheArray
from ..cache.states import LineState
from ..network.message import Message
from ..sim.engine import Simulator
from ..sim.resource import Timeline
from .policy import CachingPolicy
from .switchcache import SwitchCacheGeometry

#: hoisted member: deposits always install clean shared copies
_SHARED = LineState.SHARED


class CaesarEngine:
    """Cache engine embedded in one switch."""

    def __init__(
        self,
        sim: Simulator,
        switch_id: Tuple[int, int],
        geometry: SwitchCacheGeometry,
        policy: Optional[CachingPolicy] = None,
    ) -> None:
        self.sim = sim
        self._tracer = sim.tracer  # installed before construction
        self.switch_id = switch_id
        self.stage = switch_id[0]
        self.geo = geometry
        self.policy = policy if policy is not None else CachingPolicy()
        name = f"sc{switch_id}"
        self.array = CacheArray(
            geometry.size, geometry.block_size, geometry.assoc, name=name,
            replacement=geometry.replacement,
        )
        # the regular tag port and one data port per bank.  Snoops use the
        # tag array's second port, which nothing else contends for, so it
        # needs no grant state: a snoop never delays a request or a worm
        self.tag_port = Timeline(sim, f"{name}.tag")
        self.data_ports = [
            Timeline(sim, f"{name}.data{b}") for b in range(geometry.banks)
        ]
        # whether this stage caches: a disabled engine still snoops
        self.enabled = self.policy.stage_enabled(self.stage)
        # same tracer track as the owning switch (see Switch.trace_track)
        self.trace_track = f"switch{switch_id[0]}.{switch_id[1]}"
        # hot-path hoists: policy thresholds and geometry are fixed after
        # construction, so the fabric hooks below read them (and the
        # array's methods) without chasing attribute chains.  The hooks
        # inline Timeline.reserve's grant arithmetic — kept in lockstep
        # with repro.sim.resource.Timeline — because a worm passes a
        # switch engine once per hop and the nested calls dominate the
        # engine's cost when tracing is off.
        self._bypass_threshold = self.policy.bypass_threshold
        self._deposit_threshold = self.policy.deposit_threshold
        self._tag_cycles = geometry.tag_cycles
        self._data_cycles = geometry.data_cycles
        self._block_size = geometry.block_size
        # banks is 1/2/4, so interleaved bank selection is a mask
        self._bank_mask = geometry.banks - 1
        self._lookup_data = self.array.lookup_data
        self._insert = self.array.insert
        self._invalidate = self.array.invalidate
        # statistics
        self.lookups = 0
        self.hits = 0
        self.misses = 0
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
        if not self.enabled:
            return False
        addr = msg.addr
        now = self.sim.now
        port = self.data_ports[(addr // self._block_size) & self._bank_mask]
        # a deposit is pure opportunism: skip it when the bank is backed
        # up beyond the policy's threshold
        if port._free_at - now > self._deposit_threshold:
            self.deposit_skips += 1
            return False
        # tag update, then the full-block data-bank occupancy starting
        # no earlier than the tag grant
        tag_port = self.tag_port
        tag_cycles = self._tag_cycles
        start = tag_port._free_at
        if start < now:
            start = now
        tag_port._free_at = start + tag_cycles
        tag_port.reservations += 1
        tag_port.queued_cycles += start - now
        tag_done = start + tag_cycles
        data_cycles = self._data_cycles
        dstart = port._free_at
        if dstart < tag_done:
            dstart = tag_done
        port._free_at = dstart + data_cycles
        port.reservations += 1
        port.queued_cycles += dstart - tag_done
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
        if not self.enabled:
            return None
        now = self.sim.now
        tag_port = self.tag_port
        # a read is forwarded unchecked when the tag port is backed up
        # beyond the policy's threshold
        if tag_port._free_at - now > self._bypass_threshold:
            self.bypasses += 1
            tracer = self._tracer
            if tracer is not None:
                tracer.instant(
                    self.trace_track, "sc_bypass", now, {"addr": msg.addr}
                )
            return None
        self.lookups += 1
        # tag check, then (on a hit) the block streams through the
        # addressed data bank
        tag_cycles = self._tag_cycles
        start = tag_port._free_at
        if start < now:
            start = now
        tag_port._free_at = start + tag_cycles
        tag_port.reservations += 1
        tag_port.queued_cycles += start - now
        addr = msg.addr
        data = self._lookup_data(addr)
        done = tag_done = start + tag_cycles
        if data is not None:
            port = self.data_ports[
                (addr // self._block_size) & self._bank_mask
            ]
            data_cycles = self._data_cycles
            dstart = port._free_at
            if dstart < tag_done:
                dstart = tag_done
            port._free_at = dstart + data_cycles
            port.reservations += 1
            port.queued_cycles += dstart - tag_done
            done = dstart + data_cycles
        tracer = self._tracer
        if tracer is not None:
            tracer.instant(
                self.trace_track, "sc_probe", now,
                {"addr": addr, "hit": data is not None},
            )
        if data is None:
            self.misses += 1
            return None
        self.hits += 1
        return data, done

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def occupancy(self) -> int:
        """Valid blocks currently resident in this switch's cache."""
        return self.array.occupancy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CaesarEngine sw={self.switch_id} {self.geo.describe()} "
            f"hits={self.hits}/{self.lookups}>"
        )
