"""Memory-module timing.

The paper's memory has a 40-cycle raw access, but "it takes more than 50
cycles to submit the request to the memory subsystem and read the data
over the memory bus": we model that as a bus-submission delay, a queued
memory array, and a bus-return delay.  Queueing at a hot home memory (bulk
read arrivals) is one of the dominant remote-latency terms the paper
reports, so the array is a FIFO :class:`~repro.sim.resource.Timeline`.
"""

from __future__ import annotations

from typing import Tuple

from ..sim.engine import Simulator
from ..sim.resource import Timeline


class MemoryModule:
    """One node's local memory (array + bus)."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        access_cycles: int = 40,
        bus_cycles: int = 6,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.access_cycles = access_cycles
        self.bus_cycles = bus_cycles
        self.array = Timeline(sim)
        # statistics
        self.reads = 0
        self.writes = 0

    def read(self) -> Tuple[int, int]:
        """Submit a read now.  Returns (service_start, data_ready)."""
        self.reads += 1
        return self._access()

    def write(self) -> Tuple[int, int]:
        """Submit a write now.  Returns (service_start, done)."""
        self.writes += 1
        return self._access()

    def _access(self) -> Tuple[int, int]:
        earliest = self.sim.now + self.bus_cycles
        start = self.array.reserve(self.access_cycles, earliest=earliest)
        done = start + self.access_cycles + self.bus_cycles
        return start, done

    @property
    def uncontended_latency(self) -> int:
        """Latency of an access that meets an idle memory (>50 cycles)."""
        return self.access_cycles + 2 * self.bus_cycles

    def mean_queueing_delay(self) -> float:
        return self.array.mean_queueing_delay()
