"""Physical link model.

A link is a 16-bit-wide wire pair clocked at the switch frequency; one
8-byte flit takes ``cycles_per_flit`` (= 64/16 = 4) cycles to cross
(Cavallino [6]).  Each *direction* of a bidirectional link is a separate
:class:`Link`, because the BMIN's forward (requests) and backward (replies)
traffic never contend with each other for wires.

A worm of L flits occupies the link for ``L * cycles_per_flit`` cycles;
grants are in request order, which reproduces the FIFO/age arbitration of
the paper's switches at message granularity.
"""

from __future__ import annotations

from typing import Tuple

from ..sim.engine import Simulator


class Link:
    """One directed channel between two network elements.

    The link owns its grant state: ``_free_at`` (when the wire is next
    free) and ``queued_cycles`` (total time worms waited for it), next to
    the ``msgs``/``flits`` it has carried.  Busy time is ``flits *
    cycles_per_flit`` and the reservation count is ``msgs``, so
    utilization and mean queueing delay derive from these four fields.
    """

    __slots__ = (
        "sim", "name", "cycles_per_flit", "_free_at", "queued_cycles",
        "msgs", "flits",
    )

    def __init__(self, sim: Simulator, name: str, cycles_per_flit: int = 4) -> None:
        self.sim = sim
        self.name = name
        self.cycles_per_flit = cycles_per_flit
        self._free_at = 0
        self.queued_cycles = 0
        self.msgs = 0
        self.flits = 0

    def reserve(self, flits: int, earliest: int) -> Tuple[int, int]:
        """Reserve the link for a worm of ``flits`` flits.

        Returns ``(grant, tail_done)``: the cycle the header starts crossing
        and the cycle the tail has fully crossed.  Grants are FIFO in
        request order, as :meth:`~repro.sim.resource.Timeline.reserve`.
        """
        duration = flits * self.cycles_per_flit
        now = self.sim.now
        request_at = earliest if earliest > now else now
        grant = self._free_at
        if grant < request_at:
            grant = request_at
        self._free_at = grant + duration
        self.queued_cycles += grant - request_at
        self.msgs += 1
        self.flits += flits
        return grant, grant + duration

    def utilization(self) -> float:
        """Busy fraction of elapsed simulated time (0 if time has not advanced)."""
        now = self.sim.now
        if now == 0:
            return 0.0
        return min(1.0, self.flits * self.cycles_per_flit / now)

    def mean_queueing_delay(self) -> float:
        if self.msgs == 0:
            return 0.0
        return self.queued_cycles / self.msgs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} msgs={self.msgs}>"
