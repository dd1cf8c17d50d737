"""Crossbar switch model (paper Figure 10).

The base switch is a 4x4 bidirectional crossbar: two left-side links
(toward the nodes) and two right-side links (toward higher stages), each
bidirectional.  Internally it arbitrates among 8 virtual-channel candidates
with the Spider age technique [10]; at message granularity this is FIFO
grant order on each output link.  Crossing the switch — arbitration plus
traversal to the link transmitter — costs the fabric-wide
``switch_delay`` (4 cycles in the paper), which
:class:`~repro.network.fabric.Fabric` adds on every hop.

A link is a 16-bit-wide wire clocked at the switch frequency, so one
8-byte flit crosses it in ``cycles_per_flit`` (= 64/16 = 4) cycles
(Cavallino [6]).  Each direction is its own link, because the BMIN's
forward (requests) and backward (replies) traffic never contend for
wires.  A link is a :class:`~repro.sim.resource.Timeline`: a worm of L
flits holds it for ``L * cycles_per_flit`` cycles, granted in request
order.

A switch optionally embeds a cache engine (CAESAR, see
:mod:`repro.core.caesar`); the fabric invokes the engine's hooks as worms
arrive, so this module stays a pure crossbar.  :meth:`Switch.embed`
binds those hooks once: a switch without an engine has none, and one
whose stage does not cache keeps only the snoop.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Optional, Tuple, TYPE_CHECKING

from ..errors import NetworkError
from ..sim.engine import Simulator
from ..sim.resource import Timeline
from .message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..core.caesar import CaesarEngine


class Switch:
    """One BMIN switching element with per-output-link grant state."""

    __slots__ = (
        "sim", "id", "stage", "_out",
        "cache_engine", "trace_track", "snoop", "deposit", "intercept",
    )

    def __init__(self, sim: Simulator, switch_id) -> None:
        self.sim = sim
        self.id = switch_id
        self.stage = switch_id[0]
        # outgoing links keyed by neighbor: a SwitchId tuple or an int node id
        self._out: Dict[Hashable, Timeline] = {}
        self.cache_engine: Optional["CaesarEngine"] = None
        # the engine's fabric hooks, bound by embed(); None = skip
        self.snoop: Optional[Callable[[Message], None]] = None
        self.deposit: Optional[Callable[[Message], bool]] = None
        self.intercept: Optional[
            Callable[[Message], Optional[Tuple[int, int]]]
        ] = None
        # precomputed tracer track name (avoids per-hop formatting)
        self.trace_track = f"switch{self.stage}.{switch_id[1]}"

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def embed(self, engine: Optional["CaesarEngine"]) -> None:
        """Install ``engine`` (or none) and bind the hooks worms call."""
        self.cache_engine = engine
        self.snoop = self.deposit = self.intercept = None
        if engine is not None:
            # snoops purge on every engine, caching stage or not
            self.snoop = engine.snoop
            if engine.enabled:
                self.deposit = engine.try_deposit
                self.intercept = engine.try_intercept

    def add_output(self, neighbor: Hashable) -> Timeline:
        """Create the outgoing link toward ``neighbor`` (switch id or node)."""
        if neighbor in self._out:
            raise NetworkError(f"duplicate output {self.id} -> {neighbor}")
        link = self._out[neighbor] = Timeline(self.sim)
        return link

    def output_to(self, neighbor: Hashable) -> Timeline:
        link = self._out.get(neighbor)
        if link is None:
            raise NetworkError(f"switch {self.id} has no output to {neighbor}")
        return link

    def outputs(self) -> Dict[Hashable, Timeline]:
        return dict(self._out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Switch {self.id} outs={list(self._out)}>"
