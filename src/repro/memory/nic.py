"""Network interface (NI) for one node.

The NI's send module prepares worms and injects them into the fabric
(where they queue for the injection link — the paper's NI queueing term);
its receive module dispatches delivered worms to the node's coherence
controllers: the fabric calls the node's dispatcher directly, with no
NI frame in between.  Traffic between two controllers of the *same*
node (an L2 miss to the local home memory) never enters the network: it
crosses the node's local bus with a fixed small delay instead.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import SimulationError
from ..network.fabric import Fabric
from ..network.message import Message
from ..sim.engine import Simulator

DispatchFn = Callable[[Message], None]


class NetworkInterface:
    """Send/receive module pair for one node."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        fabric: Optional[Fabric],
        local_delay: int = 2,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.fabric = fabric
        self.local_delay = local_delay
        self._dispatch: Optional[DispatchFn] = None

    def attach(self, dispatch: DispatchFn) -> None:
        """Register the node's receive-side dispatcher.

        Remote worms are handed to it by the fabric itself; local ones
        by :meth:`_receive_local` after the bus delay.
        """
        self._dispatch = dispatch
        if self.fabric is not None:
            self.fabric.attach_node(self.node_id, dispatch)

    def send(self, msg: Message, at: Optional[int] = None) -> None:
        """Send a message now (or at a future cycle ``at``)."""
        if msg.src != self.node_id:
            raise SimulationError(
                f"NI{self.node_id} asked to send a message from {msg.src}"
            )
        if at is not None and at > self.sim.now:
            self.sim.call_at(at, self._send_now, msg)
        else:
            self._send_now(msg)

    def _send_now(self, msg: Message) -> None:
        if msg.dst == self.node_id:
            # intra-node: cross the local bus, never enter the fabric
            msg.created_at = self.sim.now
            msg.injected_at = self.sim.now
            self.sim.call(self.local_delay, self._receive_local, msg)
        else:
            if self.fabric is None:
                raise SimulationError("remote message but no fabric configured")
            msg.created_at = self.sim.now
            self.fabric.inject(msg)

    def _receive_local(self, msg: Message) -> None:
        msg.delivered_at = self.sim.now
        if self._dispatch is None:
            raise SimulationError(f"NI{self.node_id} has no dispatcher attached")
        self._dispatch(msg)
