"""Wormhole-routed bidirectional MIN substrate.

Every link is a :class:`~repro.sim.resource.Timeline`; the switch-cache
engines it embeds live in :mod:`repro.core.caesar`.
"""

from .fabric import Fabric, FabricStats
from .flitref import FlitNetwork
from .message import FLIT_BYTES, Message, MsgKind, flits_for
from .switch import Switch
from .topology import BminTopology

__all__ = [
    "Fabric",
    "FabricStats",
    "FlitNetwork",
    "FLIT_BYTES",
    "Message",
    "MsgKind",
    "flits_for",
    "Switch",
    "BminTopology",
]
