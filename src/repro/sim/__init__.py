"""Discrete-event simulation core (engine, clocked resources)."""

from .engine import Simulator
from .resource import FifoServer, Timeline

__all__ = ["Simulator", "FifoServer", "Timeline"]
