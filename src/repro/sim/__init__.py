"""Discrete-event simulation core (engine, clocked resources)."""

from .engine import Simulator
from .resource import Timeline

__all__ = ["Simulator", "Timeline"]
