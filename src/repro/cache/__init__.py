"""SRAM cache substrate: arrays, MSI states, hierarchy, write buffer."""

from .array import CacheArray, LineView
from .hierarchy import CacheHierarchy
from .states import DirState, LineState
from .writebuffer import WriteBuffer

__all__ = [
    "CacheArray",
    "LineView",
    "CacheHierarchy",
    "DirState",
    "LineState",
    "WriteBuffer",
]
