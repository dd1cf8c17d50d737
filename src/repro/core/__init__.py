"""The paper's contribution: CAESAR switch caches."""

from .caesar import TAG_CYCLES, CaesarEngine, data_cycles

__all__ = [
    "TAG_CYCLES",
    "CaesarEngine",
    "data_cycles",
]
