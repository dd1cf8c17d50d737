"""The paper's contribution: CAESAR switch caches."""

from .caesar import CaesarEngine
from .policy import CachingPolicy
from .switchcache import SwitchCacheGeometry

__all__ = [
    "CaesarEngine",
    "CachingPolicy",
    "SwitchCacheGeometry",
]
