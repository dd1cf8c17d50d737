"""Directory-based MSI coherence substrate."""

from .directory import DirEntry, Directory
from .home import HomeController
from .l2ctrl import NodeController
from .messages import Transaction

__all__ = [
    "DirEntry",
    "Directory",
    "HomeController",
    "NodeController",
    "Transaction",
]
