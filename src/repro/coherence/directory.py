"""Full-map three-state directory (Censier & Feautrier [7]).

Each home node keeps, for every memory block it owns, a full-map bit
vector of the nodes that may hold a shared copy, or the identity of the
single owner when the block is modified.  The directory also holds the
memory image itself; block payloads are version numbers (see
:mod:`repro.cache.array`), incremented by each completed write, which the
test suite uses to verify coherence end to end.

Sharer encoding (DESIGN.md §10)
-------------------------------
The default :class:`DirEntry` stores the full-map vector literally as an
int bitmask (``sharers_mask``, bit *n* = node *n* shares) with a cached
popcount (``sharer_count``), so the per-transition hot path is bit
arithmetic with no set objects and no hashing.  Fan-out sites use
``sorted_sharers()``, which decodes the mask in ascending node order —
the same order ``sorted(set)`` produced — so message timing is
bit-identical to the old ``Set[int]`` model, which survives as the
lockstep fuzz oracle in ``tests/reference_models.py``.  ``entry.sharers``
stays available as a decoded-set view for tests and cold invariant
checks.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..cache.states import DirState
from ..errors import ProtocolError


class DirEntry:
    """Directory state for one block (coded: sharers as an int bitmask)."""

    __slots__ = ("state", "sharers_mask", "sharer_count", "owner", "version")

    def __init__(self) -> None:
        self.state = DirState.UNOWNED
        self.sharers_mask = 0
        self.sharer_count = 0  # cached popcount of sharers_mask
        self.owner: Optional[int] = None
        self.version = 0  # current memory image (stale while MODIFIED)

    # -- sharer-set operations (the coded hot path) ---------------------
    def has_sharer(self, node: int) -> bool:
        return (self.sharers_mask >> node) & 1 == 1

    def num_sharers(self) -> int:
        return self.sharer_count

    def add_sharer_node(self, node: int) -> None:
        mask = self.sharers_mask
        bit = 1 << node
        if not mask & bit:
            self.sharers_mask = mask | bit
            self.sharer_count += 1

    def clear_sharer_nodes(self) -> None:
        self.sharers_mask = 0
        self.sharer_count = 0

    def sorted_sharers(self) -> List[int]:
        """Sharer node ids in ascending order (the fan-out order)."""
        out = []
        mask = self.sharers_mask
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    @property
    def sharers(self) -> Set[int]:
        """Decoded sharer set (tests / cold invariant checks only)."""
        return set(self.sorted_sharers())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DirEntry {self.state.value} sharers={self.sorted_sharers()} "
            f"owner={self.owner} v{self.version}>"
        )


class Directory:
    """All directory entries homed at one node."""

    def __init__(self, node_id: int, block_size: int) -> None:
        self.node_id = node_id
        self.block_size = block_size
        self._entries: Dict[int, DirEntry] = {}

    def _block(self, addr: int) -> int:
        return (addr // self.block_size) * self.block_size

    def entry(self, addr: int) -> DirEntry:
        block = self._block(addr)
        entry = self._entries.get(block)
        if entry is None:
            entry = DirEntry()
            self._entries[block] = entry
        return entry

    def peek(self, addr: int) -> Optional[DirEntry]:
        return self._entries.get(self._block(addr))

    # ------------------------------------------------------------------
    # transitions (pure bookkeeping; the home controller adds timing)
    # ------------------------------------------------------------------
    def add_sharer(self, addr: int, node: int) -> None:
        entry = self.entry(addr)
        if entry.state is DirState.MODIFIED:
            raise ProtocolError(
                f"add_sharer on MODIFIED block (owner {entry.owner})",
                node=node, addr=addr, state=entry.state,
            )
        entry.state = DirState.SHARED
        entry.add_sharer_node(node)

    def set_owner(self, addr: int, node: int, version: Optional[int] = None) -> None:
        entry = self.entry(addr)
        entry.state = DirState.MODIFIED
        entry.clear_sharer_nodes()
        entry.owner = node
        if version is not None:
            entry.version = version

    def writeback(self, addr: int, node: int, version: int) -> None:
        """Owner returned dirty data (eviction or recall)."""
        entry = self.entry(addr)
        if entry.state is not DirState.MODIFIED or entry.owner != node:
            raise ProtocolError(
                f"writeback from non-owner (entry {entry!r})",
                node=node, addr=addr, state=entry.state,
            )
        entry.state = DirState.UNOWNED
        entry.owner = None
        entry.version = version

    def clear_sharers(self, addr: int) -> Set[int]:
        entry = self.entry(addr)
        sharers = set(entry.sorted_sharers())
        entry.clear_sharer_nodes()
        if entry.state is DirState.SHARED:
            entry.state = DirState.UNOWNED
        return sharers

    # ------------------------------------------------------------------
    # introspection (used by invariant checks)
    # ------------------------------------------------------------------
    def entries(self) -> Iterator[Tuple[int, DirEntry]]:
        return iter(self._entries.items())

    def version_of(self, addr: int) -> int:
        """Memory image of a block; never creates an entry (an untouched
        block is at version 0)."""
        entry = self._entries.get(self._block(addr))
        return 0 if entry is None else entry.version
