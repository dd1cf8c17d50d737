"""Object models of the cache and directory state: fuzz oracles.

The simulator's state kernels are coded (DESIGN.md §10): cache sets are
flat parallel int lists and directory sharer vectors are int bitmasks.
These are the original object models they replaced — a dict of
:class:`CacheLine` per set, and a ``Set[int]`` of sharers per directory
entry — kept with unchanged behaviour as the reference half of the
lockstep fuzzers in ``tests/test_state_differential.py``.  Nothing in
``src/`` uses them.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.cache.states import LineState
from repro.coherence.directory import DirEntry, Directory

_INVALID = LineState.INVALID


class CacheLine:
    """One cache line: tag, MSI state, payload, and LRU timestamp."""

    __slots__ = ("tag", "state", "data", "lru")

    def __init__(self, tag: int, state: LineState, data: int, lru: int) -> None:
        self.tag = tag
        self.state = state
        self.data = data
        self.lru = lru

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Line tag={self.tag:#x} {self.state.value} v{self.data}>"


class CacheArrayObj:
    """The dict-of-:class:`CacheLine` array, with ``CacheArray``'s API.

    Geometry is not validated: the oracle is only ever built with the
    geometry of a ``CacheArray`` that already accepted it.
    """

    def __init__(
        self,
        size: int,
        block_size: int,
        assoc: int,
        replacement: str = "lru",
        seed: int = 0xCAE5A,
    ) -> None:
        self.block_size = block_size
        self.assoc = assoc
        self.num_sets = size // (block_size * assoc)
        self._lru = replacement == "lru"
        self._rng = random.Random(seed) if replacement == "random" else None
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._sets: List[Dict[int, CacheLine]] = [
            dict() for _ in range(self.num_sets)
        ]

    def _index(self, addr: int) -> Tuple[int, int]:
        block = addr // self.block_size
        return block % self.num_sets, block // self.num_sets

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def probe(self, addr: int) -> Optional[CacheLine]:
        """Hit test *without* updating LRU or statistics (snoop-style)."""
        set_idx, tag = self._index(addr)
        line = self._sets[set_idx].get(tag)
        if line is not None and line.state is not _INVALID:
            return line
        return None

    def lookup(self, addr: int) -> Optional[CacheLine]:
        """Hit test that updates LRU and hit/miss statistics."""
        set_idx, tag = self._index(addr)
        line = self._sets[set_idx].get(tag)
        if line is None or line.state is _INVALID:
            self.misses += 1
            return None
        if self._lru:
            self._tick += 1
            line.lru = self._tick
        self.hits += 1
        return line

    def probe_data(self, addr: int) -> Optional[int]:
        line = self.probe(addr)
        return None if line is None else line.data

    def probe_state(self, addr: int) -> int:
        line = self.probe(addr)
        return 0 if line is None else line.state.code

    def lookup_data(self, addr: int) -> Optional[int]:
        line = self.lookup(addr)
        return None if line is None else line.data

    def lookup_state(self, addr: int) -> int:
        line = self.lookup(addr)
        return 0 if line is None else line.state.code

    def write_owned(self, addr: int, data: int) -> bool:
        line = self.probe(addr)
        if line is None or not line.state.owned():
            return False
        line.data = data
        return True

    def set_data(self, addr: int, data: int) -> bool:
        line = self.probe(addr)
        if line is None:
            return False
        line.data = data
        return True

    def downgrade_owned(self, addr: int) -> Optional[int]:
        line = self.probe(addr)
        if line is None or not line.state.owned():
            return None
        line.state = LineState.SHARED
        return line.data

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(
        self, addr: int, state: LineState, data: int
    ) -> Optional[Tuple[int, LineState, int]]:
        """Install a block, evicting per policy if the set is full."""
        set_idx, tag = self._index(addr)
        cache_set = self._sets[set_idx]
        self._tick += 1
        existing = cache_set.get(tag)
        if existing is not None:
            existing.state = state
            existing.data = data
            existing.lru = self._tick
            return None
        victim_info = None
        if len(cache_set) >= self.assoc:
            if self._rng is not None:
                victim_tag = self._rng.choice(sorted(cache_set))
                victim = cache_set[victim_tag]
            else:
                victim_tag = -1
                victim_lru = None
                for tag_i, line_i in cache_set.items():
                    if victim_lru is None or line_i.lru < victim_lru:
                        victim_tag, victim_lru = tag_i, line_i.lru
                victim = cache_set[victim_tag]
            del cache_set[victim_tag]
            if victim.state is not LineState.INVALID:
                self.evictions += 1
                victim_block = victim_tag * self.num_sets + set_idx
                victim_info = (
                    victim_block * self.block_size, victim.state, victim.data
                )
        cache_set[tag] = CacheLine(tag, state, data, self._tick)
        return victim_info

    def set_state(self, addr: int, state: LineState) -> None:
        """Change the state of a resident line (line must be present)."""
        line = self.probe(addr)
        if line is None:
            raise KeyError(f"set_state on non-resident block {addr:#x}")
        line.state = state

    def invalidate(self, addr: int) -> Optional[Tuple[LineState, int]]:
        """Drop a block if present; returns its former (state, data)."""
        set_idx, tag = self._index(addr)
        cache_set = self._sets[set_idx]
        line = cache_set.get(tag)
        if line is None or line.state is LineState.INVALID:
            return None
        del cache_set[tag]
        self.invalidations += 1
        return line.state, line.data

    def clear(self) -> None:
        for cache_set in self._sets:
            cache_set.clear()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def resident_blocks(self) -> Iterator[Tuple[int, CacheLine]]:
        """Yield ``(block_start_addr, line)`` for every valid line."""
        for set_idx, cache_set in enumerate(self._sets):
            for tag, line in cache_set.items():
                if line.state is not LineState.INVALID:
                    block = tag * self.num_sets + set_idx
                    yield block * self.block_size, line

    def occupancy(self) -> int:
        """Number of occupied slots (valid and INVALID-state lines)."""
        return sum(len(s) for s in self._sets)

    def set_len(self, set_idx: int) -> int:
        return len(self._sets[set_idx])


class DirEntryObj(DirEntry):
    """A directory entry whose sharers are a ``Set[int]``.

    The private ``_sharers`` set is the storage; the mask slots of the
    coded base class go unused.
    """

    __slots__ = ("_sharers",)

    def __init__(self) -> None:
        super().__init__()
        self._sharers: Set[int] = set()

    def has_sharer(self, node: int) -> bool:
        return node in self._sharers

    def num_sharers(self) -> int:
        return len(self._sharers)

    def add_sharer_node(self, node: int) -> None:
        self._sharers.add(node)

    def clear_sharer_nodes(self) -> None:
        self._sharers.clear()

    def sorted_sharers(self) -> List[int]:
        return sorted(self._sharers)

    @property
    def sharers(self) -> Set[int]:
        return self._sharers


class DirectoryObj(Directory):
    """A :class:`Directory` whose entries are :class:`DirEntryObj`."""

    def entry(self, addr: int) -> DirEntry:
        block = self._block(addr)
        entry = self._entries.get(block)
        if entry is None:
            entry = DirEntryObj()
            self._entries[block] = entry
        return entry
