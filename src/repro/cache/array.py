"""Set-associative SRAM cache array mechanics.

This is pure state bookkeeping — hit/miss decisions, LRU replacement,
invalidation — with no timing.  Timing lives in the controllers that own an
array (the node-side hierarchy, the network cache, and the CAESAR switch
cache), because each of those clocks its array differently.

Lines carry a ``data`` payload.  Throughout the simulator the payload is a
*version number* for the block (incremented by every write), which lets the
test suite check coherence end-to-end: a read must never observe a version
older than the last write that completed before it.

:class:`CacheArray` is a *coded* kernel (DESIGN.md §10).  Each set is a
slice of four flat parallel int lists (``tag``/``state``/``data``/``lru``),
states are the small-int codes from :mod:`repro.cache.states`, and the
occupied slots of a set form an unsorted prefix, so every insert and
invalidate is constant-time apart from the victim scan.
``probe``/``lookup`` return a :class:`LineView` over the slot; the
allocation-free ``*_data``/``*_state`` variants are what the simulation
hot paths use.

The original dict-of-lines model survives as a test oracle
(``tests/reference_models.py``): the lockstep fuzzer in
``tests/test_state_differential.py`` holds the two observationally
identical op by op — same hits/misses/evictions, same victims, same
seeded-random victim choices.
"""

from __future__ import annotations

import random as _random
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import ConfigError
from .states import LINE_STATE_BY_CODE, LineState


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def check_geometry(
    size: int, block_size: int, assoc: int, name: str = "cache"
) -> int:
    """Validate a set-associative geometry; returns its set count.

    ``block_size`` and the set count must be powers of two (blocks and
    sets are selected by masking) and ``size`` a positive multiple of
    ``block_size * assoc``.  :class:`CacheArray` and
    :class:`~repro.system.config.SystemConfig` share this one check, so
    a config that constructs builds every cache its machine asks for.
    """
    if block_size <= 0 or not _is_power_of_two(block_size):
        raise ConfigError(
            f"{name} block_size must be a power of two, got {block_size}"
        )
    if assoc <= 0:
        raise ConfigError(f"{name} assoc must be positive, got {assoc}")
    if size <= 0 or size % (block_size * assoc) != 0:
        raise ConfigError(
            f"{name} size {size} not a multiple of block_size*assoc "
            f"({block_size}*{assoc})"
        )
    num_sets = size // (block_size * assoc)
    if not _is_power_of_two(num_sets):
        raise ConfigError(f"{name} set count {num_sets} is not a power of two")
    return num_sets


#: hoisted decode table and codes (module-level lookups in hot methods)
_DECODE = LINE_STATE_BY_CODE
_CODE_SHARED = LineState.SHARED.code
_CODE_MODIFIED = LineState.MODIFIED.code


class LineView:
    """A live window onto one occupied slot of the coded array.

    Reads and writes go straight through to the parallel lists, so a view
    behaves like a line object (``tag``/``state``/``data``/``lru``) for
    snoop-style callers.  Views are transient: holding one across an
    ``insert`` or ``invalidate`` that reshuffles the set is undefined.
    """

    __slots__ = ("_arr", "_slot")

    def __init__(self, arr: "CacheArray", slot: int) -> None:
        self._arr = arr
        self._slot = slot

    @property
    def tag(self) -> int:
        return self._arr._tags[self._slot]

    @property
    def state(self) -> LineState:
        return _DECODE[self._arr._states[self._slot]]

    @state.setter
    def state(self, value: LineState) -> None:
        self._arr._states[self._slot] = value.code

    @property
    def data(self) -> int:
        return self._arr._data[self._slot]

    @data.setter
    def data(self, value: int) -> None:
        self._arr._data[self._slot] = value

    @property
    def lru(self) -> int:
        return self._arr._lrus[self._slot]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Line tag={self.tag:#x} {self.state.value} v{self.data}>"


class CacheArray:
    """A set-associative array in struct-of-arrays form.

    Parameters mirror a hardware description: total ``size`` in bytes,
    ``block_size`` in bytes, ``assoc`` ways.  ``size`` must be a multiple of
    ``block_size * assoc`` and the resulting set count a power of two (the
    paper's caches are all power-of-two sized).

    ``replacement`` selects the victim policy: ``'lru'`` (true LRU,
    default), ``'fifo'`` (insertion order; cheaper hardware since hits do
    not touch the replacement state), or ``'random'`` (seeded, so runs
    stay deterministic).

    A set owns ``assoc`` contiguous slots of four flat parallel lists,
    starting at ``_base[s]``.  The lists start empty and a set's slice is
    appended at its first fill (:meth:`_open_set`), so a machine pays only
    for the sets its run touches; ``_base[s] == -1`` marks a set never
    filled.  ``_tags[slot] == -1`` marks an empty slot; occupied slots form
    an unsorted prefix of the set.  A new block takes the next free slot,
    an evicted one is overwritten in place, and an invalidated one is
    filled by the set's last occupied way.  LRU and FIFO evict the
    minimum timestamp; timestamps are unique, so slot order never
    changes the victim.  The seeded random victim keeps the object-model
    oracle's draw, ``rng.choice`` over the set's tags in sorted order,
    through a sorted view built only when that policy evicts
    (:meth:`_random_victim`).  States are small-int codes
    (``states.py``).
    """

    REPLACEMENT_POLICIES = ("lru", "fifo", "random")

    __slots__ = (
        "replacement", "_lru", "_rng", "size", "block_size", "assoc",
        "num_sets", "name", "_tick", "hits", "misses", "evictions",
        "invalidations",
        "_tags", "_states", "_data", "_lrus", "_base", "_occ", "_occupied",
        "_set_mask", "_set_bits", "_block_shift", "_victim_range", "_slot",
    )

    def __init__(
        self,
        size: int,
        block_size: int,
        assoc: int,
        name: str = "",
        replacement: str = "lru",
        seed: int = 0xCAE5A,
    ) -> None:
        if replacement not in self.REPLACEMENT_POLICIES:
            raise ConfigError(f"unknown replacement policy {replacement!r}")
        self.replacement = replacement
        self._lru = replacement == "lru"  # hot-path flag (no str compare)
        self._rng = _random.Random(seed) if replacement == "random" else None
        num_sets = check_geometry(size, block_size, assoc, name or "cache")
        self.size = size
        self.block_size = block_size
        self.assoc = assoc
        self.num_sets = num_sets
        self.name = name
        self._tick = 0
        # statistics
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        # slot storage grows a set at a time (_open_set); the lists are
        # only ever extended or emptied in place, never rebound, because
        # Processor._loop holds them across inserts
        self._tags: List[int] = []
        self._states: List[int] = []
        self._data: List[int] = []
        self._lrus: List[int] = []
        self._base: List[int] = [-1] * num_sets
        self._occ: List[int] = [0] * num_sets
        self._occupied = 0
        self._set_mask = self.num_sets - 1
        self._set_bits = self.num_sets.bit_length() - 1
        self._block_shift = block_size.bit_length() - 1
        self._victim_range = range(assoc)
        # block -> slot index over the parallel lists.  The dict is pure
        # acceleration (the lists alone are authoritative): a hit is one
        # hash probe instead of a bounded list.index with a ValueError on
        # every miss, which profiling showed dominating the lookup cost.
        self._slot: Dict[int, int] = {}

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.name or ''} {self.size}B "
            f"{self.num_sets}x{self.assoc}x{self.block_size}B>"
        )

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def probe(self, addr: int) -> Optional[LineView]:
        """Hit test *without* updating LRU or statistics (snoop-style)."""
        i = self._slot.get(addr >> self._block_shift)
        if i is not None and self._states[i]:
            return LineView(self, i)
        return None

    def lookup(self, addr: int) -> Optional[LineView]:
        """Hit test that updates LRU and hit/miss statistics."""
        i = self._slot.get(addr >> self._block_shift)
        if i is None or not self._states[i]:
            self.misses += 1
            return None
        if self._lru:
            self._tick += 1
            self._lrus[i] = self._tick
        self.hits += 1
        return LineView(self, i)

    # -- allocation-free variants (simulation hot paths) ----------------
    def probe_data(self, addr: int) -> Optional[int]:
        i = self._slot.get(addr >> self._block_shift)
        if i is not None and self._states[i]:
            return self._data[i]
        return None

    def probe_state(self, addr: int) -> int:
        """State code of a resident block (0 when absent or INVALID)."""
        i = self._slot.get(addr >> self._block_shift)
        return self._states[i] if i is not None else 0

    def lookup_data(self, addr: int) -> Optional[int]:
        """`lookup` returning the payload directly (same stats/LRU)."""
        i = self._slot.get(addr >> self._block_shift)
        if i is None or not self._states[i]:
            self.misses += 1
            return None
        if self._lru:
            self._tick += 1
            self._lrus[i] = self._tick
        self.hits += 1
        return self._data[i]

    def lookup_state(self, addr: int) -> int:
        """`lookup` returning the state code (0 on miss; same stats/LRU)."""
        i = self._slot.get(addr >> self._block_shift)
        if i is None or not self._states[i]:
            self.misses += 1
            return 0
        if self._lru:
            self._tick += 1
            self._lrus[i] = self._tick
        self.hits += 1
        return self._states[i]

    def write_owned(self, addr: int, data: int) -> bool:
        """Commit a store if the copy is owned (M)."""
        i = self._slot.get(addr >> self._block_shift)
        if i is None or self._states[i] != _CODE_MODIFIED:
            return False
        self._data[i] = data
        return True

    def set_data(self, addr: int, data: int) -> bool:
        """Update the payload of a resident block (no state change)."""
        i = self._slot.get(addr >> self._block_shift)
        if i is not None and self._states[i]:
            self._data[i] = data
            return True
        return False

    def downgrade_owned(self, addr: int) -> Optional[int]:
        """M -> S; returns the payload, or None if not resident-owned."""
        i = self._slot.get(addr >> self._block_shift)
        if i is None or self._states[i] != _CODE_MODIFIED:
            return None
        self._states[i] = _CODE_SHARED
        return self._data[i]

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(
        self, addr: int, state: LineState, data: int
    ) -> Optional[Tuple[int, LineState, int]]:
        """Install a block, evicting per policy if the set is full.

        Returns ``(victim_addr, victim_state, victim_data)`` when a valid
        line was displaced, else None.  Inserting over an existing line for
        the same block updates it in place (no eviction).
        """
        block = addr >> self._block_shift
        slot = self._slot
        self._tick = tick = self._tick + 1
        i = slot.get(block)
        if i is not None:
            self._states[i] = state.code
            self._data[i] = data
            self._lrus[i] = tick
            return None
        set_idx = block & self._set_mask
        assoc = self.assoc
        base = self._base[set_idx]
        n = self._occ[set_idx]
        tags = self._tags
        states = self._states
        datas = self._data
        lrus = self._lrus
        victim_info = None
        if n < assoc:
            if base < 0:  # the set's first fill (a full set is open)
                base = self._open_set(set_idx)
            i = base + n
            self._occ[set_idx] = n + 1
            self._occupied += 1
        else:
            rng = self._rng
            if rng is not None:
                i = self._random_victim(rng, base)
            else:
                # LRU and FIFO both evict the minimum timestamp; they
                # differ in whether hits refresh it (see lookup).  A
                # manual scan beats min(key=lambda) at these small assocs
                i = base
                victim_lru = lrus[base]
                for j in range(base + 1, base + assoc):
                    if lrus[j] < victim_lru:
                        i, victim_lru = j, lrus[j]
            victim_block = tags[i] * self.num_sets + set_idx
            code = states[i]
            if code:
                self.evictions += 1
                victim_info = (
                    victim_block * self.block_size, _DECODE[code], datas[i]
                )
            del slot[victim_block]
        tags[i] = block >> self._set_bits
        states[i] = state.code
        datas[i] = data
        lrus[i] = tick
        slot[block] = i
        return victim_info

    def _open_set(self, set_idx: int) -> int:
        """Append ``assoc`` empty slots for ``set_idx``; returns its base.

        Cold: runs once per set, at the set's first fill.
        """
        assoc = self.assoc
        base = len(self._tags)
        self._tags.extend([-1] * assoc)
        self._states.extend([0] * assoc)
        self._data.extend([0] * assoc)
        self._lrus.extend([0] * assoc)
        self._base[set_idx] = base
        return base

    def _random_victim(self, rng: _random.Random, base: int) -> int:
        """Slot of the seeded random victim in the full set at ``base``.

        The oracle draws ``rng.choice(sorted(tags))``; the same draw
        indexes a tag-sorted view of the set's slots.
        """
        k = rng.choice(self._victim_range)
        tags = self._tags
        return sorted(range(base, base + self.assoc), key=tags.__getitem__)[k]

    def set_state(self, addr: int, state: LineState) -> None:
        """Change the state of a resident line (line must be present)."""
        i = self._slot.get(addr >> self._block_shift)
        if i is None or not self._states[i]:
            raise KeyError(f"set_state on non-resident block {addr:#x}")
        self._states[i] = state.code

    def invalidate(self, addr: int) -> Optional[Tuple[LineState, int]]:
        """Drop a block if present; returns its former (state, data)."""
        block = addr >> self._block_shift
        slot = self._slot
        i = slot.get(block)
        if i is None:
            return None
        states = self._states
        code = states[i]
        if not code:
            return None
        datas = self._data
        former = (_DECODE[code], datas[i])
        set_idx = block & self._set_mask
        n = self._occ[set_idx] - 1
        last = self._base[set_idx] + n
        tags = self._tags
        del slot[block]
        if i != last:
            # the set's last way fills the hole: the prefix stays dense
            tag = tags[last]
            tags[i] = tag
            states[i] = states[last]
            datas[i] = datas[last]
            self._lrus[i] = self._lrus[last]
            slot[tag * self.num_sets + set_idx] = i
        tags[last] = -1
        self._occ[set_idx] = n
        self._occupied -= 1
        self.invalidations += 1
        return former

    def clear(self) -> None:
        """Empty the array back to its just-built state: no slots."""
        for column in (self._tags, self._states, self._data, self._lrus):
            column.clear()
        self._base[:] = [-1] * self.num_sets
        self._occ[:] = [0] * self.num_sets
        self._occupied = 0
        self._slot.clear()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def resident_blocks(self) -> Iterator[Tuple[int, LineView]]:
        """Yield ``(block_start_addr, line)`` for every valid line."""
        tags = self._tags
        states = self._states
        occ = self._occ
        # set-major order; a set never filled has occupancy 0
        for set_idx, base in enumerate(self._base):
            for i in range(base, base + occ[set_idx]):
                if states[i]:
                    block = tags[i] * self.num_sets + set_idx
                    yield block * self.block_size, LineView(self, i)

    def occupancy(self) -> int:
        """Number of occupied slots (valid and INVALID-state lines)."""
        return self._occupied

    def set_len(self, set_idx: int) -> int:
        return self._occ[set_idx]
