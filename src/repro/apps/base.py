"""Application framework.

An :class:`Application` allocates its shared data structures on the
machine (``setup``) and then supplies one operation stream per processor
(``ops``).  The streams are *execution-driven at memory-operation
granularity*: they are produced by actually running the kernel's loops,
so the addresses, their order, the inter-processor sharing pattern and
the barrier structure are those of the real algorithm (see DESIGN.md,
substitution table).

Operation vocabulary (consumed by :class:`repro.node.processor.Processor`):

``('r', addr)`` ``('w', addr)`` ``('work', cycles)``
``('barrier', id)`` ``('lock', id)`` ``('unlock', id)``

Applications may instead describe their streams as *macro ops* —
the elementary vocabulary plus ``('rr', base, stride, count)`` /
``('wr', base, stride, count)`` stride runs and
``('loop', iters, body)`` fixed-slot loops — which the op-stream
compiler (:mod:`repro.apps.opstream`, DESIGN.md §13) lowers to
integer-coded loop instructions (a stride run is a one-slot loop); the
elementary ``ops`` stream is then derived by expansion, so both forms
describe the same stream by construction.
"""

from __future__ import annotations

import abc
import zlib
from typing import Iterator, Tuple

from ..errors import ConfigError
from .opstream import expand_macro

Op = Tuple


def block_partition(n_items: int, proc: int, num_procs: int) -> range:
    """Contiguous (blocked) partition of ``n_items`` among processors."""
    base = n_items // num_procs
    extra = n_items % num_procs
    start = proc * base + min(proc, extra)
    size = base + (1 if proc < extra else 0)
    return range(start, start + size)


def cyclic_partition(n_items: int, proc: int, num_procs: int) -> range:
    """Round-robin (cyclic) partition: items proc, proc+P, proc+2P, ..."""
    return range(proc, n_items, num_procs)


def owner_of_row(row: int, n_rows: int, num_procs: int) -> int:
    """Owner of a row under blocked partitioning."""
    base = n_rows // num_procs
    extra = n_rows % num_procs
    threshold = extra * (base + 1)
    if row < threshold:
        return row // (base + 1)
    return extra + (row - threshold) // base


class Application(abc.ABC):
    """One workload: shared-data setup plus per-processor op streams."""

    #: short name used in reports ("FWA", "GE", ...)
    name: str = "app"

    @abc.abstractmethod
    def setup(self, machine) -> None:
        """Allocate shared structures in ``machine.space``."""

    def ops(self, proc_id: int, machine) -> Iterator[Op]:
        """Yield the elementary operation stream for one processor.

        Subclasses override either this or :meth:`macro_ops`; the
        default of each derives from the other, so the two views always
        agree op for op.
        """
        if type(self).macro_ops is Application.macro_ops:
            raise ConfigError(
                f"{type(self).__name__} overrides neither ops() nor macro_ops()"
            )
        return expand_macro(self.macro_ops(proc_id, machine))

    def macro_ops(self, proc_id: int, machine) -> Iterator[Op]:
        """Yield the macro-op stream for one processor (see module doc)."""
        if type(self).ops is Application.ops:
            raise ConfigError(
                f"{type(self).__name__} overrides neither ops() nor macro_ops()"
            )
        return self.ops(proc_id, machine)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class BarrierSequencer:
    """Deterministic barrier-id source shared across a proc's generator.

    Every processor must create its sequencer the same way and call
    ``next()`` at the same program points, so all processors agree on
    barrier identities without global coordination.
    """

    def __init__(self, app_name: str) -> None:
        # ids only need to be unique within one machine run; hash the app
        # name into the id space so two apps never collide in tests that
        # run multiple apps on one machine.  crc32, not builtin hash():
        # string hashing is salted per process (PYTHONHASHSEED), so
        # hash() would make barrier ids — and every artifact that
        # records them — differ across processes (lint rule N).
        self._base = zlib.crc32(app_name.encode()) % 1000 * 1_000_000
        self._next = 0

    def next(self) -> int:
        bid = self._base + self._next
        self._next += 1
        return bid


def read_row(matrix, i: int, cols: int) -> Iterator[Op]:
    """Ops reading one matrix row element by element."""
    for j in range(cols):
        yield ("r", matrix.addr(i, j))


def touch_every_block(base: int, nbytes: int, block_size: int) -> Iterator[Op]:
    """Ops reading the first word of every block in a range."""
    for offset in range(0, nbytes, block_size):
        yield ("r", base + offset)
