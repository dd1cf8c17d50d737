"""Synthetic workloads with controlled sharing patterns.

These are not paper workloads; they exist to exercise specific protocol
paths deterministically in unit/property tests and to demonstrate the
switch-cache mechanism in isolation:

* :class:`SharedReaders` — one producer, N-1 consumers (maximal sharing).
* :class:`UniformRandom` — seeded random traffic over a shared array.
* :class:`HotBlock` — all processors read one block, the owner rewrites
  it, repeat (stresses invalidation and the corrective-INV race).
* :class:`PrivateWork` — purely local traffic (baseline sanity).
"""

from __future__ import annotations

import random
from typing import Iterator

from ..system.addressing import Vector
from .base import Application, BarrierSequencer, Op


class SharedReaders(Application):
    """Proc 0 writes an array; everyone then reads it ``rounds`` times."""

    name = "shared-readers"

    def __init__(self, nbytes: int = 4096, rounds: int = 2, stride: int = 8) -> None:
        self.nbytes = nbytes
        self.rounds = rounds
        self.stride = stride
        self.data = None

    def setup(self, machine) -> None:
        self.data = Vector(
            machine.space, self.nbytes // 8, home=0, interleave=False
        )

    def macro_ops(self, proc_id: int, machine) -> Iterator[Op]:
        barriers = BarrierSequencer(self.name)
        n_words = self.nbytes // 8
        step = self.stride // 8 or 1
        count = len(range(0, n_words, step))
        base = self.data.base
        stride = step * self.data.elem_bytes
        if proc_id == 0:
            yield ("wr", base, stride, count)
        yield ("barrier", barriers.next())
        for _round in range(self.rounds):
            yield ("rr", base, stride, count)
            yield ("barrier", barriers.next())


class UniformRandom(Application):
    """Seeded random reads/writes over one shared interleaved array."""

    name = "uniform-random"

    def __init__(
        self,
        ops_per_proc: int = 500,
        nbytes: int = 64 * 1024,
        write_fraction: float = 0.2,
        seed: int = 42,
    ) -> None:
        self.ops_per_proc = ops_per_proc
        self.nbytes = nbytes
        self.write_fraction = write_fraction
        self.seed = seed
        self.data = None

    def setup(self, machine) -> None:
        self.data = Vector(machine.space, self.nbytes // 8, interleave=True)

    def ops(self, proc_id: int, machine) -> Iterator[Op]:
        rng = random.Random(self.seed + proc_id)
        n_words = self.nbytes // 8
        for _ in range(self.ops_per_proc):
            word = rng.randrange(n_words)
            addr = self.data.addr(word)
            if rng.random() < self.write_fraction:
                yield ("w", addr)
            else:
                yield ("r", addr)


class HotBlock(Application):
    """All processors read one hot block; proc 0 rewrites it each round."""

    name = "hot-block"

    def __init__(self, rounds: int = 5) -> None:
        self.rounds = rounds
        self.data = None

    def setup(self, machine) -> None:
        self.data = Vector(machine.space, 8, home=0, interleave=False)

    def ops(self, proc_id: int, machine) -> Iterator[Op]:
        barriers = BarrierSequencer(self.name)
        addr = self.data.addr(0)
        for _round in range(self.rounds):
            if proc_id == 0:
                yield ("w", addr)
            yield ("barrier", barriers.next())
            yield ("r", addr)
            yield ("barrier", barriers.next())


class PrivateWork(Application):
    """Each processor touches only its own locally-homed array."""

    name = "private-work"

    def __init__(self, nbytes_per_proc: int = 8192, rounds: int = 2) -> None:
        self.nbytes = nbytes_per_proc
        self.rounds = rounds
        self.arrays = None

    def setup(self, machine) -> None:
        self.arrays = [
            Vector(machine.space, self.nbytes // 8,
                   home=machine.node_of_proc(p), interleave=False)
            for p in range(machine.num_procs)
        ]

    def macro_ops(self, proc_id: int, machine) -> Iterator[Op]:
        mine = self.arrays[proc_id]
        n_words = self.nbytes // 8
        base, eb = mine.base, mine.elem_bytes
        for _round in range(self.rounds):
            yield ("loop", n_words, (("r", base, eb),
                                     ("w", base, eb),
                                     ("work", 2)))
