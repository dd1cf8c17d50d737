"""Fixture: instantiating a slot-less class in a hot region (P-NOSLOTS)."""

from sim.types import Event


class Simulator:
    __slots__ = ()

    def call_at(self):
        return Event()
