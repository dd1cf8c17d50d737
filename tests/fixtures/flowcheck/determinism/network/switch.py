"""Fixture: a hot-module class without __slots__ (H)."""


class Switch:
    def __init__(self):
        self.busy_until = 0
