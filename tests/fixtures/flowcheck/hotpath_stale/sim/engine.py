"""Fixture: a hot region renamed away (P-STALE).

``Simulator.run_until_stop`` is listed in HOT_REGIONS but the loop here
is still called ``run_while``; every other configured module is absent.
"""


class Simulator:
    __slots__ = ("now",)

    def call_at(self, time):
        return time

    def step(self):
        return False

    def run(self):
        return self.now

    def run_while(self):
        return self.now
