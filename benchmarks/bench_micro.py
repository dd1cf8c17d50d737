"""Microbenchmarks of the simulator's hot paths.

These are true pytest-benchmark measurements (many iterations): cache
array probes, BMIN route computation, switch-cache engine operations, and
the event engine itself.  They guard against performance regressions that
would make the paper-scale experiments impractically slow.
"""

from repro.cache.array import CacheArray
from repro.cache.states import LineState
from repro.core.caesar import CaesarEngine
from repro.core.switchcache import SwitchCacheGeometry
from repro.network.message import Message, MsgKind
from repro.network.topology import BminTopology
from repro.sim.engine import Simulator


def test_cache_array_lookup(benchmark):
    array = CacheArray(16 * 1024, 64, 2)
    for block in range(256):
        array.insert(block * 64, LineState.SHARED, 1)

    def probe_all():
        hits = 0
        for block in range(256):
            if array.lookup(block * 64) is not None:
                hits += 1
        return hits

    assert benchmark(probe_all) == 256


def test_bmin_routing(benchmark):
    topo = BminTopology(16)

    def route_all_pairs():
        total = 0
        for a in range(16):
            for b in range(16):
                if a != b:
                    total += len(topo.path(a, b))
        return total

    assert benchmark(route_all_pairs) > 0


def test_event_engine_throughput(benchmark):
    """Steady-state engine load: a few thousand events pending.

    A schedule-one/fire-one loop keeps exactly one event queued, which
    measures nothing about the heap.  This one holds a few thousand
    events pending (a 16-node machine peaks in the tens-to-hundreds;
    paper-scale configs go higher): every fired event reschedules itself
    at one of the machine's short constant delays, with every 16th one
    parked further out, so per-op cost at realistic depth is what gets
    measured.
    """
    DEPTH = 3_000
    TOTAL = 15_000

    def run_steady_state():
        sim = Simulator()
        fired = [0]

        def tick(delay):
            fired[0] += 1
            if fired[0] + sim.pending < TOTAL:
                far = 200 if fired[0] % 16 == 0 else 0
                sim.call(delay + far, tick, delay)

        for i in range(DEPTH):
            sim.call(1 + (i % 64), tick, 1 + (i % 7) * 4)
        sim.run()
        return fired[0]

    assert benchmark(run_steady_state) == TOTAL


def test_caesar_deposit_then_hit(benchmark):
    def deposit_and_intercept():
        sim = Simulator()
        engine = CaesarEngine(sim, (1, 0), SwitchCacheGeometry(size=2048))
        served = 0
        for block in range(64):
            addr = block * 64
            reply = Message(MsgKind.DATA_S, 0, 1, addr, 9, data=1)
            engine.try_deposit(reply)
            request = Message(MsgKind.READ, 2, 0, addr, 1)
            if engine.try_intercept(request) is not None:
                served += 1
            # worms arrive spaced out; keep the engine's ports drained so
            # the busy-bypass policy (correctly) stays out of the way
            sim.now += 16
        return served

    assert benchmark(deposit_and_intercept) == 64
