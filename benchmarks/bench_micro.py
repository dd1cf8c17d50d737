"""Microbenchmarks of the simulator's hot paths.

These are true pytest-benchmark measurements (many iterations): cache
array probes, BMIN route computation, machine construction, switch-cache
engine operations, the event engine itself, the processor front end's
per-element loop, and the statistics recorded per read miss.  They guard
against performance regressions that would make the paper-scale
experiments impractically slow.
"""

import random

import pytest

from repro.apps.opstream import OP_LOOP, SLOT_R, SLOT_W, SLOT_WORK
from repro.cache.array import CacheArray
from repro.cache.states import LineState
from repro.coherence.messages import Transaction
from repro.core.caesar import CaesarEngine
from repro.network.message import Message, MsgKind
from repro.network.topology import BminTopology
from repro.sim.engine import Simulator
from repro.stats.counters import MachineStats
from repro.system.machine import Machine
from repro.system.presets import base_config, switch_cache_config


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


@pytest.mark.parametrize("num_nodes", (16, 64))
def test_machine_construction(benchmark, num_nodes):
    """Building a switch-cache machine, with the garbage collector left
    on: the collections a build triggers over the live heap count too."""
    config = switch_cache_config(num_nodes)
    machine = benchmark.pedantic(
        Machine, args=(config,), kwargs={"sanitize": False},
        rounds=20, warmup_rounds=1,
    )
    assert len(machine.nodes) == num_nodes


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
    config = switch_cache_config(16)

    def deposit_and_intercept():
        sim = Simulator()
        engine = CaesarEngine(sim, (1, 0), config)
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


def test_record_read_txn(benchmark):
    """The per-miss cost of the sharing analysis: 4,096 remote read
    misses from 16 processors over 512 blocks, each block's version
    advancing now and then, as writes between the reads would."""
    rng = random.Random(1)
    txns = []
    versions = {}
    for _ in range(4096):
        proc = rng.randrange(16)
        addr = rng.randrange(512) * 64
        if rng.random() < 0.1:
            versions[addr] = versions.get(addr, 0) + 1
        txn = Transaction("read", addr, proc, addr // 64 % 16, 64, 0)
        txn.served_by = "remote_mem"
        txn.data = versions.get(addr, 0)
        txns.append((proc, txn))

    def record_all():
        stats = MachineStats(16)
        record = stats.record_read_txn
        for proc, txn in txns:
            record(proc, txn, 100)
        return stats.ideal_global_hits + stats.ideal_global_misses

    assert benchmark(record_all) == len(txns)


#: an 8 KB grid of 32 rows x 32 eight-byte elements: one L1 way's worth
GRID_ROWS = 32
GRID_PITCH = 32 * 8


def _mm_loops():
    # MM's k loop for every column j: A's row element by element, B's
    # column row by row (stride = row pitch)
    code = []
    for j in range(GRID_ROWS):
        code += (OP_LOOP, GRID_ROWS, 2,
                 SLOT_R, 0, 8,
                 SLOT_R, j * 8, GRID_PITCH)
    return code


def _sor_loops():
    # SOR's red-black sweep of the interior rows: four neighbour reads,
    # the point's work, and its store, every other element
    code = []
    for i in range(1, GRID_ROWS - 1):
        mid = i * GRID_PITCH + (1 + i % 2) * 8
        code += (OP_LOOP, 15, 6,
                 SLOT_R, mid - GRID_PITCH, 16,
                 SLOT_R, mid + GRID_PITCH, 16,
                 SLOT_R, mid - 8, 16,
                 SLOT_R, mid + 8, 16,
                 SLOT_WORK, 4, 0,
                 SLOT_W, mid, 16)
    return code


def _gs_runs():
    # GS's update of each row it owns: an ``rr`` over the row, then a
    # ``wr`` over it, each compiled to a one-slot loop
    code = []
    for i in range(GRID_ROWS):
        row = i * GRID_PITCH
        code += (OP_LOOP, GRID_ROWS, 1, SLOT_R, row, 8,
                 OP_LOOP, GRID_ROWS, 1, SLOT_W, row, 8)
    return code


@pytest.mark.parametrize("loops, ops", [
    (_mm_loops, GRID_ROWS * GRID_ROWS * 2),
    (_sor_loops, (GRID_ROWS - 2) * 15 * 6),
    (_gs_runs, GRID_ROWS * GRID_ROWS * 2),
], ids=["mm-body", "sor-body", "gs-runs"])
def test_processor_loop_per_element(benchmark, loops, ops):
    """OP_LOOP bodies over L1-resident data: every iteration runs slot by
    slot, so this is the cost of the path every app loop takes.  The
    stride runs (gs-runs) are one-slot loops."""
    code = loops()

    def setup():
        machine = Machine(base_config(2), sanitize=False)
        stack = next(machine.stacks())
        # every grid block in L1, and owned in L2 so stores drain locally
        for block in range(0, GRID_ROWS * GRID_PITCH, 64):
            stack.hierarchy.fill(block, LineState.MODIFIED, 0, fill_l1=True)
        return (machine, stack), {}

    def run(machine, stack):
        stack.processor.start([code])
        machine.sim.run()
        return stack.processor.ops_executed, stack.hierarchy.l1.misses

    assert benchmark.pedantic(run, setup=setup, rounds=20) == (ops, 0)
