"""Tests of the processor model: op execution, fast-forward, stalls."""

import pytest

from repro.errors import SimulationError
from repro.system.machine import Machine

from conftest import ScriptedApp, run_scripted, tiny_config


class TestExecution:
    def test_ops_executed_counted(self):
        machine, _stats = run_scripted(
            {1: [("r", ("blk", 0)), ("w", ("blk", 0)), ("work", 10)]},
            blocks=1, home=0,
        )
        assert machine.nodes[1].processor.ops_executed == 3

    def test_work_advances_time(self):
        machine, stats = run_scripted({1: [("work", 12345)]}, blocks=1)
        assert stats.finish_times[1] >= 12345

    def test_unknown_op_raises(self):
        with pytest.raises(SimulationError):
            run_scripted({1: [("frobnicate", 1)]}, blocks=1)

    def test_empty_stream_finishes_immediately(self):
        machine, stats = run_scripted({}, blocks=1)
        assert stats.exec_time == 0 or stats.exec_time >= 0
        assert all(node.processor.done for node in machine.nodes)

    def test_read_stall_accumulates_on_misses(self):
        machine, _stats = run_scripted(
            {1: [("r", ("blk", 0))]}, blocks=1, home=0
        )
        proc = machine.nodes[1].processor
        # a remote read costs well over the L2 hit time
        assert proc.read_stall_cycles > 50

    def test_hits_do_not_stall(self):
        machine, _stats = run_scripted(
            {1: [("r", ("blk", 0))] + [("r", ("blk", 0))] * 10},
            blocks=1, home=0,
        )
        proc = machine.nodes[1].processor
        first_stall = proc.read_stall_cycles
        assert first_stall > 0
        # re-runs of the same read added no stall: only 1 miss happened
        assert machine.nodes[1].l2ctrl.reads_issued == 1


class TestFinish:
    def test_finished_processor_holds_no_stream(self):
        # a read miss, a work op and a lock on every processor but one,
        # whose stream is empty
        script = [("r", ("blk", 0)), ("work", 5), ("lock", 0), ("unlock", 0)]
        machine, _stats = run_scripted(
            {p: script for p in range(3)}, blocks=1, home=0,
        )
        for node in machine.nodes:
            proc = node.processor
            assert proc.done
            assert proc._chunks is None
            assert proc._code == []
            assert proc._kinds == proc._addrs == proc._strides == []


class TestFastForward:
    def test_quantum_bounds_run_ahead(self):
        # a long pure-compute stream must still yield to the event queue:
        # with quantum Q the processor schedules itself roughly every Q
        config = tiny_config(quantum=100)
        machine = Machine(config)
        app = ScriptedApp({1: [("work", 10)] * 200}, blocks=1)
        stats = machine.run(app)
        # 200 * 10 = 2000 cycles of work; quantum 100 means >= ~20 yields
        assert stats.finish_times[1] >= 2000
        assert machine.sim.events_fired >= 20

    def test_local_clock_reaches_global_clock(self):
        machine, stats = run_scripted(
            {1: [("work", 500), ("r", ("blk", 0))]}, blocks=1, home=0
        )
        proc = machine.nodes[1].processor
        assert proc.finish_time >= 500
        assert stats.exec_time >= proc.finish_time - 1


class TestValueTrace:
    def test_trace_records_reads_with_versions(self):
        machine, _stats = run_scripted(
            {1: [("w", ("blk", 0)), ("r", ("blk", 0))]}, blocks=1, home=0
        )
        # the read was forwarded from the write buffer; after drain the
        # L2 line holds version 1
        app_trace = machine.nodes[1].processor.value_trace
        assert all(entry[0] == "r" for entry in app_trace)

    def test_write_trace_records_versions(self):
        machine, _stats = run_scripted(
            {1: [("w", ("blk", 0)), ("w", ("blk", 1))]}, blocks=2, home=0
        )
        writes = machine.nodes[1].write_trace
        assert [w[2] for w in writes] == [1, 1]

    def test_trace_disabled_by_default_config(self):
        config = tiny_config(trace_values=False)
        machine = Machine(config)
        machine.run(ScriptedApp({1: [("r", ("blk", 0))]}, blocks=1, home=0))
        assert machine.nodes[1].processor.value_trace == []


class TestStallAccounting:
    def test_wb_stall_cycles(self):
        config = tiny_config(write_buffer_entries=1)
        machine = Machine(config)
        app = ScriptedApp(
            {1: [("w", ("blk", i)) for i in range(8)]}, blocks=8, home=0
        )
        machine.run(app)
        assert machine.nodes[1].processor.wb_stall_cycles > 0

    def test_sync_stall_zero_without_sync(self):
        machine, _stats = run_scripted({1: [("work", 100)]}, blocks=1)
        assert machine.nodes[1].processor.sync_stall_cycles == 0
