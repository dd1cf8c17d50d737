"""Tests for statistics aggregation and report rendering."""

import json

from repro.coherence.messages import Transaction
from repro.stats.counters import MachineStats
from repro.stats.latency import breakdown_table, format_bars, service_bars
from repro.stats.report import format_series, format_table, percent


def read_txn(node=1, home=0, addr=0x40, served_by="remote_mem", stage=None,
             issued=0, completed=100, data=0):
    txn = Transaction("read", addr, node, home, 64, issued)
    txn.completed_at = completed
    txn.served_by = served_by
    txn.served_stage = stage
    txn.data = data
    return txn


class TestMachineStats:
    def test_read_hit_recording(self):
        stats = MachineStats(4)
        stats.add_read_hits(0, 0, 1, 0)
        stats.add_read_hits(0, 0, 0, 1)
        stats.add_read_hits(1, 1, 0, 0)
        assert stats.read_counts["l1"] == 1
        assert stats.total_reads() == 3
        assert stats.per_node_reads[0] == 2

    def test_read_txn_recording(self):
        stats = MachineStats(4)
        stats.record_read_txn(1, read_txn(), stall=80)
        assert stats.read_counts["remote_mem"] == 1
        assert stats.read_latency["remote_mem"] == 80
        assert stats.mean_latency("remote_mem") == 80.0

    def test_switch_stage_attribution(self):
        stats = MachineStats(4)
        stats.record_read_txn(1, read_txn(served_by="switch", stage=2), 50)
        stats.record_read_txn(1, read_txn(served_by="switch", stage=2), 50)
        assert stats.switch_hits_by_stage == {2: 2}

    def test_remote_reads_classification(self):
        stats = MachineStats(4)
        stats.add_read_hits(0, 0, 1, 0)
        stats.record_read_txn(0, read_txn(served_by="local_mem"), 60)
        stats.record_read_txn(0, read_txn(served_by="remote_mem"), 120)
        stats.record_read_txn(0, read_txn(served_by="owner"), 150)
        stats.record_read_txn(0, read_txn(served_by="switch", stage=1), 70)
        assert stats.remote_reads() == 3
        assert stats.reads_at_remote_memory() == 2
        assert stats.shared_reads() == 4

    def test_service_distribution_sums_to_one(self):
        stats = MachineStats(4)
        stats.add_read_hits(0, 0, 1, 0)
        stats.record_read_txn(0, read_txn(), 100)
        dist = stats.service_distribution()
        assert abs(sum(dist.values()) - 1.0) < 1e-9

    def test_service_distribution_empty(self):
        dist = MachineStats(4).service_distribution()
        assert all(v == 0.0 for v in dist.values())

    def test_finish_times_set_exec_time(self):
        stats = MachineStats(2)
        stats.record_finish(0, 500)
        assert stats.exec_time is None
        stats.record_finish(1, 900)
        assert stats.exec_time == 900

    def test_write_txn_recording(self):
        stats = MachineStats(4)
        txn = Transaction("write", 0x40, 1, 0, 64, 0)
        txn.completed_at = 200
        stats.record_write_txn(txn)
        up = Transaction("upgrade", 0x80, 1, 0, 64, 0)
        up.completed_at = 100
        stats.record_write_txn(up)
        assert stats.writes_completed == 1
        assert stats.upgrades_completed == 1
        assert stats.write_latency == 300

    def test_sharing_histogram(self):
        stats = MachineStats(4)
        stats.record_read_txn(0, read_txn(addr=0x40, data=0), 10)
        stats.record_read_txn(1, read_txn(node=1, addr=0x40, data=0), 10)
        stats.record_read_txn(2, read_txn(node=2, addr=0x80, data=0), 10)
        hist = stats.sharing_histogram(4)
        assert hist[2] == 2  # two reads to the 2-reader block
        assert hist[1] == 1
        assert 1.0 < stats.mean_sharing_degree() < 2.0

    def test_ideal_global_cache_tracking(self):
        stats = MachineStats(4)
        stats.record_read_txn(0, read_txn(addr=0x40, data=0), 10)
        stats.record_read_txn(1, read_txn(node=1, addr=0x40, data=0), 10)
        stats.record_read_txn(2, read_txn(node=2, addr=0x40, data=1), 10)
        assert stats.ideal_global_hits == 1
        assert stats.ideal_global_misses == 2
        assert abs(stats.ideal_global_hit_rate() - 1 / 3) < 1e-9

    def test_mean_remote_read_latency(self):
        stats = MachineStats(4)
        stats.record_read_txn(0, read_txn(served_by="remote_mem"), 100)
        stats.record_read_txn(0, read_txn(served_by="switch", stage=0), 40)
        assert stats.mean_remote_read_latency() == 70.0

    def test_mean_remote_read_latency_switch_only(self):
        # every remote read intercepted by a switch cache: the mean must
        # come entirely from the switch class, not divide by zero on the
        # empty memory classes
        stats = MachineStats(4)
        stats.add_read_hits(0, 0, 1, 0)
        stats.record_read_txn(0, read_txn(served_by="switch", stage=1), 40)
        stats.record_read_txn(1, read_txn(served_by="switch", stage=2), 60)
        assert stats.mean_remote_read_latency() == 50.0
        assert stats.reads_at_remote_memory() == 0
        assert stats.remote_reads() == 2

    def test_mean_remote_read_latency_no_remote_reads(self):
        stats = MachineStats(4)
        stats.add_read_hits(0, 0, 1, 0)
        assert stats.mean_remote_read_latency() == 0.0


class TestPayloadRoundTrip:
    def test_round_trip_with_multiple_procs_per_node(self):
        # A6-shaped machine: 4 nodes x 2 procs — per-proc indices exceed
        # the node count, so finish times and per-proc read attribution
        # must survive the payload round-trip unchanged
        num_procs = 8
        stats = MachineStats(num_procs)
        for proc in range(num_procs):
            stats.add_read_hits(proc, 0, 1, 0)
            stats.record_read_txn(
                proc, read_txn(node=proc, addr=0x40, data=0), 50 + proc
            )
            stats.record_finish(proc, 1000 + proc)
        stats.record_read_txn(7, read_txn(node=7, served_by="switch",
                                          stage=1), 30)
        payload = stats.to_payload()
        rebuilt = MachineStats.from_payload(payload)
        assert rebuilt.to_payload() == payload
        assert rebuilt.to_dict() == stats.to_dict()
        assert rebuilt.exec_time == 1007
        assert rebuilt.per_node_reads == stats.per_node_reads
        assert len(rebuilt.finish_times) == num_procs
        assert rebuilt.sharing_histogram(8) == stats.sharing_histogram(8)
        assert rebuilt.mean_sharing_degree() == stats.mean_sharing_degree()

    def test_round_trip_on_real_multi_proc_machine(self):
        from repro.apps import GaussianElimination
        from repro.system.config import SystemConfig
        from repro.system.machine import Machine

        machine = Machine(SystemConfig(
            num_nodes=4, procs_per_node=2, l1_size=512, l2_size=2048,
            switch_cache_size=512,
        ))
        stats = machine.run(GaussianElimination(n=8))
        rebuilt = MachineStats.from_payload(stats.to_payload())
        assert rebuilt.to_payload() == stats.to_payload()
        assert rebuilt.to_dict() == stats.to_dict()
        assert len(stats.finish_times) == 8  # one per proc, not per node


#: (reader, block, version): a None version, a version above 62 and
#: readers that read the same block (and version) twice
SHARING_READS = (
    (3, 0x80, None),
    (1, 0x80, 70),
    (1, 0x80, 70),
    (0, 0x40, 2),
    (2, 0x40, 0),
    (0, 0x40, 2),
    (3, 0x80, 0),
)


def sharing_stats():
    stats = MachineStats(4)
    for reader, addr, version in SHARING_READS:
        stats.record_read_txn(
            reader, read_txn(node=reader, addr=addr, data=version), 10)
    return stats


class TestSharingPayload:
    def test_block_readers_layout(self):
        payload = sharing_stats().to_payload()
        assert payload["block_readers"] == [[0x40, [0, 2]], [0x80, [1, 3]]]
        assert payload["block_read_counts"] == [(0x40, 3), (0x80, 4)]

    def test_seen_versions_layout(self):
        stats = sharing_stats()
        assert stats.to_payload()["seen_versions"] == [
            [0x40, 0], [0x40, 2], [0x80, None], [0x80, 0], [0x80, 70],
        ]
        assert (stats.ideal_global_hits, stats.ideal_global_misses) == (2, 5)

    def test_derived_quantities_survive_round_trip(self):
        stats = sharing_stats()
        rebuilt = MachineStats.from_payload(stats.to_payload())
        assert rebuilt.to_payload() == stats.to_payload()
        assert rebuilt.sharing_histogram(4) == stats.sharing_histogram(4) == {
            1: 0, 2: 7, 3: 0, 4: 0}
        assert rebuilt.mean_sharing_degree() == stats.mean_sharing_degree() == 2.0
        assert rebuilt.ideal_global_hit_rate() == stats.ideal_global_hit_rate()
        assert rebuilt.ideal_global_hit_rate() == 2 / 7

    def test_round_trip_through_json(self):
        # the run cache stores the payload as JSON text
        stats = sharing_stats()
        payload = json.loads(json.dumps(stats.to_payload()))
        rebuilt = MachineStats.from_payload(payload)
        assert rebuilt.sharing_histogram(4) == stats.sharing_histogram(4)
        assert rebuilt.ideal_global_hit_rate() == stats.ideal_global_hit_rate()
        # a version already seen before the round trip is an ideal hit
        rebuilt.record_read_txn(2, read_txn(node=2, addr=0x80, data=70), 10)
        assert rebuilt.ideal_global_hits == 3


class TestZeroReadRendering:
    def test_breakdown_table_with_zero_reads(self):
        text = breakdown_table(MachineStats(4))
        assert "0 reads sampled" in text
        assert "0.0%" in text  # shares render as zero, no ZeroDivisionError

    def test_format_bars_all_zero_values(self):
        text = format_bars(["a", "bb"], [0.0, 0.0])
        lines = text.splitlines()
        assert len(lines) == 2
        assert "#" not in text  # zero peak draws empty bars

    def test_format_bars_empty(self):
        assert format_bars([], []) == ""

    def test_service_bars_with_zero_reads(self):
        assert service_bars(MachineStats(4)) == ""


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(("a", "bbbb"), [(1, 2.5), ("xx", 3)])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "----" in lines[1]
        assert len(lines) == 4

    def test_format_table_with_title(self):
        text = format_table(("x",), [(1,)], title="T")
        assert text.splitlines()[0] == "T"

    def test_format_series(self):
        text = format_series("GE", [1, 2], [0.5, 0.25])
        assert text == "GE: (1, 0.500) (2, 0.250)"

    def test_percent(self):
        assert percent(0.4567) == "45.7%"

    def test_float_formatting_large_values(self):
        text = format_table(("v",), [(12345.678,)])
        assert "12345.7" in text
