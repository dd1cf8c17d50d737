"""Tests for the latency analysis helpers."""

import pytest

from repro.coherence.messages import Transaction
from repro.stats.counters import MachineStats
from repro.stats.latency import (
    breakdown_table,
    format_bars,
    latency_table,
    service_bars,
    service_latency_rows,
)


def stats_with_reads():
    stats = MachineStats(4)
    stats.add_read_hits(0, 0, 1, 0)
    stats.add_read_hits(0, 0, 1, 0)
    txn = Transaction("read", 0x40, 1, 0, 64, 0)
    txn.completed_at = 100
    txn.served_by = "remote_mem"
    txn.data = 0
    stats.record_read_txn(1, txn, stall=100)
    return stats


class TestRows:
    def test_only_non_empty_classes(self):
        rows = service_latency_rows(stats_with_reads())
        categories = [cat for cat, _c, _m in rows]
        assert categories == ["l1", "remote_mem"]

    def test_counts_and_means(self):
        rows = dict(
            (cat, (count, mean))
            for cat, count, mean in service_latency_rows(stats_with_reads())
        )
        assert rows["l1"][0] == 2
        assert rows["remote_mem"] == (1, 100.0)


class TestTables:
    def test_latency_table_renders(self):
        text = latency_table(stats_with_reads())
        assert "remote_mem" in text
        assert "100.0" in text

    def test_breakdown_table_renders_empty(self):
        text = breakdown_table(MachineStats(4))
        assert "memory service" in text

    def test_breakdown_table_with_samples(self):
        stats = stats_with_reads()
        stats.breakdown_sums["mem_service"] = 500
        stats.breakdown_count = 10
        text = breakdown_table(stats)
        assert "50.0" in text


class TestBars:
    def test_bars_scale_to_peak(self):
        text = format_bars(["a", "b"], [10.0, 5.0], width=10)
        lines = text.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_bars_zero_values(self):
        text = format_bars(["a"], [0.0])
        assert "#" not in text

    def test_bars_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            format_bars(["a"], [1.0, 2.0])

    def test_service_bars(self):
        text = service_bars(stats_with_reads())
        assert "l1" in text and "#" in text

    def test_unit_suffix(self):
        text = format_bars(["x"], [3.0], unit="cyc")
        assert "3.0cyc" in text
