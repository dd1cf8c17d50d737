"""The observability layer: tracer, metrics, and the Perfetto export.

Three properties keep the layer trustworthy:

* **zero overhead when off** — a machine built without a tracer emits no
  events and produces *bit-identical* results to a traced run (tracing
  observes, never perturbs);
* **exact reconciliation** — the metrics histograms carry exact
  total/count sums, so their means must equal the corresponding
  ``MachineStats`` means bit-for-bit, not approximately;
* **well-formed export** — the Chrome trace-event JSON obeys the format
  Perfetto actually loads (metadata events, phase-specific fields,
  stable track ordering).
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.apps import GaussianElimination
from repro.network.fabric import Fabric
from repro.system.config import SystemConfig
from repro.system.machine import Machine
from repro.trace import MetricsRegistry, Tracer, chrome_trace
from repro.trace.metrics import Histogram


def sc_config() -> SystemConfig:
    return SystemConfig(num_nodes=4, l1_size=1024, l2_size=4096,
                        switch_cache_size=512)


def traced_run(tracer=None, metrics=None):
    machine = Machine(sc_config(), tracer=tracer, metrics=metrics)
    stats = machine.run(GaussianElimination(n=12))
    return machine, stats


# ----------------------------------------------------------------------
# Tracer unit behavior
# ----------------------------------------------------------------------
class TestTracer:
    def test_event_shapes(self):
        tracer = Tracer()
        tracer.instant("proc0", "wb_full", 5, {"addr": 64})
        tracer.complete("proc0", "barrier", 10, 7)
        tracer.counter("home1", "mem_backlog", 12, 3.0)
        tracer.async_span("ni2", "READ", "msg", 42, 20, 35, {"addr": 128})
        tracer.flow_start("ni2", "READ", 99, 20)
        tracer.flow_end("ni3", "DATA_S", 99, 40)
        instant, span, counter, begin, end, fs, fe = tracer.events
        assert instant == {"ph": "i", "track": "proc0", "name": "wb_full",
                           "ts": 5, "args": {"addr": 64}}
        assert span == {"ph": "X", "track": "proc0", "name": "barrier",
                        "ts": 10, "dur": 7}
        assert counter["ph"] == "C" and counter["value"] == 3.0
        assert begin["ph"] == "b" and end["ph"] == "e"
        assert begin["id"] == end["id"] == 42
        assert begin["cat"] == end["cat"] == "msg"
        assert end["ts"] == 35 and "args" not in end
        assert fs["ph"] == "s" and fe["ph"] == "f"
        assert fs["id"] == fe["id"] == 99 and fs["cat"] == "flow"

    def test_limit_counts_dropped_events(self):
        tracer = Tracer(limit=3)
        for ts in range(5):
            tracer.instant("proc0", "tick", ts)
        assert len(tracer) == 3
        assert tracer.dropped == 2
        # an async span past the limit drops both halves
        tracer.async_span("ni0", "READ", "msg", 1, 0, 9)
        assert len(tracer) == 3 and tracer.dropped == 4

    def test_tracks_first_appearance_order_and_named(self):
        tracer = Tracer()
        tracer.instant("sync", "barrier_release", 1)
        tracer.instant("proc0", "wb_full", 2)
        tracer.instant("sync", "barrier_release", 3)
        assert tracer.tracks() == ["sync", "proc0"]
        assert len(tracer.events_named("barrier_release")) == 2

    def test_write_jsonl(self, tmp_path):
        tracer = Tracer()
        tracer.instant("proc0", "wb_full", 5)
        tracer.complete("proc1", "lock", 6, 2)
        path = tmp_path / "events.jsonl"
        assert tracer.write_jsonl(str(path)) == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines == tracer.events


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
class TestChromeExport:
    def test_metadata_precedes_events_and_names_tracks(self):
        tracer = Tracer()
        tracer.instant("home0", "read", 3)
        doc = chrome_trace(tracer, label="unit")
        events = doc["traceEvents"]
        assert events[0]["name"] == "process_name"
        assert events[0]["args"] == {"name": "unit"}
        names = [e["name"] for e in events if e["ph"] == "M"]
        assert "thread_name" in names and "thread_sort_index" in names
        # all metadata first, then the data events
        phases = [e["ph"] for e in events]
        assert phases == ["M"] * (len(events) - 1) + ["i"]
        assert doc["otherData"]["events"] == 1
        assert doc["otherData"]["dropped"] == 0

    def test_track_ordering_groups_and_natural_sort(self):
        tracer = Tracer()
        for track in ("sync", "home2", "switch1.0", "ni10", "ni2",
                      "proc10", "proc2"):
            tracer.instant(track, "x", 0)
        doc = chrome_trace(tracer)
        thread_names = [
            e["args"]["name"] for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert thread_names == ["proc2", "proc10", "ni2", "ni10",
                                "switch1.0", "home2", "sync"]

    def test_phase_specific_fields(self):
        tracer = Tracer()
        tracer.instant("proc0", "wb_full", 1)
        tracer.complete("proc0", "barrier", 2, 5)
        tracer.counter("home0", "mem_backlog", 3, 7.0)
        tracer.async_span("ni0", "READ", "msg", 8, 4, 9)
        tracer.flow_end("ni0", "DATA_S", 8, 9)
        doc = chrome_trace(tracer)
        by_phase = {}
        for event in doc["traceEvents"]:
            by_phase.setdefault(event["ph"], event)
        assert by_phase["i"]["s"] == "t"
        assert by_phase["X"]["dur"] == 5
        assert by_phase["C"]["args"] == {"value": 7.0}
        assert by_phase["b"]["cat"] == "msg" and by_phase["b"]["id"] == 8
        assert by_phase["f"]["bp"] == "e"
        # the whole document must survive strict JSON serialization
        assert json.loads(json.dumps(doc)) == doc


# ----------------------------------------------------------------------
# Metrics instruments
# ----------------------------------------------------------------------
class TestMetrics:
    def test_histogram_buckets_and_exact_mean(self):
        hist = Histogram("lat")
        for value in (0, 1, 2, 3, 4, 100):
            hist.observe(value)
        assert hist.count == 6 and hist.total == 110
        assert hist.mean() == 110 / 6
        assert hist.min == 0 and hist.max == 100
        assert hist.buckets == {0: 1, 1: 1, 2: 2, 3: 1, 7: 1}
        assert Histogram.bucket_bounds(0) == (0, 0)
        assert Histogram.bucket_bounds(3) == (4, 7)
        assert Histogram.bucket_bounds(7) == (64, 127)

    def test_registry_round_trip(self):
        registry = MetricsRegistry()
        registry.histogram("lat").observe(37)
        registry.series("depth").sample(100, 2.0)
        registry.series("depth").sample(200, 3.0)
        payload = registry.to_payload()
        rebuilt = MetricsRegistry.from_payload(payload)
        assert rebuilt.to_payload() == payload
        assert sorted(payload) == ["histograms", "series"]
        assert rebuilt.histograms["lat"].mean() == 37.0
        assert rebuilt.series_map["depth"].times == [100, 200]
        # payloads are valid JSON as-is
        assert json.loads(json.dumps(payload)) == payload


# ----------------------------------------------------------------------
# Machine integration
# ----------------------------------------------------------------------
class TestMachineIntegration:
    @pytest.fixture(scope="class")
    def traced(self):
        tracer = Tracer()
        metrics = MetricsRegistry(sample_interval=500)
        machine, stats = traced_run(tracer=tracer, metrics=metrics)
        return tracer, metrics, machine, stats

    def test_event_taxonomy_present(self, traced):
        tracer, _metrics, _machine, _stats = traced
        names = {event["name"] for event in tracer.events}
        # one representative per instrumented layer
        assert "read" in names            # l2ctrl txn spans + home starts
        assert "hop" in names             # fabric switch hops
        assert "sc_probe" in names        # Caesar engine probes
        assert "sc_deposit" in names      # captures
        assert "dir_update" in names      # switch-served read registered
        assert "barrier_release" in names  # global sync episodes
        tracks = tracer.tracks()
        assert any(t.startswith("proc") for t in tracks)
        assert any(t.startswith("ni") for t in tracks)
        assert any(t.startswith("switch") for t in tracks)
        assert any(t.startswith("home") for t in tracks)

    def test_txn_spans_close_and_flows_pair(self, traced):
        tracer, _metrics, _machine, _stats = traced
        begins = [e for e in tracer.events if e["ph"] == "b"]
        ends = [e for e in tracer.events if e["ph"] == "e"]
        assert begins and len(begins) == len(ends)
        starts = {e["id"] for e in tracer.events if e["ph"] == "s"}
        finishes = {e["id"] for e in tracer.events if e["ph"] == "f"}
        assert finishes <= starts  # every reply arrow has a request leg

    def test_sampler_populates_series(self, traced):
        _tracer, metrics, _machine, stats = traced
        occupancy = metrics.series_map["sc_occupancy/total"]
        assert len(occupancy) >= 2
        assert all(v >= 0 for v in occupancy.values)
        assert max(occupancy.values) > 0  # the cache did fill
        assert occupancy.times == sorted(occupancy.times)
        hit_rate = metrics.series_map["sc_hit_rate"]
        assert all(0.0 <= v <= 1.0 for v in hit_rate.values)
        assert occupancy.times[-1] <= stats.exec_time + 500
        assert any(name.startswith("mem_backlog/home")
                   for name in metrics.series_map)

    def test_export_of_real_run_serializes(self, traced):
        tracer, _metrics, _machine, _stats = traced
        doc = chrome_trace(tracer)
        text = json.dumps(doc)
        assert json.loads(text)["otherData"]["events"] == len(tracer)

    def test_histogram_means_reconcile_exactly(self, traced):
        _tracer, metrics, _machine, stats = traced
        reconciled = 0
        for name, hist in metrics.histograms.items():
            if not name.startswith("read_latency/"):
                continue
            category = name.split("/", 1)[1]
            assert hist.count == stats.read_counts[category]
            assert hist.mean() == stats.mean_latency(category)
            reconciled += 1
        assert reconciled >= 2  # at least switch + a memory class

    def test_tracing_is_timing_transparent(self, traced):
        _tracer, _metrics, _machine, traced_stats = traced
        _machine2, plain_stats = traced_run()
        assert plain_stats.exec_time == traced_stats.exec_time
        assert plain_stats.to_dict() == traced_stats.to_dict()

    #: the fabric's hop callback and the switch hooks it dispatches
    HOP_FNS = ("_hop", "_snoop", "_deposit", "_intercept")

    @pytest.mark.parametrize("overrides", [
        {},
        {"switch_cache_stages": {1}},
        {"switch_cache_banks": 2},
    ], ids=["all-stages", "partial-stage", "caesar-plus"])
    def test_tracing_is_timing_transparent_per_config(self, overrides,
                                                      monkeypatch):
        # a traced run takes the same hop callback and switch hooks as
        # an untraced one, and only adds one hop instant per hop: the
        # call counts and every statistic must agree
        calls = Counter()
        for name in self.HOP_FNS:
            def spy(fabric, msg, hop, _fn=getattr(Fabric, name), _name=name):
                calls[_name] += 1
                return _fn(fabric, msg, hop)
            monkeypatch.setattr(Fabric, name, spy)
        config = sc_config().replaced(**overrides)
        runs = {}
        for traced in (False, True):
            calls.clear()
            tracer = Tracer() if traced else None
            machine = Machine(config, sanitize=False, tracer=tracer)
            stats = machine.run(GaussianElimination(n=12))
            runs[traced] = (stats.to_dict(), dict(calls), tracer)
        (plain, plain_calls, _), (traced, traced_calls, tracer) = (
            runs[False], runs[True]
        )
        assert plain == traced
        assert traced_calls == plain_calls
        assert plain_calls["_deposit"] and plain_calls["_intercept"]
        assert tracer.dropped == 0
        assert len(tracer.events_named("hop")) == traced_calls["_hop"]

    def test_untraced_machine_has_no_tracer_installed(self):
        machine = Machine(sc_config())
        assert machine.sim.tracer is None
        assert machine.metrics is None

    def test_trace_limit_respected_on_real_run(self):
        tracer = Tracer(limit=100)
        traced_run(tracer=tracer)
        assert len(tracer) == 100
        assert tracer.dropped > 0
