"""Log-bucketed histograms and sampled time series.

A :class:`MetricsRegistry` is the quantitative half of the observability
layer: where the tracer answers "what happened to this transaction", the
registry answers "how are latencies distributed" and "how did occupancy
evolve".  It serializes into :class:`~repro.experiments.common.RunRecord`
payloads next to ``MachineStats``, so cached experiment runs carry their
distributions with them.

Histograms are log-bucketed (bucket *k* holds values whose integer part
has bit length *k*, i.e. ``[2**(k-1), 2**k - 1]``; bucket 0 holds zero),
but ``total``/``count`` are exact sums — the mean is **not** an estimate,
which is what lets the self-validation test require bit-equality with
``MachineStats.mean_latency``.  A histogram's exact ``count`` is also
the registry's only counter: the simulator's counts live on the
components that produce them (``MachineStats``, the engines, the links).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple


class Histogram:
    """Log-bucketed distribution with exact sum/count/min/max."""

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = int(abs(value)).bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @staticmethod
    def bucket_bounds(bucket: int) -> Tuple[int, int]:
        """Inclusive value range covered by ``bucket``."""
        if bucket == 0:
            return 0, 0
        return 2 ** (bucket - 1), 2 ** bucket - 1


class TimeSeries:
    """(cycle, value) samples, appended by the machine's periodic sampler."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str) -> None:
        self.times: List[int] = []
        self.values: List[float] = []
        self.name = name

    def sample(self, ts: int, value: float) -> None:
        self.times.append(ts)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)


class MetricsRegistry:
    """Named metric instruments for one simulation run.

    ``sample_interval`` (cycles) enables the machine's periodic sampler
    (switch-cache occupancy/hit-rate, per-home memory-queue depth); it is
    ``None`` by default so that metrics collection inside the experiment
    harness adds no simulator events and cannot perturb event ordering.
    """

    __slots__ = ("histograms", "series_map", "sample_interval")

    def __init__(self, sample_interval: Optional[int] = None) -> None:
        self.histograms: Dict[str, Histogram] = {}
        self.series_map: Dict[str, TimeSeries] = {}
        self.sample_interval = sample_interval

    # ------------------------------------------------------------------
    # get-or-create accessors
    # ------------------------------------------------------------------
    def histogram(self, name: str) -> Histogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram(name)
        return instrument

    def series(self, name: str) -> TimeSeries:
        instrument = self.series_map.get(name)
        if instrument is None:
            instrument = self.series_map[name] = TimeSeries(name)
        return instrument

    # ------------------------------------------------------------------
    # serialization (RunRecord payloads / --metrics output)
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """Complete JSON-serializable state, deterministically ordered."""
        return {
            "histograms": {
                name: {
                    "count": hist.count,
                    "total": hist.total,
                    "min": hist.min,
                    "max": hist.max,
                    "buckets": [[k, v]
                                for k, v in sorted(hist.buckets.items())],
                }
                for name, hist in sorted(self.histograms.items())
            },
            "series": {
                name: {"times": series.times, "values": series.values}
                for name, series in sorted(self.series_map.items())
            },
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "MetricsRegistry":
        registry = cls()
        for name, data in payload.get("histograms", {}).items():
            hist = registry.histogram(name)
            hist.count = data["count"]
            hist.total = data["total"]
            hist.min = data["min"]
            hist.max = data["max"]
            hist.buckets = {int(k): v for k, v in data["buckets"]}
        for name, data in payload.get("series", {}).items():
            series = registry.series(name)
            series.times = list(data["times"])
            series.values = list(data["values"])
        return registry
