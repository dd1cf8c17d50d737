"""Machine-wide statistics.

Collects exactly the quantities the paper's evaluation reports:

* where every read was served — write buffer, L1, L2, network cache,
  switch cache (by MIN stage), local memory, remote memory, or a remote
  owner's cache (recall);
* read latency and read stall time per service class;
* remote-read latency breakdown (NI queueing, network transit, memory
  queueing and service — the paper's Q/T components);
* execution time (max processor finish time) and its stall decomposition.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..coherence.messages import Transaction

if TYPE_CHECKING:
    from ..trace.metrics import MetricsRegistry

#: service classes for reads, in reporting order
READ_CATEGORIES = (
    "wb",
    "l1",
    "l2",
    "cluster",
    "netcache",
    "switch",
    "local_mem",
    "remote_mem",
    "owner",
)

#: remote-read latency breakdown components (paper Sec. 2.1)
BREAKDOWN_COMPONENTS = (
    "req_ni_q",
    "req_transit",
    "mem_queue",
    "mem_service",
    "reply_ni_q",
    "reply_transit",
)


def _popcount(mask: int) -> int:
    # int.bit_count() is Python 3.10+
    return bin(mask).count("1")


def _bits(mask: int) -> List[int]:
    """Positions of the set bits of ``mask``, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


class MachineStats:
    """Aggregated statistics for one simulation run."""

    def __init__(self, num_nodes: int,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.num_nodes = num_nodes
        # optional MetricsRegistry: miss latencies feed log-bucketed
        # histograms whose exact total/count make the histogram mean
        # reconcile bit-for-bit with mean_latency()
        self._metrics = metrics
        self.read_counts: Dict[str, int] = {c: 0 for c in READ_CATEGORIES}
        self.read_latency: Dict[str, int] = {c: 0 for c in READ_CATEGORIES}
        self.switch_hits_by_stage: Dict[int, int] = {}
        self.breakdown_sums: Dict[str, int] = {c: 0 for c in BREAKDOWN_COMPONENTS}
        self.breakdown_count = 0
        self.writes_completed = 0
        self.write_latency = 0
        self.upgrades_completed = 0
        self.exec_time: Optional[int] = None
        self.finish_times: Dict[int, int] = {}
        self.per_node_reads: List[int] = [0] * num_nodes
        # sharing analysis (paper Fig. 3 / Sec. 2.2): which processors read
        # each block (at L2-miss granularity), and whether an ideal global
        # cache could have served each read (same block+version seen
        # before).  Both are presence masks per block, as in the full-map
        # directory: bit p of block_readers[addr] is processor p, and bit
        # 0 of _seen_versions[addr] is version None, bit v+1 version v
        self.block_readers: Dict[int, int] = {}
        self.block_read_counts: Dict[int, int] = {}
        self._seen_versions: Dict[int, int] = {}
        self.ideal_global_hits = 0
        self.ideal_global_misses = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def add_read_hits(self, node: int, wb: int, l1: int, l2: int) -> None:
        """Count read hits in the write buffer, L1 and L2.  The
        processor's fast-forward loop batches them in locals and flushes
        them here when it leaves the loop.  Hits are effectively free
        relative to misses: their latency is accounted by the
        processor's local clock, not recorded here."""
        counts = self.read_counts
        counts["wb"] += wb
        counts["l1"] += l1
        counts["l2"] += l2
        self.per_node_reads[node] += wb + l1 + l2

    def record_read_txn(self, node: int, txn: Transaction, stall: int) -> None:
        category = txn.served_by or "remote_mem"
        self.read_counts[category] += 1
        self.read_latency[category] += stall
        self.per_node_reads[node] += 1
        if self._metrics is not None:
            self._metrics.histogram("read_latency/" + category).observe(stall)
        if category in ("remote_mem", "owner"):
            self._record_breakdown(txn)
        addr = txn.addr
        readers = self.block_readers
        readers[addr] = readers.get(addr, 0) | (1 << node)
        self.block_read_counts[addr] = self.block_read_counts.get(addr, 0) + 1
        data = txn.data
        bit = 1 if data is None else 2 << data
        seen = self._seen_versions.get(addr, 0)
        if seen & bit:
            self.ideal_global_hits += 1
        else:
            self._seen_versions[addr] = seen | bit
            self.ideal_global_misses += 1

    def _record_breakdown(self, txn: Transaction) -> None:
        req, reply = txn.req_msg, txn.reply_msg
        if req is None or reply is None:
            return
        if req.injected_at < 0 or reply.delivered_at < 0:
            return
        mem_wait = reply.mem_wait
        home_service = max(0, reply.created_at - req.delivered_at)
        self.breakdown_sums["req_ni_q"] += max(0, req.injected_at - req.created_at)
        self.breakdown_sums["req_transit"] += max(
            0, req.delivered_at - req.injected_at
        )
        self.breakdown_sums["mem_queue"] += mem_wait
        self.breakdown_sums["mem_service"] += max(0, home_service - mem_wait)
        self.breakdown_sums["reply_ni_q"] += max(
            0, reply.injected_at - reply.created_at
        )
        self.breakdown_sums["reply_transit"] += max(
            0, reply.delivered_at - reply.injected_at
        )
        self.breakdown_count += 1

    def record_write_txn(self, txn: Transaction) -> None:
        if txn.kind == "upgrade":
            self.upgrades_completed += 1
        else:
            self.writes_completed += 1
        self.write_latency += txn.latency
        if self._metrics is not None:
            self._metrics.histogram("write_latency/" + txn.kind).observe(
                txn.latency
            )

    def record_finish(self, node: int, time: int) -> None:
        self.finish_times[node] = time
        if len(self.finish_times) == self.num_nodes:
            self.exec_time = max(self.finish_times.values())

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    def total_reads(self) -> int:
        return sum(self.read_counts.values())

    def shared_reads(self) -> int:
        """Reads that went past the processor caches (L2 misses)."""
        return sum(
            self.read_counts[c]
            for c in ("cluster", "netcache", "switch", "local_mem",
                      "remote_mem", "owner")
        )

    def remote_reads(self) -> int:
        """Reads to remote homes (however they were served)."""
        return sum(
            self.read_counts[c]
            for c in ("netcache", "switch", "remote_mem", "owner")
        )

    def reads_at_remote_memory(self) -> int:
        """The paper's headline metric: reads served at a distant memory."""
        return self.read_counts["remote_mem"] + self.read_counts["owner"]

    def mean_latency(self, category: str) -> float:
        count = self.read_counts[category]
        return self.read_latency[category] / count if count else 0.0

    def mean_remote_read_latency(self) -> float:
        cats = ("netcache", "switch", "remote_mem", "owner")
        count = sum(self.read_counts[c] for c in cats)
        total = sum(self.read_latency[c] for c in cats)
        return total / count if count else 0.0

    def breakdown_means(self) -> Dict[str, float]:
        if self.breakdown_count == 0:
            return {c: 0.0 for c in BREAKDOWN_COMPONENTS}
        return {
            c: self.breakdown_sums[c] / self.breakdown_count
            for c in BREAKDOWN_COMPONENTS
        }

    def service_distribution(self) -> Dict[str, float]:
        total = self.total_reads()
        if total == 0:
            return {c: 0.0 for c in READ_CATEGORIES}
        return {c: self.read_counts[c] / total for c in READ_CATEGORIES}

    def total_read_stall(self) -> int:
        return sum(self.read_latency.values())

    def sharing_histogram(self, max_degree: int) -> Dict[int, int]:
        """Reads-to-blocks-read-by-k-processors histogram (paper Fig. 3).

        Bucket k holds the number of L2-miss reads that went to blocks
        ultimately read by exactly k distinct processors.
        """
        histogram: Dict[int, int] = {k: 0 for k in range(1, max_degree + 1)}
        for block, readers in self.block_readers.items():
            degree = min(_popcount(readers), max_degree)
            histogram[degree] += self.block_read_counts[block]
        return histogram

    def mean_sharing_degree(self) -> float:
        if not self.block_readers:
            return 0.0
        weighted = sum(
            _popcount(readers) * self.block_read_counts[block]
            for block, readers in self.block_readers.items()
        )
        total = sum(self.block_read_counts.values())
        return weighted / total if total else 0.0

    def ideal_global_hit_rate(self) -> float:
        total = self.ideal_global_hits + self.ideal_global_misses
        return self.ideal_global_hits / total if total else 0.0

    # ------------------------------------------------------------------
    # serialization (process-pool transport and the on-disk run cache)
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict:
        """Complete, JSON-serializable state of this collector.

        Unlike :meth:`to_dict` (a human-oriented summary), this captures
        every field exactly, so :meth:`from_payload` rebuilds a collector
        whose derived quantities are bit-identical to the original's.
        Integer-keyed maps are stored as sorted ``[key, value]`` pairs
        because JSON objects only allow string keys.
        """
        return {
            "num_nodes": self.num_nodes,
            "read_counts": dict(self.read_counts),
            "read_latency": dict(self.read_latency),
            "switch_hits_by_stage": sorted(self.switch_hits_by_stage.items()),
            "breakdown_sums": dict(self.breakdown_sums),
            "breakdown_count": self.breakdown_count,
            "writes_completed": self.writes_completed,
            "write_latency": self.write_latency,
            "upgrades_completed": self.upgrades_completed,
            "exec_time": self.exec_time,
            "finish_times": sorted(self.finish_times.items()),
            "per_node_reads": list(self.per_node_reads),
            "block_readers": [
                [addr, _bits(readers)]
                for addr, readers in sorted(self.block_readers.items())
            ],
            "block_read_counts": sorted(self.block_read_counts.items()),
            # [addr, version] pairs; version None (bit 0) sorts before
            # every integer version
            "seen_versions": [
                [addr, i - 1 if i else None]
                for addr, seen in sorted(self._seen_versions.items())
                for i in _bits(seen)
            ],
            "ideal_global_hits": self.ideal_global_hits,
            "ideal_global_misses": self.ideal_global_misses,
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "MachineStats":
        """Rebuild a collector from :meth:`to_payload` output."""
        stats = cls(payload["num_nodes"])
        stats.read_counts = dict(payload["read_counts"])
        stats.read_latency = dict(payload["read_latency"])
        stats.switch_hits_by_stage = {
            int(k): v for k, v in payload["switch_hits_by_stage"]
        }
        stats.breakdown_sums = dict(payload["breakdown_sums"])
        stats.breakdown_count = payload["breakdown_count"]
        stats.writes_completed = payload["writes_completed"]
        stats.write_latency = payload["write_latency"]
        stats.upgrades_completed = payload["upgrades_completed"]
        stats.exec_time = payload["exec_time"]
        stats.finish_times = {int(k): v for k, v in payload["finish_times"]}
        stats.per_node_reads = list(payload["per_node_reads"])
        stats.block_readers = {
            int(addr): sum(1 << r for r in readers)
            for addr, readers in payload["block_readers"]
        }
        stats.block_read_counts = {
            int(k): v for k, v in payload["block_read_counts"]
        }
        seen = stats._seen_versions
        for addr, version in payload["seen_versions"]:
            seen[addr] = seen.get(addr, 0) | (
                1 if version is None else 2 << version)
        stats.ideal_global_hits = payload["ideal_global_hits"]
        stats.ideal_global_misses = payload["ideal_global_misses"]
        return stats

    def to_dict(self) -> Dict:
        """JSON-serializable summary of the run (for tooling/export)."""
        return {
            "exec_time": self.exec_time,
            "read_counts": dict(self.read_counts),
            "read_latency_sums": dict(self.read_latency),
            "switch_hits_by_stage": {
                str(k): v for k, v in self.switch_hits_by_stage.items()
            },
            "breakdown_means": self.breakdown_means(),
            "writes_completed": self.writes_completed,
            "upgrades_completed": self.upgrades_completed,
            "total_reads": self.total_reads(),
            "remote_reads": self.remote_reads(),
            "reads_at_remote_memory": self.reads_at_remote_memory(),
            "mean_remote_read_latency": self.mean_remote_read_latency(),
            "total_read_stall": self.total_read_stall(),
            "mean_sharing_degree": self.mean_sharing_degree(),
            "ideal_global_hit_rate": self.ideal_global_hit_rate(),
            "finish_times": {str(k): v for k, v in self.finish_times.items()},
        }
