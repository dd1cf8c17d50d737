"""Kitchen-sink configurations: every feature enabled at once.

The paper evaluates designs separately; a library must also be correct
when users combine them.  Every combination below must complete, stay
coherent, and keep per-processor version monotonicity.
"""

import pytest

from repro.apps import GaussianElimination, HotBlock, UniformRandom
from repro.system.config import SystemConfig
from repro.system.machine import Machine

from conftest import assert_coherent, assert_monotonic_reads

COMBOS = {
    "sc+nc": dict(switch_cache_size=1024, netcache_size=4096),
    "sc+cluster": dict(switch_cache_size=1024, num_nodes=2,
                       procs_per_node=2),
    "nc+cluster": dict(netcache_size=4096, num_nodes=2, procs_per_node=2),
    "everything": dict(switch_cache_size=512, netcache_size=2048,
                       num_nodes=2, procs_per_node=2,
                       switch_cache_banks=2,
                       switch_cache_replacement="fifo"),
}


def build(label, **extra):
    params = dict(num_nodes=4, l1_size=1024, l2_size=4096,
                  trace_values=True, quantum=100)
    params.update(COMBOS[label])
    params.update(extra)
    return Machine(SystemConfig(**params))


@pytest.mark.parametrize("label", sorted(COMBOS))
class TestCombinations:
    def test_ge_runs_coherently(self, label):
        machine = build(label)
        stats = machine.run(GaussianElimination(n=12))
        assert stats.exec_time > 0
        assert_coherent(machine)
        assert_monotonic_reads(machine)

    def test_random_traffic_coherent(self, label):
        machine = build(label)
        machine.run(UniformRandom(ops_per_proc=100, nbytes=4096, seed=3))
        assert_coherent(machine)
        assert_monotonic_reads(machine)

    def test_hot_block_churn_coherent(self, label):
        machine = build(label)
        machine.run(HotBlock(rounds=4))
        assert_coherent(machine)
        assert_monotonic_reads(machine)


class TestQuantumSensitivity:
    """The fast-forward quantum is a performance knob, not a semantic one."""

    @pytest.mark.parametrize("quantum", [1, 50, 5000])
    def test_extreme_quanta_stay_coherent(self, quantum):
        machine = Machine(SystemConfig(
            num_nodes=4, l1_size=1024, l2_size=4096,
            switch_cache_size=1024, quantum=quantum, trace_values=True,
        ))
        machine.run(GaussianElimination(n=12))
        assert_coherent(machine)
        assert_monotonic_reads(machine)

    def test_quantum_one_equals_serial_reference_counts(self):
        """At quantum=1 there is no causality skew at all; the read
        totals must match a large-quantum run exactly (same streams)."""
        totals = []
        for quantum in (1, 500):
            machine = Machine(SystemConfig(
                num_nodes=4, l1_size=1024, l2_size=4096, quantum=quantum,
            ))
            stats = machine.run(GaussianElimination(n=10))
            totals.append(stats.total_reads())
        assert totals[0] == totals[1]


class TestDesignInteractions:
    def test_nc_and_sc_both_serve(self):
        # capacity-pressured L2s: the NC catches re-fetches, the switch
        # caches catch sharing; both service classes should be non-zero
        machine = Machine(SystemConfig(
            num_nodes=4, l1_size=512, l2_size=1024, l2_assoc=1,
            switch_cache_size=2048, netcache_size=8192,
        ))
        from repro.apps import MatrixMultiply

        stats = machine.run(MatrixMultiply(n=16))
        assert stats.read_counts["switch"] > 0
        assert stats.read_counts["netcache"] > 0
        assert_coherent(machine)
