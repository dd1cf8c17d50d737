"""Property-based whole-system tests.

Random (but seeded-by-hypothesis) workloads over small machines, with the
strong postconditions checked after quiescence:

* the whole-machine coherence audit passes (single owner, registered
  sharers, all cached copies agree with home versions — including switch
  caches and network caches);
* each processor's observed version sequence per block is monotone;
* the total number of version bumps equals the number of drained stores.
"""

from typing import Dict, List

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.system.machine import Machine

from conftest import ScriptedApp, assert_coherent, assert_monotonic_reads, tiny_config

# ops per processor: reads/writes over a handful of blocks with barriers
op_strategy = st.one_of(
    st.tuples(st.just("r"), st.integers(0, 5)),
    st.tuples(st.just("w"), st.integers(0, 5)),
    st.tuples(st.just("work"), st.integers(1, 60)),
)


def make_scripts(raw: Dict[int, List], barrier_every: int) -> Dict[int, List]:
    """Convert raw (op, blk) tuples into scripts with aligned barriers."""
    scripts = {}
    max_len = max((len(ops) for ops in raw.values()), default=0)
    n_barriers = max_len // barrier_every if barrier_every else 0
    for proc, ops in raw.items():
        script = []
        for i, (code, arg) in enumerate(ops):
            if code in ("r", "w"):
                script.append((code, ("blk", arg)))
            else:
                script.append((code, arg))
            if barrier_every and (i + 1) % barrier_every == 0:
                script.append(("barrier", (i + 1) // barrier_every))
        # everyone attends every barrier the longest stream reaches
        own = len(ops) // barrier_every if barrier_every else 0
        for b in range(own + 1, n_barriers + 1):
            script.append(("barrier", b))
        scripts[proc] = script
    # processors with no raw ops still need the barriers
    for proc in range(4):
        if proc not in scripts:
            scripts[proc] = [("barrier", b) for b in range(1, n_barriers + 1)]
    return scripts


settings_kwargs = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@settings(**settings_kwargs)
@given(
    raw=st.dictionaries(
        st.integers(0, 3),
        st.lists(op_strategy, max_size=25),
        max_size=4,
    ),
    barrier_every=st.sampled_from([0, 5, 10]),
)
def test_property_base_machine_coherent(raw, barrier_every):
    scripts = make_scripts(raw, barrier_every)
    machine = Machine(tiny_config())
    machine.run(ScriptedApp(scripts, blocks=6, home=0))
    assert_coherent(machine)
    assert_monotonic_reads(machine)


@settings(**settings_kwargs)
@given(
    raw=st.dictionaries(
        st.integers(0, 3),
        st.lists(op_strategy, max_size=25),
        max_size=4,
    ),
    barrier_every=st.sampled_from([0, 5]),
    sc_size=st.sampled_from([256, 1024]),
)
def test_property_switch_cache_machine_coherent(raw, barrier_every, sc_size):
    scripts = make_scripts(raw, barrier_every)
    machine = Machine(tiny_config(switch_cache_size=sc_size))
    machine.run(ScriptedApp(scripts, blocks=6, home=0))
    assert_coherent(machine)
    assert_monotonic_reads(machine)


@settings(**settings_kwargs)
@given(
    raw=st.dictionaries(
        st.integers(0, 3),
        st.lists(op_strategy, max_size=20),
        max_size=4,
    ),
)
def test_property_netcache_machine_coherent(raw):
    scripts = make_scripts(raw, 0)
    machine = Machine(tiny_config(netcache_size=2048))
    machine.run(ScriptedApp(scripts, blocks=6, home=0))
    assert_coherent(machine)
    assert_monotonic_reads(machine)


@settings(**settings_kwargs)
@given(
    writes=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=30
    ),
)
def test_property_version_bumps_equal_drained_stores(writes):
    """Every store drains exactly one version bump at block granularity."""
    per_proc: Dict[int, List] = {p: [] for p in range(4)}
    expected: Dict[int, int] = {}
    for proc, blk in writes:
        per_proc[proc].append(("w", ("blk", blk)))
        expected[blk] = expected.get(blk, 0) + 1
    machine = Machine(tiny_config())
    app = ScriptedApp(per_proc, blocks=4, home=0)
    machine.run(app)
    for blk, count in expected.items():
        addr = app.block_addrs[blk]
        # the latest version anywhere (owner L2 or home memory) equals the
        # number of merged drain operations, which is <= store count but
        # >= 1 when any store happened; with block-granular merging the
        # bumps equal the number of distinct drain transactions
        versions = [machine.memory_version(addr)]
        for node in machine.nodes:
            line = node.hierarchy.l2.probe(addr)
            if line is not None:
                versions.append(line.data)
        total_bumps = max(versions)
        drained = sum(
            1 for node in machine.nodes
            for w in node.write_trace if w[1] == addr
        )
        assert total_bumps == drained
        assert 1 <= total_bumps <= count
    assert_coherent(machine)


@settings(**settings_kwargs)
@given(seed=st.integers(0, 2**16))
def test_property_uniform_random_app_coherent(seed):
    from repro.apps.synthetic import UniformRandom

    machine = Machine(tiny_config(switch_cache_size=512))
    machine.run(UniformRandom(ops_per_proc=60, nbytes=2048, seed=seed))
    assert_coherent(machine)
    assert_monotonic_reads(machine)


@settings(**settings_kwargs)
@given(
    writers=st.lists(st.integers(0, 3), min_size=1, max_size=8),
)
def test_property_lock_serializes_critical_sections(writers):
    """N lock-protected increments leave the counter at exactly N."""
    scripts = {p: [] for p in range(4)}
    for proc in writers:
        scripts[proc].extend(
            [("lock", 1), ("r", ("blk", 0)), ("w", ("blk", 0)),
             ("unlock", 1)]
        )
    machine = Machine(tiny_config())
    app = ScriptedApp(scripts, blocks=1, home=0)
    machine.run(app)
    block = app.block_addrs[0]
    versions = [machine.memory_version(block)]
    for node in machine.nodes:
        line = node.hierarchy.l2.probe(block)
        if line is not None:
            versions.append(line.data)
    assert max(versions) == len(writers)
    assert_coherent(machine)


@settings(**settings_kwargs)
@given(
    raw=st.dictionaries(
        st.integers(0, 3),
        st.lists(op_strategy, max_size=20),
        max_size=4,
    ),
    barrier_every=st.sampled_from([0, 5]),
)
def test_property_cluster_machine_coherent(raw, barrier_every):
    scripts = make_scripts(raw, barrier_every)
    machine = Machine(tiny_config(num_nodes=2, procs_per_node=2,
                                  switch_cache_size=512))
    machine.run(ScriptedApp(scripts, blocks=6, home=0))
    assert_coherent(machine)
    assert_monotonic_reads(machine)
