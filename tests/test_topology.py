"""Tests for BMIN geometry and turnaround routing.

The switch-cache protocol's correctness rests on two routing properties
(DESIGN.md Sec. 5): path uniqueness/validity and reversal symmetry.  Both
are property-tested here across machine sizes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.network.topology import BminTopology


class TestGeometry:
    def test_16_node_shape(self):
        topo = BminTopology(16)
        assert topo.stages == 4
        assert topo.rows == 8
        assert len(topo.switches()) == 32

    def test_4_node_shape(self):
        topo = BminTopology(4)
        assert topo.stages == 2
        assert topo.rows == 2

    @pytest.mark.parametrize("n", [0, 1, 3, 12, 100])
    def test_bad_sizes_rejected(self, n):
        with pytest.raises(ConfigError):
            BminTopology(n)

    def test_node_attachment(self):
        topo = BminTopology(16)
        assert topo.node_switch(0) == (0, 0)
        assert topo.node_switch(1) == (0, 0)
        assert topo.node_switch(15) == (0, 7)
        assert topo.node_port(4) == 0
        assert topo.node_port(5) == 1

    def test_node_out_of_range(self):
        topo = BminTopology(16)
        with pytest.raises(ConfigError):
            topo.node_switch(16)

    def test_up_neighbors_butterfly(self):
        topo = BminTopology(16)
        assert set(topo.up_neighbors((0, 0))) == {(1, 0), (1, 1)}
        assert set(topo.up_neighbors((1, 2))) == {(2, 2), (2, 0)}

    def test_top_stage_has_no_up_neighbors(self):
        topo = BminTopology(16)
        assert topo.up_neighbors((3, 0)) == []

    def test_stage0_has_no_down_neighbors(self):
        topo = BminTopology(16)
        assert topo.down_neighbors((0, 0)) == []

    def test_up_down_symmetry(self):
        topo = BminTopology(16)
        for sid in topo.switches():
            for up in topo.up_neighbors(sid):
                assert sid in topo.down_neighbors(up)


class TestRouting:
    def test_same_node_is_empty(self):
        topo = BminTopology(16)
        assert topo.path(3, 3) == []

    def test_same_switch_single_hop(self):
        topo = BminTopology(16)
        assert topo.path(0, 1) == [(0, 0)]

    def test_path_starts_and_ends_at_attachment_switches(self):
        topo = BminTopology(16)
        path = topo.path(0, 15)
        assert path[0] == topo.node_switch(0)
        assert path[-1] == topo.node_switch(15)

    def test_turn_stage_examples(self):
        topo = BminTopology(16)
        assert topo.turn_stage(0, 1) == 0  # same switch
        assert topo.turn_stage(0, 2) == 1
        assert topo.turn_stage(0, 15) == 3

    def test_max_distance_path_length(self):
        topo = BminTopology(16)
        # ascend to stage 3 and back: 4 + 3 switches
        assert len(topo.path(0, 15)) == 7

    def test_path_caching_returns_equal_paths(self):
        topo = BminTopology(16)
        assert topo.path(2, 9) == topo.path(2, 9)

    @pytest.mark.parametrize("a, b", [(16, 0), (0, 16), (-1, 3), (16, 16)])
    def test_path_rejects_bad_node_ids(self, a, b):
        with pytest.raises(ConfigError):
            BminTopology(16).path(a, b)

    @pytest.mark.parametrize("n", [16, 256])
    def test_construction_computes_no_path(self, n, monkeypatch):
        # routes are computed when asked for, never as an all-pairs table
        calls = []
        canonical = BminTopology._canonical_path

        def counting(self, a, b):
            calls.append((a, b))
            return canonical(self, a, b)

        monkeypatch.setattr(BminTopology, "_canonical_path", counting)
        topo = BminTopology(n)
        assert calls == []
        assert topo.path(n - 1, 0) == canonical(topo, 0, n - 1)[::-1]
        assert calls == [(0, n - 1)]


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
def test_all_pairs_paths_valid_unique_and_symmetric(n):
    topo = BminTopology(n)
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            path = topo.path(a, b)
            # starts/ends at the right stage-0 switches
            assert path[0] == topo.node_switch(a)
            assert path[-1] == topo.node_switch(b)
            # consecutive switches are physically connected
            for u, v in zip(path, path[1:]):
                assert topo.are_connected(u, v), (a, b, u, v)
            # no switch is visited twice (unique up-down path)
            assert len(set(path)) == len(path)
            # reversal symmetry: reply retraces the request
            assert path == list(reversed(topo.path(b, a)))


@pytest.mark.parametrize("n", [8, 16])
def test_tree_cover_property(n):
    """Any switch on the path home->x that also lies on y's request path
    to home appears on the home->y path — the invalidation-coverage
    argument for switch-served replies."""
    topo = BminTopology(n)
    for home in range(0, n, 3):
        for x in range(n):
            if x == home:
                continue
            path_hx = set(topo.path(home, x))
            for y in range(n):
                if y == home:
                    continue
                path_yh = topo.path(y, home)
                path_hy = set(topo.path(home, y))
                for switch in path_yh:
                    if switch in path_hx:
                        # a switch-cache copy could be served here; the
                        # reply retraces y's path, all of which must be
                        # covered by future invalidations home->y
                        assert switch in path_hy


@settings(max_examples=100, deadline=None)
@given(
    n_exp=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_property_turn_stage_bounds(n_exp, data):
    n = 1 << n_exp
    topo = BminTopology(n)
    a = data.draw(st.integers(min_value=0, max_value=n - 1))
    b = data.draw(st.integers(min_value=0, max_value=n - 1))
    t = topo.turn_stage(a, b)
    assert 0 <= t < topo.stages
    if a != b:
        # path length = 2 * turn_stage + 1 switches
        assert len(topo.path(a, b)) == 2 * t + 1
