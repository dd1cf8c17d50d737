"""Bidirectional MIN (BMIN) topology and turnaround routing.

The interconnect is the paper's Figure 7a: an N-node BMIN built from
2k x 2k crossbar switches, N/k switches per stage, log_k N stages.  For the
default system (N=16, k=2) that is 8 four-by-four switches in each of 4
stages — 32 switches total.

Wiring is the standard indirect binary-cube (butterfly) pattern: switch
``(s, w)`` has up links to ``(s+1, w)`` (straight) and ``(s+1, w ^ (1<<s))``
(cross).  Node ``n`` attaches to stage-0 switch ``n >> 1`` on port ``n & 1``.

Routing is *turnaround*: ascend to the first stage at which the source and
destination rows coincide modulo the remaining bits, then descend,
correcting one row bit per stage.  Two properties the switch-cache protocol
depends on are enforced here and checked by tests:

* **Uniqueness** — the path between two nodes is deterministic.
* **Reversal symmetry** — ``path(a, b) == reversed(path(b, a))``, achieved
  by computing the canonical path for the (min, max) endpoint pair and
  walking it in the required direction.  This guarantees that a data reply
  retraces its request, that copies deposited by replies lie on the unique
  home-to-sharer path, and therefore that invalidations (which follow the
  same path) snoop every switch that can hold a copy — the paper's
  tree-cover argument.  The fabric (``network/fabric.py``) uses it
  directly: a switch-served reply rides the mirrored route, from the
  serving switch on, instead of resolving a reversed prefix of its own.
"""

from __future__ import annotations

from typing import List, Tuple

from ..errors import ConfigError

SwitchId = Tuple[int, int]  # (stage, row)


def stage_count(num_nodes: int) -> int:
    """Switch stages of the BMIN for ``num_nodes`` nodes: log2(N), at least 1."""
    return max(1, num_nodes.bit_length() - 1)


class BminTopology:
    """Geometry and routing of a k=2 butterfly BMIN for ``num_nodes`` nodes."""

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 2 or num_nodes & (num_nodes - 1):
            raise ConfigError(f"num_nodes must be a power of two >= 2, got {num_nodes}")
        self.num_nodes = num_nodes
        self.k = 2
        self.stages = stage_count(num_nodes)
        self.rows = num_nodes // 2  # switches per stage

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def switches(self) -> List[SwitchId]:
        return [(s, w) for s in range(self.stages) for w in range(self.rows)]

    def node_switch(self, node: int) -> SwitchId:
        """Stage-0 switch a node attaches to."""
        self._check_node(node)
        return (0, node >> 1)

    def node_port(self, node: int) -> int:
        """Left-side port index (0 or 1) of the node on its stage-0 switch."""
        self._check_node(node)
        return node & 1

    def up_neighbors(self, switch: SwitchId) -> List[SwitchId]:
        stage, row = switch
        if stage >= self.stages - 1:
            return []
        return [(stage + 1, row), (stage + 1, row ^ (1 << stage))]

    def down_neighbors(self, switch: SwitchId) -> List[SwitchId]:
        stage, row = switch
        if stage == 0:
            return []
        return [(stage - 1, row), (stage - 1, row ^ (1 << (stage - 1)))]

    def are_connected(self, a: SwitchId, b: SwitchId) -> bool:
        return b in self.up_neighbors(a) or b in self.down_neighbors(a)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def turn_stage(self, a: int, b: int) -> int:
        """Stage at which the path between nodes a and b turns around."""
        self._check_node(a)
        self._check_node(b)
        wa, wb = a >> 1, b >> 1
        if wa == wb:
            return 0
        return (wa ^ wb).bit_length()

    def path(self, a: int, b: int) -> List[SwitchId]:
        """The unique switch path from node ``a`` to node ``b``.

        Returns the ordered list of (stage, row) switches the header
        traverses.  ``path(a, a)`` is empty (local access, no network).
        Computed on demand from the canonical path of the (min, max)
        pair, so ``path(b, a)`` is ``path(a, b)`` reversed by
        construction; the fabric memoises the pairs its worms use.
        """
        self._check_node(a)
        self._check_node(b)
        if a == b:
            return []
        if a < b:
            return self._canonical_path(a, b)
        return self._canonical_path(b, a)[::-1]

    def _canonical_path(self, a: int, b: int) -> List[SwitchId]:
        """Canonical path for a < b: straight ascent from a, morph descent to b."""
        wa, wb = a >> 1, b >> 1
        if wa == wb:
            return [(0, wa)]
        t = (wa ^ wb).bit_length()
        ascent = [(s, wa) for s in range(t + 1)]
        descent = []
        row = wa
        for s in range(t - 1, -1, -1):
            bit = wb & (1 << s)
            row = (row & ~(1 << s)) | bit
            descent.append((s, row))
        return ascent + descent

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ConfigError(f"node {node} out of range [0, {self.num_nodes})")

    def to_networkx(self):
        """The switch/node graph as an undirected networkx graph.

        Switch vertices are ``("sw", stage, row)``; node vertices are
        ``("node", n)``.  Useful for cross-validation (shortest paths)
        and visualization.
        """
        import networkx as nx

        graph = nx.Graph()
        for sid in self.switches():
            graph.add_node(("sw",) + sid)
        for sid in self.switches():
            for up in self.up_neighbors(sid):
                graph.add_edge(("sw",) + sid, ("sw",) + up)
        for node in range(self.num_nodes):
            graph.add_edge(("node", node), ("sw",) + self.node_switch(node))
        return graph

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BminTopology N={self.num_nodes} stages={self.stages} "
            f"rows={self.rows}>"
        )
