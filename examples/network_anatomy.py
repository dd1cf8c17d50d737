"""Anatomy of the wormhole BMIN: routing, latency, and hot links.

Walks through the interconnect substrate on its own — paths through the
butterfly, the per-hop latency arithmetic of a worm, and which links
saturate under an all-to-one hotspot — useful when reasoning about where
switch caches pay off (they serve requests *before* the hotspot).

Run:  python examples/network_anatomy.py
"""

from repro.network.fabric import Fabric
from repro.network.message import Message, MsgKind, flits_for
from repro.network.topology import BminTopology
from repro.sim.engine import Simulator
from repro.stats import format_table


def show_routing(topo: BminTopology) -> None:
    print("paths from node 0 (stage, row):")
    for dst in (1, 2, 5, 15):
        hops = " -> ".join(str(s) for s in topo.path(0, dst))
        print(f"  0 -> {dst:2d}: {hops}")
    print()


def show_latency() -> None:
    sim = Simulator()
    topo = BminTopology(16)
    fabric = Fabric(sim, topo)
    delivered = {}
    for node in range(16):
        fabric.attach_node(node, lambda m, n=node: delivered.setdefault(m.id, sim.now))
    rows = []
    for dst in (1, 2, 5, 15):
        for kind in (MsgKind.READ, MsgKind.DATA_S):
            msg = Message(kind, 0, dst, 0x40, flits_for(kind, 64), data=0)
            fabric.inject(msg)
            sim.run()
            rows.append((f"0 -> {dst}", kind.value, msg.flits,
                         len(msg.hops), msg.delivered_at - msg.created_at))
    print(format_table(
        ("route", "message", "flits", "hops", "latency (cycles)"),
        rows, title="Uncontended worm latencies",
    ))
    print()


def show_hotspot() -> None:
    sim = Simulator()
    topo = BminTopology(16)
    fabric = Fabric(sim, topo)
    for node in range(16):
        fabric.attach_node(node, lambda m: None)
    # every node fires a data-sized worm at node 0 (an all-to-one hotspot,
    # like bulk read replies leaving one hot home memory)
    for src in range(1, 16):
        fabric.inject(Message(MsgKind.DATA_S, src, 0, 0x40, 9, data=0))
    sim.run()
    # a grant is one worm on the fabric (one flit on the flit reference)
    hot = [
        (str(sid), str(toward), grants, f"{queue:.1f}")
        for sid, toward, grants, queue in fabric.hottest_links(top=8)
    ]
    print(format_table(
        ("switch", "toward", "grants", "mean queue (cycles)"),
        hot, title="Hottest links under a 15-to-1 hotspot",
    ))


def main() -> None:
    topo = BminTopology(16)
    print(f"{topo!r}\n")
    show_routing(topo)
    show_latency()
    show_hotspot()


if __name__ == "__main__":
    main()
