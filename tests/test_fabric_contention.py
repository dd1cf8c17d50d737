"""Fabric behaviour under load: hotspots, ordering, utilization."""

from repro.network.fabric import Fabric
from repro.network.message import Message, MsgKind, flits_for
from repro.network.topology import BminTopology
from repro.sim.engine import Simulator


def make_fabric(n=16):
    sim = Simulator()
    fabric = Fabric(sim, BminTopology(n))
    inbox = {node: [] for node in range(n)}
    for node in range(n):
        fabric.attach_node(node, lambda m, nid=node: inbox[nid].append(m))
    return sim, fabric, inbox


def data_msg(src, dst, addr=0x40):
    return Message(MsgKind.DATA_S, src, dst, addr,
                   flits_for(MsgKind.DATA_S, 64), data=0)


class TestHotspot:
    def test_all_to_one_serializes_at_destination(self):
        sim, fabric, inbox = make_fabric()
        for src in range(1, 16):
            fabric.inject(data_msg(src, 0))
        sim.run()
        assert len(inbox[0]) == 15
        arrivals = sorted(m.delivered_at for m in inbox[0])
        # the ejection link serializes: arrivals are spaced at least one
        # worm's serialization time apart once the link saturates
        worm_time = 9 * 4
        late = arrivals[5:]
        gaps = [b - a for a, b in zip(late, late[1:])]
        assert all(gap >= worm_time for gap in gaps)

    def test_hotspot_slower_than_uniform(self):
        sim_h, fabric_h, inbox_h = make_fabric()
        for src in range(1, 16):
            fabric_h.inject(data_msg(src, 0))
        sim_h.run()
        hotspot_done = max(m.delivered_at for m in inbox_h[0])

        sim_u, fabric_u, inbox_u = make_fabric()
        for src in range(1, 16):
            fabric_u.inject(data_msg(src, (src + 8) % 16))
        sim_u.run()
        uniform_done = max(
            m.delivered_at for msgs in inbox_u.values() for m in msgs
        )
        assert hotspot_done > uniform_done

    def test_link_utilization_reported(self):
        sim, fabric, _inbox = make_fabric()
        for src in range(1, 16):
            fabric.inject(data_msg(src, 0))
        sim.run()
        ejection = fabric.switches[(0, 0)].output_to(0)
        assert ejection.utilization() > 0.5


class TestOrdering:
    def test_same_path_fifo_under_load(self):
        sim, fabric, inbox = make_fabric()
        sent = [data_msg(3, 12, addr=i * 64) for i in range(10)]
        for msg in sent:
            fabric.inject(msg)
        sim.run()
        assert inbox[12] == sent

    def test_distinct_paths_can_reorder(self):
        # a long-path message injected first can arrive after a short-path
        # message injected later from another node: no global ordering
        sim, fabric, inbox = make_fabric()
        far = data_msg(15, 0)
        fabric.inject(far)
        near = data_msg(1, 0)
        fabric.inject(near)
        sim.run()
        assert inbox[0][0] is near

    def test_flit_conservation(self):
        sim, fabric, inbox = make_fabric()
        for src in range(1, 16):
            fabric.inject(data_msg(src, 0))
            fabric.inject(
                Message(MsgKind.READ, src, 0, 0x80,
                        flits_for(MsgKind.READ, 64))
            )
        sim.run()
        delivered_flits = sum(m.flits for m in inbox[0])
        assert delivered_flits == fabric.stats.flits_injected
        assert fabric.stats.msgs_delivered == 30


class TestIntermediateStages:
    def test_turnaround_switch_carries_cross_traffic(self):
        sim, fabric, _inbox = make_fabric()
        # traffic between the two halves of the machine must climb to
        # stage 3 switches
        fabric.inject(data_msg(0, 15))
        fabric.inject(data_msg(7, 8))
        sim.run()
        top_traffic = sum(
            link.reservations
            for sid, sw in fabric.switches.items()
            if sid[0] == 3
            for link in sw.outputs().values()
        )
        assert top_traffic == 2

    def test_local_traffic_stays_low(self):
        sim, fabric, _inbox = make_fabric()
        fabric.inject(data_msg(0, 1))  # same stage-0 switch
        sim.run()
        for sid, sw in fabric.switches.items():
            if sid[0] > 0:
                assert all(
                    link.reservations == 0 for link in sw.outputs().values()
                )


class TestUtilizationReports:
    def test_utilization_by_stage_covers_all_stages(self):
        sim, fabric, _inbox = make_fabric()
        fabric.inject(data_msg(0, 15))
        sim.run()
        by_stage = fabric.utilization_by_stage()
        assert set(by_stage) == {0, 1, 2, 3}
        assert all(0.0 <= u <= 1.0 for u in by_stage.values())

    def test_hotspot_concentrates_utilization_low_stages(self):
        sim, fabric, _inbox = make_fabric()
        for src in range(1, 16):
            fabric.inject(data_msg(src, 0))
        sim.run()
        by_stage = fabric.utilization_by_stage()
        # traffic funnels toward node 0: stage-0 links near the sink are
        # the busiest on average? the funnel makes low stages busier
        assert by_stage[0] > by_stage[3]

    def test_hottest_links_sorted_and_bounded(self):
        sim, fabric, _inbox = make_fabric()
        for src in range(1, 16):
            fabric.inject(data_msg(src, 0))
        sim.run()
        hot = fabric.hottest_links(top=3)
        assert len(hot) == 3
        queues = [row[3] for row in hot]
        assert queues == sorted(queues, reverse=True)

    def test_idle_fabric_has_no_hot_links(self):
        _sim, fabric, _inbox = make_fabric()
        assert fabric.hottest_links() == []
