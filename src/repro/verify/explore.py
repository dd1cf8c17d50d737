"""Delay-bounded exploration of the protocol's real handlers.

The simulator's coherence handlers (``coherence/home.py``,
``coherence/l2ctrl.py``, ``core/caesar.py``, ``node/node.py``) normally
run under the fabric's one fixed timing.  This module runs them under
many timings instead, following Emmi, Qadeer & Rakamarić,
"Delay-bounded scheduling" (POPL 2011): the trunk schedule first, then
every schedule that delays at most ``k`` of its deliveries.

**The delay overlay.**  :class:`DelayOverlay` wraps each node's fabric
delivery handler, as SCSan's delivery check does, so it needs no seam in
:class:`~repro.system.machine.Machine`.  It numbers fabric deliveries in
arrival order and holds the chosen ordinals for ``hold`` cycles.  A held
worm also holds every later delivery on its (src, dst) pair, so the
fabric's same-route FIFO order still holds: a corrective invalidation
never overtakes the stale reply it chases.  Holding is keyed on a queue
per pair, never on release time alone, because a later worm that
arrives in the very cycle a held one is released must still land
second.

**The enumeration.**  Each schedule runs a built-in script
(:data:`SCRIPTS`) on a sanitized 4-node machine: three caching nodes
and a home, node 0.  With N deliveries on the trunk schedule, the
explorer runs every set of at most ``k`` of the first N ordinals, for
each hold in :data:`HOLDS`.  A schedule fails on any
:class:`~repro.errors.ReproError` (an SCSan violation or a
``check_coherence()`` problem at the end-of-run audit, a
``ProtocolError``, a ``DeadlockError``) or on a non-monotone read.  A
:class:`Failure` carries the schedule — ordinals, the kinds it held,
and the hold — and :meth:`Failure.replay` reruns it exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import combinations
from typing import (
    Callable, Deque, Dict, List, Mapping, Optional, Sequence, Tuple,
)

from ..apps.base import Op
from ..apps.scripted import ScriptedApp, monotone_read_problems
from ..errors import ReproError
from ..network.message import Message
from ..system.config import SystemConfig
from ..system.machine import Machine

#: the delay bound k and the hold lengths D (cycles) of every schedule
K = 2
HOLDS = (40, 400)
#: the home of every scripted block; nodes 1-3 cache it
HOME = 0
#: a run still going after this many cycles is live-locked
MAX_CYCLES = 200_000

_Held = Tuple[int, Callable[[Message], None], Message]


@dataclass(frozen=True)
class Script:
    """Per-processor ops over ``blocks`` blocks, plus config overrides."""

    name: str
    ops: Mapping[int, Sequence[Op]]
    blocks: int = 1
    config: Mapping[str, int] = field(default_factory=dict)


def _b(i: int) -> Tuple[str, int]:
    return ("blk", i)


SCRIPTS: Dict[str, Script] = {
    script.name: script
    for script in (
        # nodes 1 and 2 read first, so the home-to-requester paths hold
        # switch copies.  Node 3's read is then served in the network while
        # node 1 upgrades: its DIR_UPDATE races the write at the home.
        # Work ops, not barriers, order the phases: a barrier is itself
        # coherence traffic, and every delivery multiplies the schedules.
        Script("served_read_vs_write", {
            1: [("r", _b(0)), ("work", 300), ("w", _b(0))],
            2: [("r", _b(0))],
            3: [("work", 300), ("r", _b(0)), ("work", 600), ("r", _b(0))],
        }),
        # reads, upgrades, a recall, fan-out invalidations and (with
        # switch caches) switch-served reads, on two blocks
        Script("mixed_two_blocks", {
            1: [("r", _b(0)), ("r", _b(1)), ("work", 200), ("w", _b(1))],
            2: [("r", _b(1)), ("w", _b(0)), ("work", 300), ("r", _b(1))],
            3: [("work", 100), ("r", _b(1)), ("r", _b(0)), ("work", 100),
                ("w", _b(0))],
        }, blocks=2),
        # as the first script, but node 1 then evicts block 0 from its
        # direct-mapped L2 by writing block 4: held long enough, the
        # DIR_UPDATE of node 3's switch-served read reaches the home after
        # the WRITEBACK, when the directory is UNOWNED again at a newer
        # version than the one served
        Script("write_evict_vs_dir_update", {
            1: [("r", _b(0)), ("work", 300), ("w", _b(0)), ("w", _b(4))],
            2: [("r", _b(0))],
            3: [("work", 300), ("r", _b(0)), ("work", 600), ("r", _b(0))],
        }, blocks=5, config={
            "l1_size": 128, "l1_assoc": 1, "l2_size": 256, "l2_assoc": 1,
        }),
    )
}


class DelayOverlay:
    """Holds chosen fabric deliveries, keeping each pair's FIFO order."""

    def __init__(
        self, machine: Machine, ordinals: Sequence[int] = (), hold: int = 0
    ) -> None:
        self.sim = machine.sim
        self.ordinals = frozenset(ordinals)
        self.hold = hold
        #: fabric deliveries seen so far, held or not
        self.delivered = 0
        #: "#ordinal KIND src->dst" for each delivery actually held
        self.held: List[str] = []
        self._queues: Dict[Tuple[int, int], Deque[_Held]] = {}
        for node in machine.nodes:
            dispatch = node.ni._dispatch
            if dispatch is not None:
                machine.fabric.attach_node(
                    node.node_id, partial(self._on_delivery, dispatch)
                )

    def _on_delivery(
        self, dispatch: Callable[[Message], None], msg: Message
    ) -> None:
        ordinal = self.delivered
        self.delivered += 1
        pair = (msg.src, msg.dst)
        queue = self._queues.setdefault(pair, deque())
        if ordinal in self.ordinals:
            self.held.append(
                f"#{ordinal} {msg.kind.name} {msg.src}->{msg.dst}"
            )
            due = self.sim.now + self.hold
        elif not queue:
            dispatch(msg)
            return
        else:
            due = self.sim.now  # behind a held worm on the same pair
        if not queue:
            self.sim.call_at(due, self._release, queue)
        queue.append((due, dispatch, msg))

    def _release(self, queue: Deque[_Held]) -> None:
        """Deliver the pair's due worms in order; wait for the next one."""
        now = self.sim.now
        while queue and queue[0][0] <= now:
            _due, dispatch, msg = queue.popleft()
            dispatch(msg)
        if queue:
            self.sim.call_at(queue[0][0], self._release, queue)


def config_for(script: Script, switch: bool) -> SystemConfig:
    """The 4-node machine a script runs on, with or without switch caches."""
    base = SystemConfig(
        num_nodes=4, l1_size=1024, l2_size=4096, quantum=100,
        trace_values=True,
        switch_cache_size=1024 if switch else 0,
    )
    return replace(base, **script.config)


def run_schedule(
    script: Script,
    switch: bool = True,
    ordinals: Sequence[int] = (),
    hold: int = 0,
) -> Tuple[Machine, DelayOverlay, Optional[str]]:
    """Run one schedule; returns the machine, its overlay and any failure."""
    machine = Machine(config_for(script, switch), sanitize=True)
    overlay = DelayOverlay(machine, ordinals, hold)
    app = ScriptedApp(script.ops, blocks=script.blocks, home=HOME)
    try:
        machine.run(app, max_cycles=MAX_CYCLES)
    except ReproError as exc:
        return machine, overlay, f"{type(exc).__name__}: {exc}"
    problems = monotone_read_problems(machine)
    if problems:
        return machine, overlay, f"non-monotone read: {problems[0]}"
    return machine, overlay, None


def _cell(script: str, switch: bool) -> str:
    return f"{script}[{'switch' if switch else 'no-switch'}]"


@dataclass(frozen=True)
class Failure:
    """One failing schedule, with what it takes to replay it exactly."""

    script: Script
    switch: bool
    ordinals: Tuple[int, ...]
    hold: int
    held: Tuple[str, ...]
    error: str

    def replay(self) -> Tuple[Machine, DelayOverlay, Optional[str]]:
        return run_schedule(
            self.script, self.switch, self.ordinals, self.hold
        )

    def __str__(self) -> str:
        held = ", ".join(self.held) or "nothing (trunk schedule)"
        return (
            f"{_cell(self.script.name, self.switch)} holding "
            f"{held} for {self.hold} cycles: {self.error}"
        )


@dataclass
class Exploration:
    """The outcome of one script with or without switch caches."""

    script: str
    switch: bool
    deliveries: int = 0
    schedules: int = 0
    #: the first failing schedule, which ends the exploration
    failure: Optional[Failure] = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    def summary(self) -> str:
        return (
            f"{_cell(self.script, self.switch)}: "
            f"{self.deliveries} deliveries, {self.schedules} schedules, "
            f"{'ok' if self.ok else 'FAILED'}"
        )


def explore(
    script: Script, switch: bool = True, k: int = K
) -> Exploration:
    """Run the trunk schedule, then every schedule delaying <= k deliveries.

    Schedules run in order of delay count, then hold, then ordinals, and
    the first failing one ends the exploration: it is the smallest.
    """
    result = Exploration(script.name, switch)

    def attempt(ordinals: Tuple[int, ...], hold: int) -> int:
        _machine, overlay, error = run_schedule(script, switch, ordinals, hold)
        result.schedules += 1
        if error is not None:
            result.failure = Failure(
                script, switch, ordinals, hold, tuple(overlay.held), error,
            )
        return overlay.delivered

    result.deliveries = attempt((), 0)
    for size in range(1, k + 1):
        for hold in HOLDS:
            for chosen in combinations(range(result.deliveries), size):
                if result.failure is not None:
                    return result
                attempt(chosen, hold)
    return result
