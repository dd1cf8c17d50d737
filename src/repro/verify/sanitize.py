"""SCSan: opt-in runtime invariant layer for live simulations.

SCSan checks the protocol's invariants on the real component models
while a simulation runs (the delay-bounded explorer,
:mod:`repro.verify.explore`, runs it over many timings of small
scripted races), plus the kernel-level properties beneath them:

* **SWMR** — after every message delivery, at most one processor stack
  holds an owned (MODIFIED) copy of the delivered block, and
  no switch-cache copy runs ahead of the home directory's image.
* **Flit conservation** — every worm injected into (or fabricated
  inside) the fabric is delivered exactly once; nothing is dropped or
  duplicated.  Checked with a ledger keyed on message identity.
* **Drain-before-release** — a processor arriving at a barrier or
  releasing a lock must have an empty write buffer (the fence semantics
  :mod:`repro.node.processor` promises).
* **Final audit** — at end of run the ledger is empty, write buffers
  are empty, the whole-system coherence audit
  (:meth:`~repro.system.machine.Machine.check_coherence`) is clean, and
  every switch-cache hit reconciles: the engines' total ``hits``, the
  reads the statistics classed ``switch`` and the DIR_UPDATEs the homes
  applied are one number, and the fabric delivered one worm per NI
  injection plus one per hit.

Enable with ``Machine(config, sanitize=True)``, ``--sanitize`` on the
``repro-sim``/``repro-experiments`` CLIs, or ``REPRO_SANITIZE=1`` in the
environment (the pytest hook).  Violations raise
:class:`~repro.errors.SanitizerError` at the detection point, so the
offending event is at the top of the traceback.

SCSan is an overlay, not a second implementation: a sanitized machine
runs the plain :class:`~repro.sim.engine.Simulator` and the fabric's
own per-hop callbacks.  The ledger lives in a :class:`Fabric` subclass
that wraps only injection, mid-fabric entry and delivery; the other
checks wrap the NIs' dispatchers and the sync managers.  That event
times never move the clock backwards needs no check here: every push
onto the event heap (``Simulator.call_at`` and its inlined copy in
``Fabric._hop``) rejects a past time.

The fabric ledger covers the message-granularity :class:`Fabric`; the
flit-granularity reference model (``network_model="flit"``) runs with
the coherence and sync checks and the final audit, whose worm count
stands in for the ledger.
"""

from __future__ import annotations

from typing import Dict, List

from ..errors import SanitizerError
from ..network.fabric import Fabric
from ..network.message import Message


class Sanitizer:
    """Shared state for one machine's runtime checks.

    One instance is shared by the sanitized fabric and the wrappers
    installed on the machine's NIs and sync managers.  ``violations``
    keeps everything detected (for reporting); detection also raises
    immediately so the failing event is on the stack.
    """

    def __init__(self) -> None:
        self.violations: List[str] = []
        self.deliveries_checked = 0
        self.sync_checks = 0
        self._machine = None

    # ------------------------------------------------------------------
    # violation sink
    # ------------------------------------------------------------------
    def violation(self, kind: str, message: str) -> None:
        report = f"[{kind}] {message}"
        self.violations.append(report)
        raise SanitizerError(f"SCSan: {report}")

    # ------------------------------------------------------------------
    # machine hookup
    # ------------------------------------------------------------------
    def attach_machine(self, machine) -> None:
        """Install delivery and sync wrappers on a fully built machine."""
        self._machine = machine
        for node in machine.nodes:
            self._wrap_dispatch(node)
        self._wrap_sync(machine)

    def _wrap_dispatch(self, node) -> None:
        original = node.ni._dispatch
        if original is None:  # pragma: no cover - nodes attach in __init__
            return

        def checked(msg: Message, _orig=original) -> None:
            _orig(msg)
            self.deliveries_checked += 1
            self.check_block(msg.addr)

        # re-attach: the fabric calls the dispatcher directly
        node.ni.attach(checked)

    def _wrap_sync(self, machine) -> None:
        stacks = {stack.proc_id: stack for stack in machine.stacks()}

        def require_drained(proc_id: int, action: str) -> None:
            self.sync_checks += 1
            stack = stacks.get(proc_id)
            if stack is not None and not stack.write_buffer.is_empty():
                blocks = ", ".join(
                    f"{b:#x}" for b in sorted(stack.write_buffer.pending_blocks())
                )
                self.violation(
                    "sync",
                    f"proc {proc_id} {action} with non-empty write buffer "
                    f"({blocks})",
                )

        arrive_at_barrier = machine.barriers.arrive

        def arrive(barrier_id: int, node_id: int, resume,
                   _orig=arrive_at_barrier) -> None:
            require_drained(node_id, f"arrived at barrier {barrier_id}")
            _orig(barrier_id, node_id, resume)

        machine.barriers.arrive = arrive

        lock_release = machine.locks.release

        def release(lock_id: int, node_id: int, _orig=lock_release) -> None:
            require_drained(node_id, f"released lock {lock_id}")
            _orig(lock_id, node_id)

        machine.locks.release = release

    # ------------------------------------------------------------------
    # per-delivery block check
    # ------------------------------------------------------------------
    def check_block(self, addr: int) -> None:
        """SWMR + switch-copy freshness for one block, valid mid-flight."""
        machine = self._machine
        bs = machine.config.block_size
        block = (addr // bs) * bs
        owners = []
        for node in machine.nodes:
            for stack in node.stacks:
                line = stack.hierarchy.l2.probe(block)
                if line is not None and line.state.owned():
                    owners.append(stack.proc_id)
        if len(owners) > 1:
            self.violation(
                "swmr",
                f"block {block:#x}: owned copies at procs {owners}",
            )
        # a switch-cache copy is deposited from a DATA_S carrying the home
        # image, so it may lag the directory (a purge INV is in flight)
        # but must never run ahead of it
        home = machine.nodes[machine.space.home_of(block)]
        entry = home.directory.peek(block)
        if entry is None:
            return
        for engine in machine.fabric.cache_engines:
            line = engine.array.probe(block)
            if line is not None and line.data > entry.version:
                self.violation(
                    "switch",
                    f"block {block:#x}: switch {engine.switch_id} copy "
                    f"v{line.data} ahead of home image v{entry.version}",
                )

    # ------------------------------------------------------------------
    # end-of-run audit
    # ------------------------------------------------------------------
    def final_check(self, machine) -> None:
        """Ledger, write-buffer, and coherence audit at quiescence."""
        problems: List[str] = []
        fabric = machine.fabric
        if isinstance(fabric, SanitizedFabric):
            for msg in fabric.in_flight():
                problems.append(
                    f"[fabric] {msg.kind.name} for {msg.addr:#x} "
                    f"({msg.src}->{msg.dst}, {msg.flits} flits) never delivered"
                )
        # each hit is one read served by a switch and one DIR_UPDATE
        identity = {
            "CAESAR hits": fabric.stats.switch_hits,
            "read_counts['switch']": machine.stats.read_counts["switch"],
            "sum of home_ctrl.dir_updates": sum(
                node.home_ctrl.dir_updates for node in machine.nodes
            ),
        }
        if len(set(identity.values())) != 1:
            problems.append(
                f"[stats] switch-hit reconciliation broken: {identity}"
            )
        # worm conservation by count, the one fabric check the flit
        # reference (no ledger) gets too: each hit adds one worm
        stats = fabric.stats
        if stats.msgs_delivered != stats.msgs_injected + stats.switch_hits:
            problems.append(
                f"[stats] worm count broken: {stats.msgs_delivered} "
                f"delivered, {stats.msgs_injected} injected, "
                f"{stats.switch_hits} switch hits"
            )
        for stack in machine.stacks():
            if not stack.write_buffer.is_empty():
                problems.append(
                    f"[sync] proc {stack.proc_id} finished with a non-empty "
                    f"write buffer"
                )
        problems.extend(
            f"[coherence] {problem}" for problem in machine.check_coherence()
        )
        if problems:
            self.violations.extend(problems)
            raise SanitizerError(
                "SCSan: end-of-run audit failed:\n  " + "\n  ".join(problems)
            )


class SanitizedFabric(Fabric):
    """Fabric overlay: a conservation ledger over every worm.

    A worm is registered when it enters the fabric — through
    :meth:`inject`, or at :meth:`_forward` for replies the
    switch-cache service fabricates mid-network — and must be delivered
    exactly once.  The ledger holds strong references, so ``id(msg)``
    cannot be reused while an entry is outstanding.
    """

    def __init__(self, sanitizer: Sanitizer, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._san = sanitizer
        self._ledger: Dict[int, Message] = {}

    def in_flight(self) -> List[Message]:
        return list(self._ledger.values())

    def inject(self, msg: Message) -> None:
        if id(msg) in self._ledger:
            self._san.violation(
                "fabric",
                f"{msg.kind.name} for {msg.addr:#x} ({msg.src}->{msg.dst}) "
                f"injected while already in flight",
            )
        self._ledger[id(msg)] = msg
        super().inject(msg)

    def _forward(self, msg: Message, hop: int, header_at: int) -> None:
        """Register a switch-fabricated reply: ``_forward`` serves only
        that reply, which enters the network here, not via inject."""
        self._ledger[id(msg)] = msg
        super()._forward(msg, hop, header_at)

    def _deliver(self, msg: Message) -> None:
        if self._ledger.pop(id(msg), None) is None:
            self._san.violation(
                "fabric",
                f"{msg.kind.name} for {msg.addr:#x} ({msg.src}->{msg.dst}) "
                f"delivered twice or never injected",
            )
        super()._deliver(msg)
