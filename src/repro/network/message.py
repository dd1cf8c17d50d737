"""Wire-level message model for the wormhole BMIN.

Messages are wormhole *worms*: a header flit carrying routing and
transaction information followed by payload flits.  Flits are 8 bytes and
links are 16 bits wide, so one flit takes 4 link cycles (Spider [10] /
Cavallino [6] parameters).  The header format follows the paper's Figure 9:
destination, source, message type, and block address travel in the header,
which is all the CAESAR cache engine needs to snoop or intercept a worm as
it enters a switch.

The simulator moves whole messages between components but preserves
flit-level *timing*: per-hop serialization is ``flits * cycles_per_flit``.

Integer-coded kinds and the message pool (DESIGN.md §10)
--------------------------------------------------------
Every :class:`MsgKind` member carries a small-int ``code`` (its header
type field), and the data-carrying predicate is an index-by-code tuple,
:data:`CARRIES_DATA`, so hot sites pay one tuple subscript.  Each kind's
deadlock-freedom lane is declared here too, in :data:`REQUEST_LANE`,
:data:`FORWARD_LANE` and :data:`REPLY_LANE`.

:class:`MessagePool` owns message identity for one machine: ids come
from a per-pool counter, so two machines in one process (differential
tests, the explorer) get independent, reproducible id streams.
Every worm is a fresh :class:`Message`; a delivered one is simply
dropped.

Bare ``Message(...)`` construction (tests, micro-benchmarks, the flit
reference model's callers) still works and draws ids from a module-level
fallback counter.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Dict, FrozenSet, Optional, Tuple


class MsgKind(enum.Enum):
    """Transaction/packet types carried in the header's type field."""

    code: int  # small-int header type (assigned below, in member order)

    # processor -> home requests (forward direction)
    READ = "read"              # GETS: read a shareable copy
    READX = "readx"            # GETX: read with ownership (write miss)
    UPGRADE = "upgrade"        # S -> M ownership request (no data needed)
    # home -> processor replies (backward direction)
    DATA_S = "data_s"          # data reply, shared/clean (switch-cacheable)
    DATA_X = "data_x"          # data reply, with ownership (never switch-cached)
    UPGR_ACK = "upgr_ack"      # upgrade acknowledgment
    # coherence actions
    INV = "inv"                # invalidation (snoops switch caches en route)
    INV_ACK = "inv_ack"        # sharer -> home invalidation ack
    RECALL = "recall"          # home -> owner: downgrade M->S and return data
    RECALL_X = "recall_x"      # home -> owner: invalidate and return data
    RECALL_REPLY = "recall_reply"  # owner -> home: recalled data
    WRITEBACK = "writeback"    # owner -> home: evicted dirty block
    # the switch-cache bookkeeping message: a READ served by a switch cache
    # continues to the home node as this 1-flit directory update
    DIR_UPDATE = "dir_update"


for _code, _kind in enumerate(MsgKind):
    _kind.code = _code

#: Virtual-channel lanes for protocol deadlock freedom (DESIGN.md §11.3):
#: handling a kind may only generate kinds on a later lane, in the order
#: request < forward < reply, unless the edge is whitelisted in
#: ``verify/rules/lane_whitelist.py``.  Every kind sits in exactly one
#: table; flowcheck reads these tables from the source it analyses.
REQUEST_LANE: FrozenSet[MsgKind] = frozenset({
    MsgKind.READ, MsgKind.READX, MsgKind.UPGRADE, MsgKind.WRITEBACK,
    MsgKind.DIR_UPDATE,
})
FORWARD_LANE: FrozenSet[MsgKind] = frozenset({
    MsgKind.INV, MsgKind.RECALL, MsgKind.RECALL_X,
})
REPLY_LANE: FrozenSet[MsgKind] = frozenset({
    MsgKind.DATA_S, MsgKind.DATA_X, MsgKind.UPGR_ACK,
    MsgKind.INV_ACK, MsgKind.RECALL_REPLY,
})

_DATA_KINDS = frozenset(
    {
        MsgKind.DATA_S,
        MsgKind.DATA_X,
        MsgKind.RECALL_REPLY,
        MsgKind.WRITEBACK,
    }
)

#: index-by-code kind predicate
CARRIES_DATA: Tuple[bool, ...] = tuple(k in _DATA_KINDS for k in MsgKind)

#: fallback id stream for messages built outside any pool
_msg_ids = itertools.count()

#: 8-byte flits as in Spider [10] and Cavallino [6].
FLIT_BYTES = 8


def flits_for(kind: MsgKind, block_size: int) -> int:
    """Worm length in flits: 1 header flit (+ data flits for data replies)."""
    if CARRIES_DATA[kind.code]:
        return 1 + block_size // FLIT_BYTES
    return 1


class Message:
    """One worm in flight: the declared message record (DESIGN.md §10.3).

    ``hops`` is the worm's resolved route, ``((switch, out_link), ...)``,
    set by the fabric when the worm enters it.  ``data`` is the block
    version of a data kind; a RECALL_REPLY without one is an evicted
    owner's no-data reply, and a DIR_UPDATE's is the version the serving
    switch cache handed out.
    """

    __slots__ = (
        "id", "kind", "src", "dst", "addr", "flits", "data",
        "proc", "served_by", "served_switch", "mem_wait", "purge_only",
        "no_ack",
        "created_at", "injected_at", "delivered_at", "hops", "transaction",
    )

    def __init__(
        self,
        kind: MsgKind,
        src: int,
        dst: int,
        addr: int,
        flits: int,
        data: Optional[int] = None,
        transaction: Optional[object] = None,
        msg_id: int = -1,
    ) -> None:
        self.id = next(_msg_ids) if msg_id < 0 else msg_id
        self.kind = kind
        self.src = src
        self.dst = dst
        self.addr = addr
        self.flits = flits
        self.data = data
        # transaction fields, set only on the kinds that carry them; proc
        # (a clustered node's requesting processor) rides READ, READX,
        # UPGRADE and the DATA_S/X, UPGR_ACK and DIR_UPDATE they cause
        self.proc: Optional[int] = None
        self.served_by: Optional[str] = None  # DATA_S/X: switch|owner|home_mem
        self.served_switch: Optional[Tuple[int, int]] = None  # switch DATA_S
        self.mem_wait = 0  # home DATA_S/X: memory queueing cycles
        self.purge_only = False  # INV to the writer: keep its L2 copy
        self.no_ack = False  # the corrective INV: no INV_ACK expected
        self.created_at: int = -1
        self.injected_at: int = -1
        self.delivered_at: int = -1
        # the route resolved to ((switch, out-link), ...) hop objects by
        # the fabric at injection, so per-hop forwarding is pure indexing
        self.hops: Optional[Tuple[Any, ...]] = None
        self.transaction = transaction

    def header_fields(self) -> Dict[str, int]:
        """The fields encoded in the 8-byte header flit (paper Fig. 9)."""
        return {
            "dst": self.dst,
            "src": self.src,
            "type": self.kind.code,
            "addr": self.addr,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Msg#{self.id} {self.kind.value} {self.src}->{self.dst} "
            f"addr={self.addr:#x} flits={self.flits}>"
        )


class MessagePool:
    """Per-machine identity: private, reproducible id streams.

    Every protocol message drawn from one pool gets the next id in that
    machine's message stream, and its default flit count from its kind.
    Coherence transactions are numbered from a second stream of the same
    pool (:meth:`next_txn_id`), so a run's trace does not depend on what
    else the process has simulated.
    """

    __slots__ = ("block_size", "_next_id", "_data_flits", "_next_txn_id")

    def __init__(self, block_size: int = 64, start_id: int = 0) -> None:
        self.block_size = block_size
        self._data_flits = 1 + block_size // FLIT_BYTES
        self._next_id = start_id
        self._next_txn_id = 0

    def next_txn_id(self) -> int:
        """The next id in this pool's transaction stream."""
        txn_id = self._next_txn_id
        self._next_txn_id = txn_id + 1
        return txn_id

    def make(
        self,
        kind: MsgKind,
        src: int,
        dst: int,
        addr: int,
        data: Optional[int] = None,
        transaction: Optional[object] = None,
        flits: int = -1,
    ) -> Message:
        """A new worm with the next id in this pool's stream."""
        if flits < 0:
            flits = self._data_flits if CARRIES_DATA[kind.code] else 1
        msg_id = self._next_id
        self._next_id = msg_id + 1
        return Message(
            kind, src, dst, addr, flits, data, transaction, msg_id=msg_id,
        )
