"""Coherence transactions.

A :class:`Transaction` is the node-side record of one outstanding
coherence operation (an L2 read miss, a write-ownership acquisition, or an
upgrade).  It carries the timestamps from which the paper's latency
breakdowns (Figure-5-style) are computed and the service classification
("where was this read served?") used by the evaluation figures.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..network.message import Message


class Transaction:
    """One outstanding coherence operation from a node's point of view."""

    __slots__ = (
        "id",
        "kind",
        "addr",
        "node",
        "home",
        "block_size",
        "issued_at",
        "completed_at",
        "served_by",
        "pending_inval",
        "callback",
        "data",
        "req_msg",
        "reply_msg",
    )

    def __init__(
        self,
        kind: str,
        addr: int,
        node: int,
        home: int,
        block_size: int,
        issued_at: int,
        callback: Optional[Callable[["Transaction"], None]] = None,
        txn_id: int = -1,
    ) -> None:
        if kind not in ("read", "write", "upgrade"):
            raise ValueError(f"bad transaction kind {kind!r}")
        # drawn from the machine's MessagePool (-1: a standalone record)
        self.id = txn_id
        self.kind = kind
        self.addr = addr
        self.node = node
        self.home = home
        self.block_size = block_size
        self.issued_at = issued_at
        self.completed_at: int = -1
        # where the read was ultimately served:
        # 'local_mem' | 'remote_mem' | 'owner' | 'netcache' | 'switch'
        self.served_by: Optional[str] = None
        self.pending_inval = False
        self.callback = callback
        self.data: Optional[int] = None
        self.req_msg: Optional[Message] = None
        self.reply_msg: Optional[Message] = None

    @property
    def latency(self) -> int:
        if self.completed_at < 0:
            raise ValueError("transaction not complete")
        return self.completed_at - self.issued_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Txn#{self.id} {self.kind} n{self.node}->h{self.home} "
            f"addr={self.addr:#x} served_by={self.served_by}>"
        )
