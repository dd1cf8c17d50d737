"""Intentionally cyclic / non-monotonic protocol-flow edges.

The lane rules (:mod:`repro.verify.rules.lanes`) demand that handling a
message only ever generates messages on a strictly *later* lane
(request < forward < reply) — the classic sufficient condition for
deadlock freedom in a CC-NUMA fabric.  The edges below are deliberate
exceptions; every entry must say why the edge cannot contribute to a
buffer-dependency deadlock.  Anything not listed here fails C-SAMELANE /
C-BACKWARD / C-CYCLE.

Audit trail for the PR 2 race-fix edges (the DIR_UPDATE/corrective-INV
family) requested by ISSUE 7:

* ``DIR_UPDATE -> INV`` (corrective invalidation on a stale switch
  serve) is request -> forward, i.e. strictly *increasing* lane order —
  it needs **no** whitelist entry and gets none, so any refactor that
  turns it into a reply-lane dependency will fail the gate.
* ``READ -> DIR_UPDATE`` (the intercepted worm continuing to the home)
  is the one same-lane edge the race fix relies on; its justification
  is below.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: (source kind, generated kind) -> justification.  Keep justifications
#: to one line; ``python -m repro.verify --list-whitelist`` echoes them.
WHITELIST: Dict[Tuple[str, str], str] = {
    # -- switch-cache interception (PR 2 race-fix family) --------------
    ("READ", "DIR_UPDATE"):
        "same-lane request->request: the intercepted READ worm itself "
        "continues as the 1-flit DIR_UPDATE on the same path — no new "
        "injection, the worm strictly shrinks, so it consumes no "
        "additional request-lane buffering",
    # -- ack/recall completion fan-in (reply -> reply) -----------------
    ("INV_ACK", "UPGR_ACK"):
        "reply->reply: each INV_ACK decrements acks_needed and only the "
        "final ack emits the UPGR_ACK that closes the transaction — "
        "bounded by the sharer count, no reply-lane cycle can sustain",
    ("INV_ACK", "DATA_X"):
        "reply->reply: same final-ack completion as UPGR_ACK but for a "
        "write miss; one DATA_X per transaction, strictly consuming",
    ("RECALL_REPLY", "DATA_S"):
        "reply->reply: exactly one recall is outstanding per "
        "transaction; its reply releases the single buffered DATA_S",
    ("RECALL_REPLY", "DATA_X"):
        "reply->reply: ownership-recall completion, one DATA_X per "
        "transaction",
    ("RECALL_REPLY", "UPGR_ACK"):
        "reply->reply: an upgrade that found the line modified recalls "
        "first; the recall reply releases the single UPGR_ACK",
    # -- eviction spill on reply fill (reply -> request, backward) -----
    ("DATA_S", "WRITEBACK"):
        "reply->request backward: filling a reply may evict a dirty "
        "victim whose WRITEBACK is fire-and-forget through the NI send "
        "buffer — consuming the reply never blocks on the spill",
    ("DATA_X", "WRITEBACK"):
        "reply->request backward: same eviction spill as DATA_S, for "
        "owned fills",
}
