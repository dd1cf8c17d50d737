"""Switch-cache caching policy.

The paper's policy is simple and conservative: a switch cache holds only
**clean shared** data (DATA_S replies), intercepts only read (GETS)
requests, and purges on every invalidation that passes.  The policy object
adds the knobs the evaluation section sweeps, plus two robustness knobs
from the CAESAR design discussion:

* ``bypass_threshold`` — a read request is forwarded *unchecked* when the
  regular tag port is backed up beyond this many cycles, so a congested
  cache engine can never throttle crossbar throughput (the switch keeps
  its 1-flit-per-cycle service rate).
* ``deposit_threshold`` — a passing reply's block is not deposited when
  the target data bank is backed up beyond this many cycles; deposits are
  pure opportunism and must never delay the worm.

Snoops are never skipped: correctness depends on them.
"""

from __future__ import annotations

from typing import Optional, Set


class CachingPolicy:
    """Decision rules for one switch's cache engine."""

    def __init__(
        self,
        bypass_threshold: int = 4,
        deposit_threshold: int = 16,
        enabled_stages: Optional[Set[int]] = None,
    ) -> None:
        self.bypass_threshold = bypass_threshold
        self.deposit_threshold = deposit_threshold
        self.enabled_stages = enabled_stages  # None = every stage caches

    def stage_enabled(self, stage: int) -> bool:
        return self.enabled_stages is None or stage in self.enabled_stages
