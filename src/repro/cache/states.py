"""MSI line states shared by all cache levels.

The paper's system uses an invalidation-based three-state (MSI) protocol in
the processor caches and a full-map directory at the home memories [7].
Switch caches only ever hold clean shared data, so they reuse ``SHARED``.

Integer codes
-------------
Every ``LineState`` member carries a small-int ``code`` (``I=0, S=1,
M=2``) so the struct-of-arrays cache kernel (:mod:`repro.cache.array`) can
store states as plain ints.  The two hot predicates are single
comparisons::

    resident  <=>  code > 0                  (anything but INVALID)
    owned     <=>  code == CODE_MODIFIED

``LINE_STATE_BY_CODE`` is the hoisted decode table back to the enum for
the object-facing views and victim tuples.
"""

from __future__ import annotations

import enum
from typing import Tuple


class LineState(enum.Enum):
    """Coherence state of one cache line."""

    code: int  # small-int encoding (assigned below; I=0, S=1, M=2)

    INVALID = "I"
    SHARED = "S"
    MODIFIED = "M"

    def owned(self) -> bool:
        """Whether this copy is the block's sole (owner) copy."""
        return self is LineState.MODIFIED


for _code, _member in enumerate(LineState):
    _member.code = _code

#: decode table: LINE_STATE_BY_CODE[code] is the enum member
LINE_STATE_BY_CODE: Tuple[LineState, ...] = tuple(LineState)

#: hoisted code constants for the comparison predicates
CODE_INVALID = LineState.INVALID.code
CODE_SHARED = LineState.SHARED.code
CODE_MODIFIED = LineState.MODIFIED.code


class DirState(enum.Enum):
    """Directory-entry state at a home node (full-map, three states [7])."""

    UNOWNED = "U"
    SHARED = "S"
    MODIFIED = "M"
