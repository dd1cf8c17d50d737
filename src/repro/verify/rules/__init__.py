"""Rule registry population for the unified analysis framework.

Importing this package registers every built-in rule with
:mod:`repro.verify.framework`; import order here is report order:

* ``W R S H L B N`` — determinism (kernel packages)
* ``F-*`` — handler exhaustiveness over the message-flow graph
* ``C-*`` — lane-dependency deadlock freedom
* ``P-*`` — hot-path purity (the inlined regions)
"""

from __future__ import annotations

from . import determinism as determinism
from . import protocol_flow as protocol_flow
from . import lanes as lanes
from . import hotpath as hotpath

__all__ = ["determinism", "protocol_flow", "lanes", "hotpath"]
