"""Scripted workloads: explicit per-processor op lists.

:class:`ScriptedApp` drives exact access interleavings (reads, writes,
barriers) per processor; the protocol tests and the delay-bounded
explorer (:mod:`repro.verify.explore`) are built on it.
:func:`monotone_read_problems` is the matching end-of-run check: with
``trace_values`` on, every processor must observe each block's write
counter in non-decreasing order.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence

from .base import Application, Op


class ScriptedApp(Application):
    """An application defined by explicit per-processor op lists.

    Addresses may be given symbolically as ``("blk", i)`` pairs,
    resolved at setup time against blocks allocated with the requested
    placement (all homed at ``home`` when it is given).
    """

    name = "scripted"

    def __init__(
        self,
        scripts: Mapping[int, Sequence[Op]],
        blocks: int = 8,
        home: Optional[int] = None,
        interleave: bool = True,
    ) -> None:
        self.scripts = scripts
        self.n_blocks = blocks
        self.home = home
        self.interleave = interleave if home is None else False
        self.block_addrs: List[int] = []

    def setup(self, machine) -> None:
        block = machine.config.block_size
        base = machine.space.alloc(
            self.n_blocks * block, home=self.home, interleave=self.interleave
        )
        self.block_addrs = [base + i * block for i in range(self.n_blocks)]

    def _resolve(self, op: Op) -> Op:
        if len(op) >= 2 and isinstance(op[1], tuple) and op[1][0] == "blk":
            return (op[0], self.block_addrs[op[1][1]]) + tuple(op[2:])
        return op

    def ops(self, proc_id: int, machine) -> Iterator[Op]:
        for op in self.scripts.get(proc_id, ()):
            yield self._resolve(op)


def monotone_read_problems(machine) -> List[str]:
    """Per (processor, block), every read version the run went backward on.

    Reads the processors' value traces, so the machine must run with
    ``trace_values=True``; an empty list means every read was monotone.
    """
    problems: List[str] = []
    block = machine.config.block_size
    for stack in machine.stacks():
        last: Dict[int, int] = {}
        for _op, addr, version, _time in stack.processor.value_trace:
            if version is None:
                continue
            key = (addr // block) * block
            previous = last.get(key, -1)
            if version < previous:
                problems.append(
                    f"proc {stack.proc_id} read v{version} after v{previous} "
                    f"at block {key:#x}"
                )
            else:
                last[key] = version
    return problems
