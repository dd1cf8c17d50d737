"""Golden run fingerprints for switch-cache configs the perf pins miss.

``perfbench/pins.json`` and ``fixtures/opstream_digests.json`` pin the
default switch cache (every stage caches, one bank, LRU).  The cells
here cover the rest of the switch-cache surface: caches on one stage
only (so worms cross switches whose engine never deposits or serves),
CAESAR+ with two interleaved banks, and FIFO and seeded-random
replacement (next to LRU as their baseline).  Each cell runs
one quick-scale paper app, or the synthetic ``SharedReaders`` sweep
whose re-reads make the victim policy visible, on 16 nodes and must
reproduce a digest frozen in
``fixtures/config_digests.json``, in the same fingerprint form as
``test_opstream_differential.py``: any change to simulated behaviour on
these configs, however small, moves a digest.

To re-record after an intended behaviour change::

    PYTHONPATH=src python tests/test_config_fingerprints.py --record
"""

import json
import sys
from pathlib import Path

import pytest

from repro.apps.synthetic import SharedReaders
from repro.experiments.common import APP_ORDER, make_app
from repro.system.presets import caesar_plus_config, switch_cache_config
from test_opstream_differential import digest, fingerprint

DIGESTS = Path(__file__).resolve().parent / "fixtures" / "config_digests.json"

#: config name -> builder (16 nodes, 2 KB 2-way switch caches)
CONFIGS = {
    "stage1": lambda: switch_cache_config(16, stages={1}),
    "caesar-plus": lambda: caesar_plus_config(16),
    "lru": lambda: switch_cache_config(16),
    "fifo": lambda: switch_cache_config(
        16, switch_cache_replacement="fifo"),
    "random": lambda: switch_cache_config(
        16, switch_cache_replacement="random"),
}

APPS = APP_ORDER + ("SharedReaders",)

CELLS = [f"{name}-{app}" for name in CONFIGS for app in APPS]


def cell_digest(cell):
    name, app_name = cell.rsplit("-", 1)
    if app_name == "SharedReaders":
        app = SharedReaders()
    else:
        app = make_app(app_name, "quick")
    return digest(fingerprint(CONFIGS[name](), app))


@pytest.fixture(scope="module")
def frozen():
    return json.loads(DIGESTS.read_text())


def test_frozen_digests_are_exactly_the_cells(frozen):
    # a digest no cell reads would never fail, only rot
    assert set(frozen) == set(CELLS)


@pytest.mark.parametrize("cell", CELLS)
def test_config_fingerprint_is_golden(cell, frozen):
    assert cell_digest(cell) == frozen[cell], (
        f"{cell} moved off its golden fingerprint"
    )


def test_replacement_policy_reaches_the_fingerprint(frozen):
    # the victim policy must show in at least one digest, else the
    # fifo/random cells would pin nothing the LRU cells do not
    shared = {frozen[f"{policy}-SharedReaders"]
              for policy in ("lru", "fifo", "random")}
    assert len(shared) == 3


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    DIGESTS.write_text(
        json.dumps({cell: cell_digest(cell) for cell in CELLS}, indent=1,
                   sort_keys=True) + "\n"
    )
