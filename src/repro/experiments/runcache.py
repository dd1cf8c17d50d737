"""On-disk cache of completed simulation runs.

``repro-experiments`` re-simulates the same (app, scale, config)
machines every time a figure is regenerated.  Each run is a pure
function of its inputs (the engine is deterministic), so completed
:class:`~repro.experiments.common.RunRecord` payloads are persisted
under ``results/.runcache/`` and reused across processes and across
days: regenerating one figure, or every figure, only simulates
machines it has never seen.

Keying
------
A cache entry is addressed by ``(app, scale, config fingerprint,
simulator source digest, CACHE_FORMAT_VERSION)``, all baked into the
file name.  The fingerprint hashes **every** ``SystemConfig`` field
(plus any per-run application-input overrides), so two configs that
differ in any parameter can never alias.  The source digest
(:func:`source_digest`) hashes every module of the package outside
``experiments/`` and ``verify/``, so any change to the simulated model
orphans every entry it could have made stale, while edits to report
code keep reusing cached runs.  Bump :data:`CACHE_FORMAT_VERSION` only
when the payload layout changes — see CONTRIBUTING.md.

The cache is **disabled by default** so unit tests always exercise the
live simulator; the CLI (``repro-experiments``) enables it explicitly.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import pathlib
import tempfile
from typing import Dict, Optional

from ..system.config import SystemConfig

#: bump when the payload layout changes (simulator changes are caught by
#: the source digest); every existing entry becomes unreachable, and
#: ``prune()`` removes it
CACHE_FORMAT_VERSION = 4  # v4: exec_time and hits by stage only inside stats

#: the package whose source keys every entry (``src/repro``)
PACKAGE_DIR = pathlib.Path(__file__).resolve().parents[1]

#: subpackages that never change a simulated run: the report code and
#: the protocol checkers
_UNKEYED = ("experiments", "verify")

_enabled = False

#: statistics for the current process (CLI reporting)
hits = 0
misses = 0
stores = 0


def set_enabled(flag: bool) -> None:
    """Globally enable/disable the on-disk cache for this process."""
    global _enabled
    _enabled = bool(flag)


def is_enabled() -> bool:
    return _enabled


def cache_dir() -> pathlib.Path:
    """Cache directory: ``$REPRO_RUNCACHE_DIR`` or ``results/.runcache``.

    The default resolves against the repository checkout containing this
    file when run from a source tree, else against the current working
    directory (installed-package case).
    """
    override = os.environ.get("REPRO_RUNCACHE_DIR")
    if override:
        return pathlib.Path(override)
    here = pathlib.Path(__file__).resolve()
    repo_root = here.parents[3]  # src/repro/experiments/runcache.py -> repo
    if (repo_root / "src").is_dir():
        return repo_root / "results" / ".runcache"
    return pathlib.Path.cwd() / "results" / ".runcache"


def config_fingerprint(
    config: SystemConfig, app_overrides: Optional[Dict] = None
) -> str:
    """Hex digest over every config field plus app-input overrides."""
    blob = {
        field.name: _jsonable(getattr(config, field.name))
        for field in dataclasses.fields(SystemConfig)
    }
    if app_overrides:
        blob["__app_overrides__"] = {
            str(k): _jsonable(v) for k, v in sorted(app_overrides.items())
        }
    canonical = json.dumps(blob, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _jsonable(value):
    """Recursively convert ``value`` into JSON-encodable containers.

    Sets/frozensets become sorted lists and tuples become lists at
    *every* nesting level — a config field like ``(frozenset({1}),)``
    must fingerprint, not crash ``json.dumps``.
    """
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(item) for item in value)
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    return value


@functools.lru_cache(maxsize=None)
def source_digest(package: pathlib.Path = PACKAGE_DIR) -> str:
    """Hex sha256 over every ``*.py`` under ``package`` outside
    ``experiments/`` and ``verify/``: the simulator's source."""
    digest = hashlib.sha256()
    files = sorted(
        (path.relative_to(package).as_posix(), path)
        for path in package.rglob("*.py")
        if path.relative_to(package).parts[0] not in _UNKEYED
    )
    for name, path in files:
        source = path.read_bytes()
        digest.update(f"{name}\0{len(source)}\0".encode())
        digest.update(source)
    return digest.hexdigest()


def current_suffix() -> str:
    """File-name suffix of every entry the current code can load."""
    return f".{source_digest()[:12]}.v{CACHE_FORMAT_VERSION}.json"


def entry_path(
    app: str, scale: str, config: SystemConfig,
    app_overrides: Optional[Dict] = None,
) -> pathlib.Path:
    digest = config_fingerprint(config, app_overrides)
    return cache_dir() / f"{app}-{scale}-{digest[:20]}{current_suffix()}"


def load(
    app: str, scale: str, config: SystemConfig,
    app_overrides: Optional[Dict] = None,
) -> Optional[Dict]:
    """The cached RunRecord payload for this run, or None."""
    global hits, misses
    if not _enabled:
        return None
    path = entry_path(app, scale, config, app_overrides)
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        misses += 1
        return None
    if payload.get("cache_format") != CACHE_FORMAT_VERSION:
        misses += 1
        return None
    hits += 1
    return payload["record"]


def store(
    app: str, scale: str, config: SystemConfig,
    record_payload: Dict, app_overrides: Optional[Dict] = None,
) -> Optional[pathlib.Path]:
    """Persist a RunRecord payload; returns the entry path (None if off)."""
    global stores
    if not _enabled:
        return None
    path = entry_path(app, scale, config, app_overrides)
    path.parent.mkdir(parents=True, exist_ok=True)
    wrapped = {
        "cache_format": CACHE_FORMAT_VERSION,
        "app": app,
        "scale": scale,
        "config_label": config.label(),
        "record": record_payload,
    }
    # atomic publish: concurrent workers may store the same entry
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(wrapped, handle, separators=(",", ":"))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    stores += 1
    return path


def clear() -> int:
    """Delete every cache entry (all versions) **and** leftover temp
    files from interrupted stores.  Returns files removed."""
    directory = cache_dir()
    removed = 0
    if not directory.is_dir():
        return removed
    for pattern in ("*.json", "*.tmp"):
        for path in directory.glob(pattern):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
    return removed


def classify(name: str) -> Optional[str]:
    """``"current"``, ``"stale"`` or ``"tmp"`` for a cache file name.

    Current entries end in :func:`current_suffix`; any other ``*.json``
    was written by another format version or simulator source, so
    :func:`load` can never return it.  ``*.tmp`` files are droppings of
    stores that died between ``mkstemp`` and ``os.replace``.
    """
    if name.endswith(".tmp"):
        return "tmp"
    if name.endswith(current_suffix()):
        return "current"
    return "stale" if name.endswith(".json") else None


def prune() -> int:
    """Remove stale entries and orphaned temps, keeping current entries.

    Returns the number of files removed.
    """
    directory = cache_dir()
    removed = 0
    if not directory.is_dir():
        return removed
    for path in directory.iterdir():
        if classify(path.name) not in ("stale", "tmp"):
            continue
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


def stats() -> Dict[str, int]:
    """Per-process cache counters (for CLI reporting)."""
    return {"hits": hits, "misses": misses, "stores": stores}
