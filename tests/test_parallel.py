"""The parallel executor and the on-disk run cache.

Three properties keep the caching layers honest:

* **parallel == serial** — a run simulated in a pool worker and shipped
  back as a payload is bit-identical to the same run simulated inline;
* **disk round-trip** — a record stored to and reloaded from the run
  cache reproduces every statistic, and a warm cache performs zero new
  simulations;
* **keys/declarations cannot alias** — the memo/disk key covers every
  ``SystemConfig`` field, the disk key also covers the simulator's
  source, and each experiment's declared runs are exactly the runs its
  execution simulates (checked for cheap experiments here; that every
  render reads exactly its declared runs is checked in
  ``test_experiments.py``).
"""

from __future__ import annotations

import dataclasses
import shutil

import pytest

from repro.experiments import common, runcache
from repro.experiments.common import RunRecord, config_key, run_key
from repro.experiments.registry import EXPERIMENTS, run_experiments
from repro.system.config import KB, SystemConfig
from repro.system.presets import base_config, switch_cache_config

GS_RUNS = [
    ("GS", base_config(), None),
    ("GS", switch_cache_config(size=2 * KB), None),
]


@pytest.fixture
def isolated_caches(tmp_path, monkeypatch):
    """Fresh memo + a throwaway disk cache dir, disabled afterwards."""
    monkeypatch.setenv("REPRO_RUNCACHE_DIR", str(tmp_path / "runcache"))
    common.clear_cache()
    runcache.set_enabled(False)
    yield tmp_path / "runcache"
    runcache.set_enabled(False)
    common.clear_cache()


# ----------------------------------------------------------------------
# parallel == serial
# ----------------------------------------------------------------------
def test_parallel_matches_serial(isolated_caches):
    serial = {
        run_key(app, "quick", config, overrides): common.execute(
            app, "quick", config, overrides
        )
        for app, config, overrides in GS_RUNS
    }
    records, counters = common.resolve(GS_RUNS, "quick", jobs=2)
    assert counters["executed"] == len(GS_RUNS)
    for key, reference in serial.items():
        pooled = records[key]
        assert pooled.exec_time == reference.exec_time
        assert pooled.switch_totals == reference.switch_totals
        assert (
            pooled.stats.breakdown_means() == reference.stats.breakdown_means()
        )
        assert pooled.to_payload() == reference.to_payload()


def test_prewarmed_memo_serves_runners(isolated_caches):
    records, _counters = common.resolve(GS_RUNS, "quick", jobs=2)
    record = records[run_key("GS", "quick", base_config())]
    assert common.run("GS", "quick", base_config()) is record


# ----------------------------------------------------------------------
# disk cache round-trip
# ----------------------------------------------------------------------
def test_runcache_round_trip(isolated_caches):
    runcache.set_enabled(True)
    first = common.run("GS", "quick", base_config())
    stored = first.to_payload()
    common.clear_cache()  # evict the memo: force the disk path
    second = common.run("GS", "quick", base_config())
    assert second is not first
    assert second.to_payload() == stored
    assert second.exec_time == first.exec_time
    assert second.stats.to_dict() == first.stats.to_dict()


def test_warm_runcache_does_zero_simulations(isolated_caches, monkeypatch):
    runcache.set_enabled(True)
    common.run("GS", "quick", base_config())
    common.clear_cache()

    def boom(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("warm cache must not simulate")

    monkeypatch.setattr(common, "execute", boom)
    common.run("GS", "quick", base_config())


def test_runcache_disabled_by_default(isolated_caches):
    assert not runcache.is_enabled()
    common.run("GS", "quick", base_config())
    assert not (isolated_caches).exists()  # nothing written


def test_runcache_version_mismatch_misses(isolated_caches, monkeypatch):
    runcache.set_enabled(True)
    config = base_config()
    current = runcache.CACHE_FORMAT_VERSION
    first = common.run("GS", "quick", config)
    monkeypatch.setattr(runcache, "CACHE_FORMAT_VERSION", current + 1)
    assert runcache.load("GS", "quick", config) is None
    # a fresh store under the new version must not clobber the old entry
    runcache.store("GS", "quick", config, first.to_payload())
    monkeypatch.setattr(runcache, "CACHE_FORMAT_VERSION", current)
    assert runcache.load("GS", "quick", config) is not None


def test_runcache_source_change_misses(isolated_caches, monkeypatch):
    runcache.set_enabled(True)
    config = base_config()
    common.run("GS", "quick", config)
    assert runcache.load("GS", "quick", config) is not None
    monkeypatch.setattr(runcache, "source_digest", lambda: "0" * 64)
    assert runcache.load("GS", "quick", config) is None


def test_source_digest_covers_the_model_not_the_reports(tmp_path):
    def digest_after_editing(relative):
        package = tmp_path / ("copy_" + relative.replace("/", "_"))
        shutil.copytree(runcache.PACKAGE_DIR, package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        if relative:
            with open(package / relative, "a") as handle:
                handle.write("# edited\n")
        return runcache.source_digest(package)

    current = runcache.source_digest()
    assert digest_after_editing("") == current
    assert digest_after_editing("experiments/runners.py") == current
    assert digest_after_editing("verify/explore.py") == current
    assert digest_after_editing("network/fabric.py") != current


# ----------------------------------------------------------------------
# key coverage
# ----------------------------------------------------------------------
def test_config_key_covers_every_field():
    key = config_key(SystemConfig())
    assert len(key) == len(dataclasses.fields(SystemConfig))


def test_config_key_distinguishes_network_model():
    # the historical aliasing bug: A8's message- and flit-model runs
    # must never share a memo entry
    message = SystemConfig(num_nodes=4, network_model="message")
    flit = SystemConfig(num_nodes=4, network_model="flit")
    assert config_key(message) != config_key(flit)
    assert (
        runcache.config_fingerprint(message)
        != runcache.config_fingerprint(flit)
    )


def test_run_key_includes_app_overrides():
    config = base_config()
    assert run_key("GE", "quick", config) != run_key(
        "GE", "quick", config, {"n": 16}
    )


def test_stage_sets_key_deterministically():
    a = switch_cache_config(size=2 * KB, stages={0, 2})
    b = switch_cache_config(size=2 * KB, stages={2, 0})
    assert config_key(a) == config_key(b)
    assert runcache.config_fingerprint(a) == runcache.config_fingerprint(b)


# ----------------------------------------------------------------------
# declaration coverage (cheap experiments only): running an experiment
# simulates exactly the runs it declares, no more and no fewer
# ----------------------------------------------------------------------
@pytest.mark.parametrize("exp_id", ["F3", "E9"])
def test_plan_matches_runner(isolated_caches, monkeypatch, exp_id):
    simulated = []
    execute = common.execute

    def recording_execute(app, scale, config, overrides=None):
        simulated.append(run_key(app, scale, config, overrides))
        return execute(app, scale, config, overrides)

    monkeypatch.setattr(common, "execute", recording_execute)
    _results, counters = run_experiments([exp_id], "quick")
    declared = {
        run_key(app, "quick", config, overrides)
        for app, config, overrides in EXPERIMENTS[exp_id].runs("quick").values()
    }
    assert declared
    assert len(simulated) == len(set(simulated)) == counters["executed"]
    assert set(simulated) == declared


def test_plans_exist_for_every_experiment():
    for exp_id, exp in EXPERIMENTS.items():
        for scale in ("quick", "full"):
            runs = exp.runs(scale)
            assert isinstance(runs, dict), (exp_id, scale)
            for label, (app, config, overrides) in runs.items():
                assert isinstance(app, str), (exp_id, label)
                assert isinstance(config, SystemConfig), (exp_id, label)
                assert overrides is None or isinstance(overrides, dict)
        # T1 and T2 are computed tables; every other entry simulates
        assert bool(exp.runs("quick")) == (exp_id not in ("T1", "T2"))


# ----------------------------------------------------------------------
# payload round-trip is exact (the property the layers above rely on)
# ----------------------------------------------------------------------
def test_payload_round_trip_exact(isolated_caches):
    record = common.run("GS", "quick", switch_cache_config(size=2 * KB))
    payload = record.to_payload()
    rebuilt = RunRecord.from_payload(payload)
    assert rebuilt.to_payload() == payload
    assert rebuilt.stats.to_dict() == record.stats.to_dict()
    assert rebuilt.stats.sharing_histogram(16) == (
        record.stats.sharing_histogram(16)
    )
    assert rebuilt.stats.ideal_global_hit_rate() == (
        record.stats.ideal_global_hit_rate()
    )


def test_payload_carries_metrics_histograms(isolated_caches):
    record = common.run("GS", "quick", switch_cache_config(size=2 * KB))
    assert record.metrics is not None
    payload = record.to_payload()
    assert payload["metrics"]["histograms"]
    rebuilt = RunRecord.from_payload(payload)
    assert rebuilt.metrics.to_payload() == record.metrics.to_payload()


# ----------------------------------------------------------------------
# run-cache hygiene: clear/prune and the fingerprint serializer
# ----------------------------------------------------------------------
def test_clear_removes_orphaned_tmp_files(isolated_caches):
    runcache.set_enabled(True)
    common.run("GS", "quick", base_config())
    directory = runcache.cache_dir()
    # an interrupted store() dies between mkstemp and os.replace
    orphan = directory / "tmpdead01.tmp"
    orphan.write_text("{}")
    removed = runcache.clear()
    assert removed == 2  # the entry AND the orphan
    assert not list(directory.iterdir())


def test_prune_drops_stale_versions_and_tmp_only(isolated_caches):
    runcache.set_enabled(True)
    common.run("GS", "quick", base_config())
    directory = runcache.cache_dir()
    current = next(directory.glob("*.json"))
    old_entry = directory / "GS-quick-0123456789abcdef0123.v1.json"
    old_entry.write_text("{}")
    orphan = directory / "tmpdead02.tmp"
    orphan.write_text("{}")
    assert runcache.prune() == 2
    assert current.exists()
    assert not old_entry.exists() and not orphan.exists()
    # pruning again is a no-op; the live entry still loads
    assert runcache.prune() == 0
    assert runcache.load("GS", "quick", base_config()) is not None


def test_prune_drops_entries_of_another_source(isolated_caches,
                                               monkeypatch):
    runcache.set_enabled(True)
    common.run("GS", "quick", base_config())
    entry = next(runcache.cache_dir().glob("*.json"))
    assert runcache.classify(entry.name) == "current"
    monkeypatch.setattr(runcache, "source_digest", lambda: "f" * 64)
    assert runcache.classify(entry.name) == "stale"
    assert runcache.prune() == 1
    assert not entry.exists()


def test_fingerprint_handles_nested_containers():
    # regression: _jsonable only converted the top level, so a tuple of
    # frozensets (or any nested set) crashed json.dumps
    config = base_config()
    overrides = {
        "mix": (frozenset({1, 2}), frozenset({3})),
        "nested": {"inner": {4, 5}},
        "deep": [({"a"}, ("b", {"c": (6,)}))],
    }
    digest = runcache.config_fingerprint(config, overrides)
    assert len(digest) == 64
    # order inside sets must not matter
    reordered = {
        "mix": (frozenset({2, 1}), frozenset({3})),
        "nested": {"inner": {5, 4}},
        "deep": [({"a"}, ("b", {"c": (6,)}))],
    }
    assert runcache.config_fingerprint(config, reordered) == digest


# ----------------------------------------------------------------------
# cache counters reconcile with what resolve actually did
# ----------------------------------------------------------------------
@pytest.fixture
def reset_counters(monkeypatch):
    monkeypatch.setattr(runcache, "hits", 0)
    monkeypatch.setattr(runcache, "misses", 0)
    monkeypatch.setattr(runcache, "stores", 0)


@pytest.mark.parametrize("jobs", [1, 2])
def test_cold_prewarm_counters_reconcile(isolated_caches, reset_counters,
                                         jobs):
    # regression (serial path): the executor probed the disk cache once
    # per run, then handed off to common.run which probed AGAIN — so a
    # cold jobs=1 pass reported 2x the true miss count
    runcache.set_enabled(True)
    _records, counters = common.resolve(GS_RUNS, "quick", jobs=jobs)
    assert counters["executed"] == len(GS_RUNS)
    stats = runcache.stats()
    assert stats["misses"] == counters["runs"]
    assert stats["stores"] == counters["executed"]
    assert stats["hits"] == 0


def test_warm_prewarm_counters_reconcile(isolated_caches, reset_counters):
    runcache.set_enabled(True)
    common.resolve(GS_RUNS, "quick", jobs=1)
    common.clear_cache()  # drop the memo so the disk layer must answer
    before = runcache.stats()
    _records, counters = common.resolve(GS_RUNS, "quick", jobs=1)
    assert counters["disk"] == len(GS_RUNS)
    assert counters["executed"] == 0
    after = runcache.stats()
    assert after["hits"] - before["hits"] == counters["disk"]
    assert after["misses"] == before["misses"]
    assert after["stores"] == before["stores"]
