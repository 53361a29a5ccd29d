"""Content-addressed result cache: keying, tiers, accounting."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.analog.engine import TransientOptions
from repro.core.sensing import SensorSizing
from repro.devices.process import nominal_process
from repro.runtime import (
    JobResult,
    ResultCache,
    SensorJob,
    engine_fingerprint,
    stable_key,
)
from repro.runtime.cache import default_cache_dir
from repro.units import fF, ns

FAST = TransientOptions(dt_max=200e-12, reltol=5e-3)


def make_job(**overrides) -> SensorJob:
    kwargs = dict(skew=ns(0.3), load1=fF(160), load2=fF(160), options=FAST)
    kwargs.update(overrides)
    return SensorJob(**kwargs)


# --------------------------------------------------------------------- #
# Key stability
# --------------------------------------------------------------------- #

def test_key_is_deterministic_within_process():
    assert make_job().key() == make_job().key()


def test_key_stable_across_processes():
    """The content key must not depend on PYTHONHASHSEED or process state."""
    job = make_job()
    script = (
        "from repro.runtime import SensorJob\n"
        "from repro.analog.engine import TransientOptions\n"
        "from repro.units import fF, ns\n"
        "job = SensorJob(skew=ns(0.3), load1=fF(160), load2=fF(160),\n"
        "                options=TransientOptions(dt_max=200e-12, reltol=5e-3))\n"
        "print(job.key())\n"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", script], env=env,
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == job.key()


def test_key_changes_with_every_input():
    base = make_job().key()
    assert make_job(skew=ns(0.31)).key() != base
    assert make_job(load1=fF(161)).key() != base
    assert make_job(slew2=ns(0.25)).key() != base
    assert make_job(full_swing=True).key() != base
    assert make_job(sizing=SensorSizing(w_n=2e-6)).key() != base
    assert make_job(options=TransientOptions(dt_max=100e-12)).key() != base


def test_key_resolves_default_process_and_options():
    """None defaults and their explicit values address the same entry."""
    implicit = SensorJob(skew=ns(0.2))
    explicit = SensorJob(
        skew=ns(0.2), process=nominal_process(), options=TransientOptions()
    )
    assert implicit.key() == explicit.key()


#: Job and prefix digests as the keying code produced them before keys
#: were memoised; every cache entry and journal on disk is addressed by
#: them, so they must never move.
PINNED_KEYS = {
    "nominal": (
        "55943f48f6063909dc30e531803d25de6fbad431c5f7cbf41580f04de6df6808",
        "0b16a31c17dc1a9ece015021be369ff2db213d92e3baf7ade97211f79ea16cce",
    ),
    "fast": (
        "5019be2ad8d8bfed6bf02c8d989713883d103bd4b6dcb4cb1a249a99e2b0655a",
        "364eaae68d85ed4c68f967f4ea81f83eb851980dca7cbc50059b67a51f2df6f7",
    ),
    "montecarlo": (
        "a4cca159cc64024916c4b921735048ae6ec2177cdef1bd2488a9816d4d8a7fb9",
        "84828e5bbd6f31f988ce618596b11cc514bb11b3e03f8dbc65b8b4434c943ae0",
    ),
    "warm": (
        "35f93df297a5fa608bc65ea82186adac981b0d21dc4fb4e1f57de5f117340f10",
        "c67adf4fc4b5e97ac26ab1f799a375fd81850fea3370032048e5399f9c02a0d1",
    ),
    "cold": (
        "a3b3f27acbee32b778ca69cf08db22d0f5aae83b2e4fffba82f04b606a577b19",
        "c67adf4fc4b5e97ac26ab1f799a375fd81850fea3370032048e5399f9c02a0d1",
    ),
}


def _pinned_jobs():
    from repro.montecarlo.parallel import sample_job
    from repro.montecarlo.sampling import sample_population
    from repro.runtime import sensitivity_job
    from repro.service.specs import FAST_OPTIONS

    drawn = sample_population(3, fF(160), seed=7)[2]
    return {
        "nominal": SensorJob(skew=ns(0.1)),
        "fast": sensitivity_job(fF(80), ns(0.2), ns(0.25),
                                options=FAST_OPTIONS, warm_start=False),
        "montecarlo": sample_job(drawn, ns(0.05), options=FAST_OPTIONS,
                                 warm_start=True),
        "warm": sensitivity_job(fF(240), ns(0.3), ns(0.1), warm_start=True),
        "cold": sensitivity_job(fF(240), ns(0.3), ns(0.1), warm_start=False),
    }


@pytest.mark.parametrize("name", sorted(PINNED_KEYS))
def test_job_and_prefix_keys_are_pinned(name):
    from repro.runtime.prefix import prefix_key

    job = _pinned_jobs()[name]
    assert (job.key(), prefix_key(job)) == PINNED_KEYS[name]
    # The memoised second answer is the same digest.
    assert job.key() == PINNED_KEYS[name][0]


def test_whole_tree_key_is_pinned():
    from dataclasses import replace

    from repro.clocktree.whole_tree import WholeTreeJob
    from repro.service.specs import FAST_OPTIONS

    job = WholeTreeJob(
        levels=3, variation=0.05, seed=3,
        options=replace(FAST_OPTIONS, jacobian_policy="auto"),
    )
    assert job.key() == (
        "e475cfef0bfaf6e1e405b94b757abfa0a8f98ba36c0a1a56f77e1f37d816c2db"
    )


def test_key_memo_is_by_identity_not_equality():
    """``0.0 == -0.0`` but the two skews address different entries: a
    memo keyed by equality would hand one the other's key."""
    assert SensorJob(skew=0.0) == SensorJob(skew=-0.0)
    assert SensorJob(skew=0.0).key() != SensorJob(skew=-0.0).key()
    options = TransientOptions(max_newton=50)
    twin = TransientOptions(max_newton=50.0)
    assert options == twin
    assert make_job(options=options).key() != make_job(options=twin).key()


def test_campaign_and_fold_hash_each_job_once(monkeypatch):
    """A served repeat keys each of its 24 jobs once: the lookup pass and
    the result fold share the memoised digest."""
    import repro.runtime.jobs as jobs_module
    from repro.runtime import run_campaign
    from repro.service.specs import build_plan

    spec = {"kind": "sensitivity", "loads_ff": [80.0, 160.0, 240.0],
            "points": 8}
    cache = ResultCache(disk_dir=None)
    for job in build_plan(spec).jobs:  # warm the cache: every job a hit
        cache.put(job.key(), JobResult(
            skew=job.skew, vmin_y1=1.0, vmin_y2=2.0, code=(0, 0),
        ).to_payload())

    calls = []
    real = jobs_module.stable_key

    def counting(obj, namespace=""):
        calls.append(namespace)
        return real(obj, namespace=namespace)

    monkeypatch.setattr(jobs_module, "stable_key", counting)
    plan = build_plan(spec)
    assert len(plan.jobs) == 24
    campaign = run_campaign(plan.jobs, cache=cache, **plan.executor)
    payload = plan.fold(campaign)
    assert all(result.cached for result in campaign.results)
    assert len(payload["jobs"]) == 24
    assert len(calls) <= 24


def test_stable_key_rejects_unhashable_junk():
    with pytest.raises(TypeError):
        stable_key(object())


def test_engine_fingerprint_folds_into_keys(monkeypatch):
    """A physics-code change (new fingerprint) must shift the namespace."""
    cache_a = ResultCache(disk_dir=None, version="aaaa")
    cache_b = ResultCache(disk_dir=None, version="bbbb")
    assert cache_a.version != cache_b.version
    assert len(engine_fingerprint()) == 16


# --------------------------------------------------------------------- #
# Disk tier
# --------------------------------------------------------------------- #

def test_disk_cache_round_trip(tmp_path):
    payload = JobResult(
        skew=ns(0.3), vmin_y1=0.1234567891011121, vmin_y2=4.000000000000123,
        code=(0, 1), steps=321,
    ).to_payload()
    writer = ResultCache(disk_dir=tmp_path)
    writer.put("k" * 64, payload)

    reader = ResultCache(disk_dir=tmp_path, version=writer.version)
    value = reader.get("k" * 64)
    assert value == payload
    assert reader.stats.hits_disk == 1
    # Bit-exact float round trip through JSON.
    result = JobResult.from_payload(value, cached=True)
    assert result.vmin_y1 == 0.1234567891011121
    assert result.vmin_y2 == 4.000000000000123
    assert result.code == (0, 1)
    assert result.cached


def test_disk_entries_live_under_versioned_dir(tmp_path):
    cache = ResultCache(disk_dir=tmp_path, version="deadbeef")
    cache.put("a" * 64, {"x": 1})
    files = list((tmp_path / "vdeadbeef").glob("*.json"))
    assert len(files) == 1
    assert json.loads(files[0].read_text()) == {"x": 1}
    # A version bump leaves old entries behind and starts fresh.
    bumped = ResultCache(disk_dir=tmp_path, version="cafebabe")
    assert bumped.get("a" * 64) is None


def test_clear_removes_disk_entries(tmp_path):
    cache = ResultCache(disk_dir=tmp_path)
    for i in range(3):
        cache.put(f"{i:064d}", {"i": i})
    assert cache.disk_entries() == 3
    assert cache.clear() == 3
    assert cache.disk_entries() == 0
    assert len(cache) == 0


def test_memory_lru_eviction():
    cache = ResultCache(max_memory_entries=2, disk_dir=None)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("c", 3)
    assert len(cache) == 2
    assert cache.stats.evictions == 1
    assert cache.get("a") is None  # evicted, no disk tier
    assert cache.get("c") == 3


def test_corrupt_disk_entry_is_a_miss(tmp_path):
    cache = ResultCache(disk_dir=tmp_path)
    cache.put("a" * 64, {"x": 1})
    path = cache.disk_dir / ("a" * 64 + ".json")
    path.write_text("{not json")
    fresh = ResultCache(disk_dir=tmp_path, version=cache.version)
    assert fresh.get("a" * 64) is None
    assert fresh.stats.misses == 1


# --------------------------------------------------------------------- #
# Environment knobs
# --------------------------------------------------------------------- #

def test_env_dir_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
    monkeypatch.delenv("REPRO_CACHE_DISABLE", raising=False)
    assert default_cache_dir() == tmp_path / "custom"
    cache = ResultCache()  # disk_dir="auto"
    assert cache.disk_enabled
    assert str(cache.disk_dir).startswith(str(tmp_path / "custom"))


def test_env_disable_wins(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
    assert default_cache_dir() is None
    cache = ResultCache()
    assert not cache.disk_enabled
    cache.put("a", 1)  # must not raise, memory tier still works
    assert cache.get("a") == 1


# --------------------------------------------------------------------- #
# Hit/miss accounting
# --------------------------------------------------------------------- #

def test_stats_accounting(tmp_path):
    cache = ResultCache(disk_dir=tmp_path)
    assert cache.get("missing") is None
    cache.put("k", {"v": 1})
    assert cache.get("k") == {"v": 1}
    stats = cache.stats.as_dict()
    assert stats["misses"] == 1
    assert stats["hits_memory"] == 1
    assert stats["puts"] == 1
    assert stats["hits"] == 1


# --------------------------------------------------------------------- #
# Disk-tier size accounting and LRU eviction
# --------------------------------------------------------------------- #

def test_parse_size_suffixes():
    from repro.runtime import parse_size

    assert parse_size("1024") == 1024
    assert parse_size("4k") == 4096
    assert parse_size("64m") == 64 * 1024 ** 2
    assert parse_size("1g") == 1024 ** 3
    assert parse_size("2kb") == 2048
    assert parse_size("1.5k") == 1536
    with pytest.raises(ValueError):
        parse_size("")
    with pytest.raises(ValueError):
        parse_size("lots")


def test_default_max_disk_bytes_env(monkeypatch):
    from repro.runtime import default_max_disk_bytes

    monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)
    assert default_max_disk_bytes() is None
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "8k")
    assert default_max_disk_bytes() == 8192
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "nonsense")
    with pytest.raises(ValueError):
        default_max_disk_bytes()


def test_disk_total_bytes_tracks_puts(tmp_path):
    cache = ResultCache(disk_dir=tmp_path, max_disk_bytes=None)
    assert cache.disk_total_bytes() == 0
    cache.put("a" * 64, {"x": 1})
    one = cache.disk_total_bytes()
    assert one > 0
    cache.put("b" * 64, {"x": 2})
    assert cache.disk_total_bytes() > one
    # Overwriting an entry must not double-count its bytes.
    cache.put("a" * 64, {"x": 1})
    fresh = ResultCache(disk_dir=tmp_path, version=cache.version)
    assert cache.disk_total_bytes() == fresh.disk_total_bytes()


def test_lru_eviction_on_budget(tmp_path):
    cache = ResultCache(disk_dir=tmp_path, max_disk_bytes=None)
    for index in range(8):
        cache.put(f"{index:064d}", {"payload": "x" * 64})
    per_entry = cache.disk_total_bytes() // 8
    # Age the entries oldest-first, then touch entry 0 to make it hot.
    for index in range(8):
        path = cache.disk_dir / (f"{index:064d}" + ".json")
        os.utime(path, (1000 + index, 1000 + index))
    budgeted = ResultCache(
        disk_dir=tmp_path, version=cache.version,
        max_disk_bytes=per_entry * 4,
    )
    assert budgeted.get(f"{0:064d}") is not None  # refreshes mtime
    removed = budgeted.prune()
    assert removed >= 4
    assert budgeted.disk_total_bytes() <= per_entry * 4
    # The freshly touched entry survived; the oldest untouched ones went.
    assert (budgeted.disk_dir / (f"{0:064d}" + ".json")).exists()
    assert not (budgeted.disk_dir / (f"{1:064d}" + ".json")).exists()
    stats = budgeted.stats.as_dict()
    assert stats["evictions_disk"] == removed
    assert stats["evicted_bytes"] > 0


def test_put_enforces_budget_and_protects_fresh_entry(tmp_path):
    cache = ResultCache(disk_dir=tmp_path, max_disk_bytes=1)
    cache.put("a" * 64, {"x": 1})
    # The budget (1 byte) is absurdly small, but the just-written entry
    # is protected from evicting itself.
    assert (cache.disk_dir / ("a" * 64 + ".json")).exists()
    cache.put("b" * 64, {"x": 2})
    # Writing b evicted a (LRU) while protecting b.
    assert (cache.disk_dir / ("b" * 64 + ".json")).exists()
    assert not (cache.disk_dir / ("a" * 64 + ".json")).exists()


def test_prune_spans_stale_version_namespaces(tmp_path):
    stale = ResultCache(disk_dir=tmp_path, version="old")
    stale.put("a" * 64, {"x": 1})
    os.utime(stale.disk_dir / ("a" * 64 + ".json"), (1000, 1000))
    live = ResultCache(disk_dir=tmp_path, version="new")
    live.put("b" * 64, {"x": 2})
    removed = live.prune(max_bytes=live.disk_total_bytes() // 2)
    assert removed == 1
    # The stale namespace's (older) entry went first.
    assert not (stale.disk_dir / ("a" * 64 + ".json")).exists()
    assert (live.disk_dir / ("b" * 64 + ".json")).exists()


# --------------------------------------------------------------------- #
# Tenant namespaces
# --------------------------------------------------------------------- #

def test_tenant_salt_separates_disk_namespaces(tmp_path):
    from repro.runtime import tenant_cache

    alice = ResultCache(disk_dir=tmp_path, salt="alice")
    bob = ResultCache(disk_dir=tmp_path, salt="bob")
    assert alice.disk_dir != bob.disk_dir
    alice.put("k" * 64, {"who": "alice"})
    assert bob.get("k" * 64) is None
    # Same key, same payload addressing: the salt changes only where the
    # entry lives, never the key.
    assert alice.get("k" * 64) == {"who": "alice"}


def test_default_tenant_is_the_process_cache(fresh_cache):
    from repro.runtime import get_cache, tenant_cache

    assert tenant_cache("") is get_cache()
    named = tenant_cache("acme")
    assert named is not get_cache()
    assert named.salt == "acme"
