"""Tests for the content-addressed study store (``repro.store``)."""

import json
import shutil

import numpy as np
import pytest

from repro.core.pipeline import StudyConfig, run_study
from repro.io.archive import save_archive
from repro.obs import MetricsRegistry
from repro.parallel import ParallelConfig
from repro.store import StageStore, StudyStore, config_fingerprint, stage_key, study_key
from repro.topology.generator import InternetConfig

pytestmark = pytest.mark.store


def _tiny_config(seed: int = 3, **overrides) -> StudyConfig:
    return StudyConfig(
        internet=InternetConfig(seed=seed, n_access_isps=40, n_ixps=20),
        n_vantage_points=24,
        seed=seed,
        **overrides,
    )


@pytest.fixture(scope="module")
def tiny_study():
    return run_study(_tiny_config())


@pytest.fixture()
def store(tmp_path):
    return StudyStore(tmp_path / "store", metrics=MetricsRegistry())


def _archive_digest(directory):
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class TestKeys:
    def test_fingerprint_is_stable(self):
        assert config_fingerprint(_tiny_config()) == config_fingerprint(_tiny_config())
        assert study_key(_tiny_config()) == study_key(_tiny_config())

    def test_fingerprint_sees_every_field(self):
        base = _tiny_config()
        assert config_fingerprint(base) != config_fingerprint(_tiny_config(seed=4))
        assert config_fingerprint(base) != config_fingerprint(_tiny_config(xis=(0.5,)))

    def test_backend_changes_fingerprint_but_not_study_key(self):
        """backend/workers never change artifacts, so the content address
        normalises them away — while the full fingerprint still differs."""
        serial = _tiny_config()
        pooled = _tiny_config(parallel=ParallelConfig(backend="pool", workers=4))
        assert config_fingerprint(serial) != config_fingerprint(pooled)
        assert study_key(serial) == study_key(pooled)

    def test_chunk_sizes_stay_in_study_key(self):
        """Chunk sizes shape shard RNG streams, so they must key the store."""
        assert study_key(_tiny_config()) != study_key(
            _tiny_config(parallel=ParallelConfig(campaign_chunk=16))
        )


class TestStoreRoundTrip:
    def test_miss_then_hit(self, store, tiny_study):
        config = _tiny_config()
        assert store.get(config) is None
        store.put(tiny_study)
        assert store.contains(config)
        rehydrated = store.get(config)
        assert rehydrated is not None
        assert store.metrics.counter("store.hits") == 1
        assert store.metrics.counter("store.misses") == 1

    def test_rehydrated_study_exports_identical_archive(self, store, tiny_study, tmp_path):
        """The acceptance property: a store hit is indistinguishable from a
        fresh run at the artifact level."""
        store.put(tiny_study)
        rehydrated = store.get(_tiny_config())
        save_archive(tiny_study, tmp_path / "fresh")
        save_archive(rehydrated, tmp_path / "warm")
        assert _archive_digest(tmp_path / "fresh") == _archive_digest(tmp_path / "warm")

    def test_rehydrated_views_match(self, store, tiny_study):
        store.put(tiny_study)
        rehydrated = store.get(_tiny_config())
        np.testing.assert_array_equal(rehydrated.matrix.rtt_ms, tiny_study.matrix.rtt_ms)
        assert rehydrated.hypergiant_of_ip == tiny_study.hypergiant_of_ip
        assert rehydrated.campaign.analyzable_isp_asns == tiny_study.campaign.analyzable_isp_asns
        for xi in tiny_study.config.xis:
            assert rehydrated.colocation_table(xi).row_percentages(
                "Google"
            ) == tiny_study.colocation_table(xi).row_percentages("Google")

    def test_put_is_idempotent(self, store, tiny_study):
        key = store.put(tiny_study)
        assert store.put(tiny_study) == key
        assert store.stats().entries == 1
        assert store.metrics.counter("store.writes") == 1

    def test_different_config_misses(self, store, tiny_study):
        store.put(tiny_study)
        assert store.get(_tiny_config(seed=4)) is None


class TestCorruption:
    def test_truncated_file_quarantines_and_misses(self, store, tiny_study):
        key = store.put(tiny_study)
        victim = store.entry_path(key) / "latency.npz"
        victim.write_bytes(victim.read_bytes()[:100])
        assert store.get(_tiny_config()) is None
        assert store.metrics.counter("store.corruptions") == 1
        assert not store.contains_key(key)
        quarantined = list((store.root / "quarantine").iterdir())
        assert len(quarantined) == 1
        assert (quarantined[0] / "quarantine_reason.txt").exists()

    def test_recompute_after_quarantine(self, store, tiny_study):
        key = store.put(tiny_study)
        (store.entry_path(key) / "isps.csv").write_text("garbage")
        assert store.get(_tiny_config()) is None
        store.put(tiny_study)
        assert store.get(_tiny_config()) is not None

    def test_injected_corruption_trips_the_digest_check(self, tmp_path, tiny_study):
        """A ``store.load`` corrupt fault poisons the entry's bytes on disk,
        so the ordinary verify-quarantine-recompute path takes over."""
        from repro.faults import FaultPlan, FaultSpec

        faults = FaultPlan(
            seed=1, specs=(FaultSpec(site="store.load", kind="corrupt", rate=1.0),)
        )
        store = StudyStore(tmp_path / "store", metrics=MetricsRegistry(), faults=faults)
        key = store.put(tiny_study)
        assert store.get(_tiny_config()) is None
        assert store.metrics.counter("store.corruptions") == 1
        assert not store.contains_key(key)
        assert len(list((store.root / "quarantine").iterdir())) == 1

    def test_injected_transient_load_error_is_retried(self, tmp_path, tiny_study):
        from repro.faults import FaultPlan, FaultSpec
        from repro.resilience import RetryPolicy

        faults = FaultPlan(
            seed=1,
            specs=(FaultSpec(site="store.load", kind="error", rate=1.0, fail_attempts=1),),
        )
        store = StudyStore(
            tmp_path / "store",
            metrics=MetricsRegistry(),
            faults=faults,
            retry=RetryPolicy(max_attempts=2),
        )
        store.put(tiny_study)
        assert store.get(_tiny_config()) is not None
        assert store.metrics.counter("store.retries") == 1
        assert store.metrics.counter("store.corruptions") == 0

    def test_exhausted_load_error_degrades_to_miss_without_quarantine(
        self, tmp_path, tiny_study
    ):
        """An injected load error is an execution failure, not bad bytes:
        the entry must survive for the next (healthy) reader."""
        from repro.faults import FaultPlan, FaultSpec

        faults = FaultPlan(
            seed=1, specs=(FaultSpec(site="store.load", kind="error", rate=1.0),)
        )
        store = StudyStore(tmp_path / "store", metrics=MetricsRegistry(), faults=faults)
        key = store.put(tiny_study)
        assert store.get(_tiny_config()) is None
        assert store.metrics.counter("store.load_failures") == 1
        assert store.contains_key(key)  # not quarantined
        healthy = StudyStore(tmp_path / "store", metrics=MetricsRegistry())
        assert healthy.get(_tiny_config()) is not None


class TestDegradedStudies:
    def test_degraded_study_is_never_persisted(self, tmp_path):
        """A study that lost shards is an execution accident, not the
        config's artifact: put() must refuse it so rehydration never
        serves degraded data under a clean key."""
        from repro.faults import FaultPlan, FaultSpec
        from repro.resilience import ErrorBudget, ResilienceConfig, RetryPolicy

        faults = FaultPlan(
            seed=13, specs=(FaultSpec(site="campaign.shard", kind="crash", rate=0.2),)
        )
        degraded = run_study(
            _tiny_config(
                faults=faults,
                resilience=ResilienceConfig(
                    retry=RetryPolicy(max_attempts=2),
                    fallback_in_process=False,
                    budget=ErrorBudget(shard_loss_fraction=1.0),
                ),
            )
        )
        assert degraded.coverage.shards_lost > 0
        store = StudyStore(tmp_path / "store", metrics=MetricsRegistry())
        key = store.put(degraded)
        assert not store.contains_key(key)
        assert store.stats().entries == 0
        assert store.metrics.counter("store.degraded_skipped") == 1


class TestQuarantineGc:
    def _quarantine_n(self, store, tiny_study, n):
        for _ in range(n):
            key = store.put(tiny_study)
            (store.entry_path(key) / "isps.csv").write_text("garbage")
            assert store.get(_tiny_config()) is None

    def test_gc_prunes_quarantine_by_count(self, store, tiny_study):
        self._quarantine_n(store, tiny_study, 3)
        quarantine = store.root / "quarantine"
        assert len(list(quarantine.iterdir())) == 3
        store.gc(max_quarantine_entries=1)
        assert len(list(quarantine.iterdir())) == 1
        assert store.metrics.counter("store.quarantine_pruned") == 2

    def test_gc_prunes_quarantine_by_age(self, store, tiny_study):
        import os
        import time

        self._quarantine_n(store, tiny_study, 2)
        quarantine = store.root / "quarantine"
        entries = sorted(quarantine.iterdir())
        stale = time.time() - 3600
        os.utime(entries[0], (stale, stale))
        store.gc(max_quarantine_age_s=60.0)
        survivors = list(quarantine.iterdir())
        assert survivors == [entries[1]]

    def test_gc_prunes_oldest_first(self, store, tiny_study):
        import os
        import time

        self._quarantine_n(store, tiny_study, 3)
        quarantine = store.root / "quarantine"
        entries = sorted(quarantine.iterdir(), key=lambda e: e.name)
        # Pin distinct mtimes so the eviction order is unambiguous.
        base = time.time() - 100
        for offset, entry in enumerate(entries):
            os.utime(entry, (base + offset, base + offset))
        store.gc(max_quarantine_entries=2)
        survivors = set(quarantine.iterdir())
        assert survivors == set(entries[1:])

    def test_put_enforces_configured_quarantine_bound(self, tmp_path, tiny_study):
        store = StudyStore(
            tmp_path / "store", metrics=MetricsRegistry(), max_quarantine_entries=1
        )
        self._quarantine_n(store, tiny_study, 2)
        store.put(tiny_study)  # put() triggers gc() with the configured bound
        assert len(list((store.root / "quarantine").iterdir())) == 1

    def test_gc_without_quarantine_dir_is_a_noop(self, store, tiny_study):
        store.put(tiny_study)
        assert store.gc(max_quarantine_entries=1) == []
        assert store.stats().entries == 1


class TestFaultAwareKeys:
    def test_transient_faults_normalise_out_of_the_key(self):
        """Transient faults are retried away without an artifact trace, so
        a chaos-tested study may serve (and fill) the clean cache slot."""
        from repro.faults import FaultPlan, FaultSpec
        from repro.resilience import ResilienceConfig

        transient = FaultPlan(
            seed=9,
            specs=(FaultSpec(site="campaign.shard", kind="crash", rate=0.5, fail_attempts=1),),
        )
        chaotic = _tiny_config(faults=transient, resilience=ResilienceConfig())
        assert study_key(chaotic) == study_key(_tiny_config())
        assert config_fingerprint(chaotic) != config_fingerprint(_tiny_config())

    def test_store_load_faults_normalise_out_of_the_key(self):
        from repro.faults import FaultPlan, FaultSpec

        plan = FaultPlan(seed=9, specs=(FaultSpec(site="store.load", kind="error"),))
        assert study_key(_tiny_config(faults=plan)) == study_key(_tiny_config())

    def test_permanent_data_faults_stay_in_the_key(self):
        """Permanent drops genuinely change artifacts: a degraded-coverage
        study must never collide with the clean content address."""
        from repro.faults import FaultPlan, FaultSpec

        plan = FaultPlan(seed=9, specs=(FaultSpec(site="mlab.ping", kind="drop", rate=0.1),))
        assert study_key(_tiny_config(faults=plan)) != study_key(_tiny_config())

    def test_shard_timeout_and_resilience_are_execution_only(self):
        from repro.resilience import ResilienceConfig, RetryPolicy

        timed = _tiny_config(parallel=ParallelConfig(shard_timeout_s=30.0))
        hardened = _tiny_config(resilience=ResilienceConfig(retry=RetryPolicy(max_attempts=5)))
        assert study_key(timed) == study_key(_tiny_config())
        assert study_key(hardened) == study_key(_tiny_config())


class TestGcAndIndex:
    @pytest.mark.parametrize("kind", ["study", "stage"])
    def test_lru_eviction_order(self, kind, tmp_path, tiny_study):
        """A hit refreshes the entry's recency, so gc evicts the unread one."""
        if kind == "study":
            store = StudyStore(tmp_path / "store", metrics=MetricsRegistry())
            studies = [tiny_study, run_study(_tiny_config(seed=4)), run_study(_tiny_config(seed=5))]
            keys = [store.put(study) for study in studies]
            hit = store.get(_tiny_config(seed=3))
            contains, evictions = store.contains_key, "store.evictions"
        else:
            store = StageStore(tmp_path / "stages", metrics=MetricsRegistry())
            keys = [store.put("epoch", stage_key("epoch", {"i": i}), {"row": i}) for i in range(3)]
            hit = store.get("epoch", keys[0])
            contains, evictions = store.contains, "stage.gc.evictions"
        # The hit on the oldest entry makes it the most recently used.
        assert hit is not None
        evicted = store.gc(max_entries=2)
        assert evicted == [keys[1]]
        assert contains(keys[0]) and contains(keys[2])
        assert store.metrics.counter(evictions) == 1

    def test_max_bytes_bound(self, tmp_path, tiny_study):
        store = StudyStore(tmp_path / "store", metrics=MetricsRegistry())
        store.put(tiny_study)
        store.put(run_study(_tiny_config(seed=4)))
        evicted = store.gc(max_bytes=store.stats().total_bytes - 1)
        assert len(evicted) == 1
        assert store.stats().entries == 1

    def test_put_enforces_configured_limits(self, tmp_path, tiny_study):
        store = StudyStore(tmp_path / "store", max_entries=1, metrics=MetricsRegistry())
        store.put(tiny_study)
        store.put(run_study(_tiny_config(seed=4)))
        assert store.stats().entries == 1

    def test_crash_debris_in_tmp_is_inert(self, store, tiny_study):
        key = store.put(tiny_study)
        debris = store.root / "tmp" / "deadbeef.1234.abcd"
        debris.mkdir(parents=True)
        (debris / "manifest.json").write_text("{}")
        assert store.keys() == [key]
        assert store.get(_tiny_config()) is not None

    @pytest.mark.parametrize("kind", ["study", "stage"])
    def test_gc_reaps_staging_of_dead_writers(self, kind, tmp_path):
        """A writer killed mid-put leaves its staging copy in ``tmp/``; gc
        removes it once the pid in its name is dead, never a live writer's."""
        import os
        import subprocess
        import sys

        # A pid guaranteed dead: a subprocess that already exited.
        probe = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True,
            text=True,
            check=True,
        )
        dead_pid = int(probe.stdout)
        if kind == "study":
            store, suffix = StudyStore(tmp_path / "store", metrics=MetricsRegistry()), ""
        else:
            store, suffix = StageStore(tmp_path / "stages", metrics=MetricsRegistry()), ".json"
        debris = {}
        for pid in (dead_pid, os.getpid()):
            path = store.root / "tmp" / f"{'ab' * 32}.{pid}.abcd{suffix}"
            path.parent.mkdir(parents=True, exist_ok=True)
            if kind == "study":
                path.mkdir()
                (path / "manifest.json").write_text("{}")
            else:
                path.write_text("{}")
            debris[pid] = path
        assert store.gc() == []
        assert not debris[dead_pid].exists()
        assert debris[os.getpid()].exists()


def _put_concurrently(barrier, kind, root, items, writes):
    """One writer process: wait for all writers, then put every item."""
    barrier.wait()
    if kind == "study":
        store = StudyStore(root, metrics=MetricsRegistry())
        for study in items:
            store.put(study)
        writes.put(store.metrics.counter("store.writes"))
    else:
        store = StageStore(root, metrics=MetricsRegistry())
        for key, payload in items:
            store.put("epoch", key, payload)
        writes.put(store.counter("epoch", "writes"))


@pytest.mark.parallel
class TestConcurrentWriters:
    N_WRITERS = 4

    def _race(self, kind, root, items):
        """Each writer puts ``items`` rotated, all released at once; returns writes."""
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(self.N_WRITERS)
        writes = context.Queue()
        writers = [
            context.Process(
                target=_put_concurrently,
                args=(barrier, kind, root, items[i:] + items[:i], writes),
            )
            for i in range(self.N_WRITERS)
        ]
        for writer in writers:
            writer.start()
        counts = [writes.get(timeout=300) for _ in writers]
        for writer in writers:
            writer.join(timeout=60)
            assert writer.exitcode == 0
        assert not list((root / "tmp").iterdir())
        return counts

    def test_study_store_publishes_each_key_once(self, tmp_path, tiny_study):
        root = tmp_path / "store"
        studies = [tiny_study, run_study(_tiny_config(seed=4))]
        counts = self._race("study", root, studies)
        # Every other writer either saw the entry or lost the rename race.
        assert sum(counts) == len(studies)
        store = StudyStore(root, metrics=MetricsRegistry())
        assert store.stats().entries == len(studies)
        for study in studies:
            assert store.get(study.config) is not None
        assert store.metrics.counter("store.corruptions") == 0

    def test_stage_store_entries_load_verified(self, tmp_path):
        root = tmp_path / "stages"
        items = [(stage_key("epoch", {"i": i}), {"row": i}) for i in range(24)]
        counts = self._race("stage", root, items)
        assert sum(counts) >= len(items)
        store = StageStore(root, metrics=MetricsRegistry())
        assert store.stats()["entries"] == len(items)
        for key, payload in items:
            assert store.get("epoch", key) == payload
        assert store.counter("epoch", "corruptions") == 0


class TestCachedStudyKeying:
    def test_same_name_different_backend_does_not_collide(self):
        """Regression: the memo used to key on the scenario *name* alone, so
        a scenario variant differing only in execution config collided."""
        from repro.experiments.scenarios import SMALL_SCENARIO, cached_study

        variant = SMALL_SCENARIO.__class__(
            name=SMALL_SCENARIO.name,
            config=StudyConfig(
                internet=SMALL_SCENARIO.config.internet,
                n_vantage_points=SMALL_SCENARIO.config.n_vantage_points,
                seed=SMALL_SCENARIO.config.seed,
                parallel=ParallelConfig(backend="pool", workers=2),
            ),
            n_traceroute_regions=SMALL_SCENARIO.n_traceroute_regions,
            capacity_sample=SMALL_SCENARIO.capacity_sample,
        )
        assert config_fingerprint(variant.config) != config_fingerprint(SMALL_SCENARIO.config)
        baseline = cached_study("small")
        from repro.parallel import process_backend_available, shutdown_pools

        if not process_backend_available():
            pytest.skip("worker pool unavailable")
        try:
            other = cached_study(variant)
        finally:
            shutdown_pools()
        assert other is not baseline
        assert other.config.parallel.backend == "pool"
        assert baseline.config.parallel.backend == "serial"
        # Both now memoised independently.
        assert cached_study(variant) is other
        assert cached_study("small") is baseline

    def test_cached_study_delegates_to_store(self, tmp_path):
        """A fresh process-memory cache plus a warm store -> rehydration, no
        pipeline rerun (observable through the store hit counter)."""
        from repro.experiments import scenarios

        registry = MetricsRegistry()
        store = StudyStore(tmp_path / "store", metrics=registry)
        scenario = scenarios.StudyScenario(
            name="tiny-store-test",
            config=_tiny_config(),
            n_traceroute_regions=2,
            capacity_sample=10,
        )
        first = scenarios.cached_study(scenario, store=store)
        assert registry.counter("store.writes") == 1
        # Simulate a new process: drop only the memory layer.
        scenarios._STUDY_CACHE.pop(config_fingerprint(scenario.config))
        second = scenarios.cached_study(scenario, store=store)
        assert registry.counter("store.hits") == 1
        np.testing.assert_array_equal(first.matrix.rtt_ms, second.matrix.rtt_ms)
