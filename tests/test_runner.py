"""Sweep runner: content-addressed cache + parallel execution."""

import dataclasses
import threading

import numpy as np
import pytest

from repro.analysis.experiments import resilience_sweep
from repro.errors import ConfigError
from repro.runner import cache as cache_module
from repro.runner import (
    ResultCache,
    SweepRunner,
    code_version,
    task_key,
)
from repro.soc.config import cannon_lake_i3_8121u, coffee_lake_i7_9700k


def _square(x):
    """Module-level so it pickles into pool workers."""
    return x * x


def _count_calls(x, counter_dir):
    """Task that records each execution as a file (pool-visible)."""
    import os
    import tempfile

    fd, _ = tempfile.mkstemp(dir=counter_dir, prefix=f"call-{x}-")
    os.close(fd)
    return x * x


def _fail_on_three(x):
    """Module-level task that dies on exactly one input."""
    if x == 3:
        raise ValueError("task three always fails")
    return x * x


def _config_probe(config, scale):
    """A task taking a ProcessorConfig, for canonicalisation tests."""
    return config.vcc_max * scale


class TestTaskKey:
    def test_kwarg_order_irrelevant(self):
        a = task_key(_config_probe,
                     {"config": cannon_lake_i3_8121u(), "scale": 2.0})
        b = task_key(_config_probe,
                     {"scale": 2.0, "config": cannon_lake_i3_8121u()})
        assert a == b

    def test_equal_configs_hash_equal(self):
        assert (task_key(_config_probe,
                         {"config": cannon_lake_i3_8121u(), "scale": 1.0})
                == task_key(_config_probe,
                            {"config": cannon_lake_i3_8121u(), "scale": 1.0}))

    def test_config_change_changes_key(self):
        base = cannon_lake_i3_8121u()
        tweaked = dataclasses.replace(base, icc_max=base.icc_max + 1.0)
        assert (task_key(_config_probe, {"config": base, "scale": 1.0})
                != task_key(_config_probe, {"config": tweaked, "scale": 1.0}))

    def test_different_function_changes_key(self):
        assert (task_key(_square, {"x": 2})
                != task_key(_config_probe, {"x": 2}))

    def test_version_changes_key(self):
        kwargs = {"x": 2}
        assert (task_key(_square, kwargs, version="aaaa")
                != task_key(_square, kwargs, version="bbbb"))
        assert (task_key(_square, kwargs)
                == task_key(_square, kwargs, version=code_version()))

    def test_numpy_scalars_canonicalise_to_python(self):
        assert (task_key(_square, {"x": np.float64(2.5)})
                == task_key(_square, {"x": 2.5}))
        assert (task_key(_square, {"x": np.int64(3)})
                == task_key(_square, {"x": 3}))

    def test_payload_types_supported(self):
        # bytes, tuples, sets and nested mappings must all canonicalise.
        kwargs = {"payload": b"\xa5\x3c", "rates": (1.0, 2.0),
                  "flags": {"b", "a"}, "nested": {"k": [1, 2]}}
        assert task_key(_square, kwargs) == task_key(_square, dict(kwargs))


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = cache.key_for(_square, {"x": 4})
        assert cache.get(key) == (False, None)
        cache.put(key, 16)
        assert cache.get(key) == (True, 16)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss_and_is_unlinked(self, tmp_path):
        # Regression: a corrupt entry used to stay on disk forever —
        # re-read and re-missed on every lookup while __len__ kept
        # counting it as a valid entry.
        cache = ResultCache(root=tmp_path)
        key = cache.key_for(_square, {"x": 4})
        cache.put(key, 16)
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
        hit, _ = cache.get(key)
        assert not hit
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1
        assert not path.exists()
        assert len(cache) == 0
        # The follow-up lookup is a plain miss, not another corruption.
        assert cache.get(key) == (False, None)
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 2

    def test_truncated_pickle_is_also_corrupt(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = cache.key_for(_square, {"x": 5})
        cache.put(key, 25)
        path = cache._path(key)
        path.write_bytes(path.read_bytes()[:-3])  # torn write
        assert cache.get(key) == (False, None)
        assert cache.stats.corrupt == 1
        assert not path.exists()

    def test_version_isolates_entries(self, tmp_path):
        old = ResultCache(root=tmp_path, version="v-old")
        old.put(old.key_for(_square, {"x": 4}), 16)
        new = ResultCache(root=tmp_path, version="v-new")
        hit, _ = new.get(new.key_for(_square, {"x": 4}))
        assert not hit  # a code change invalidates prior results

    def test_clear_and_evict(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        keys = [cache.key_for(_square, {"x": x}) for x in range(5)]
        for x, key in enumerate(keys):
            cache.put(key, x)
        assert len(cache) == 5
        assert cache.evict(max_entries=2) == 3
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0
        with pytest.raises(ConfigError):
            cache.evict(max_entries=-1)


class TestSweepRunner:
    def test_jobs_validated(self):
        with pytest.raises(ConfigError):
            SweepRunner(jobs=0)

    def test_serial_map_preserves_order(self):
        runner = SweepRunner()
        out = runner.map(_square, [{"x": x} for x in range(10)])
        assert out == [x * x for x in range(10)]
        assert runner.last_run.executed == 10
        assert runner.last_run.cache_hits == 0

    def test_parallel_map_matches_serial(self):
        tasks = [{"x": x} for x in range(9)]
        serial = SweepRunner(jobs=1).map(_square, tasks)
        parallel = SweepRunner(jobs=3).map(_square, tasks)
        assert serial == parallel

    def test_cache_skips_execution_on_rerun(self, tmp_path):
        tasks = [{"x": x} for x in range(6)]
        cold = SweepRunner(cache=ResultCache(root=tmp_path))
        first = cold.map(_square, tasks)
        assert cold.last_run.executed == 6
        warm = SweepRunner(cache=ResultCache(root=tmp_path))
        second = warm.map(_square, tasks)
        assert warm.last_run.executed == 0
        assert warm.last_run.cache_hits == 6
        assert first == second

    def test_parallel_with_cache(self, tmp_path):
        tasks = [{"x": x} for x in range(8)]
        runner = SweepRunner(jobs=4, cache=ResultCache(root=tmp_path))
        assert runner.map(_square, tasks) == [x * x for x in range(8)]
        rerun = SweepRunner(jobs=4, cache=ResultCache(root=tmp_path))
        assert rerun.map(_square, tasks) == [x * x for x in range(8)]
        assert rerun.last_run.executed == 0

    def test_partial_cache_only_runs_misses(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        seeded = SweepRunner(cache=cache)
        seeded.map(_square, [{"x": x} for x in range(3)])
        runner = SweepRunner(cache=ResultCache(root=tmp_path))
        out = runner.map(_square, [{"x": x} for x in range(6)])
        assert out == [x * x for x in range(6)]
        assert runner.last_run.cache_hits == 3
        assert runner.last_run.executed == 3


class TestInCallDeduplication:
    """Duplicate tasks within one map call must execute exactly once."""

    def test_duplicates_execute_once_with_cache(self, tmp_path):
        # Regression: duplicates within one call each missed (the first
        # had not been stored yet) and each executed.
        counter_dir = tmp_path / "calls"
        counter_dir.mkdir()
        runner = SweepRunner(cache=ResultCache(root=tmp_path / "cache"))
        tasks = [{"x": 7, "counter_dir": str(counter_dir)}] * 5
        out = runner.map(_count_calls, tasks)
        assert out == [49] * 5
        assert runner.last_run.executed == 1
        assert runner.last_run.deduped == 4
        assert len(list(counter_dir.iterdir())) == 1

    def test_duplicates_of_a_cache_hit_are_copies(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        SweepRunner(cache=cache).map(_square, [{"x": 3}])
        runner = SweepRunner(cache=ResultCache(root=tmp_path))
        out = runner.map(_square, [{"x": 3}, {"x": 3}, {"x": 2}])
        assert out == [9, 9, 4]
        assert runner.last_run.cache_hits == 1
        assert runner.last_run.deduped == 1
        assert runner.last_run.executed == 1

    def test_mixed_duplicates_parallel(self, tmp_path):
        runner = SweepRunner(jobs=3, cache=ResultCache(root=tmp_path))
        tasks = [{"x": x} for x in (1, 2, 1, 3, 2, 1)]
        assert runner.map(_square, tasks) == [1, 4, 1, 9, 4, 1]
        assert runner.last_run.executed == 3
        assert runner.last_run.deduped == 3

    def test_no_cache_means_no_dedup(self, tmp_path):
        # Without a cache there are no content addresses; behaviour is
        # unchanged (each duplicate runs).
        counter_dir = tmp_path / "calls"
        counter_dir.mkdir()
        runner = SweepRunner()
        tasks = [{"x": 7, "counter_dir": str(counter_dir)}] * 3
        assert runner.map(_count_calls, tasks) == [49] * 3
        assert runner.last_run.executed == 3
        assert runner.last_run.deduped == 0
        assert len(list(counter_dir.iterdir())) == 3


class TestCodeVersionReset:
    """The memoized source digest is stable and thread-safe."""

    def test_reset_recomputes_same_digest_for_same_sources(self,
                                                           monkeypatch):
        first = code_version()
        monkeypatch.setattr(cache_module, "_code_version", None)
        assert code_version() == first

    def test_concurrent_first_computation_is_consistent(self, monkeypatch):
        monkeypatch.setattr(cache_module, "_code_version", None)
        results = []
        lock = threading.Lock()

        def probe():
            value = code_version()
            with lock:
                results.append(value)

        threads = [threading.Thread(target=probe) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(results)) == 1
        assert results[0] == code_version()


class TestSweepFailureSemantics:
    """A crashed sweep must not discard or forget its siblings' work."""

    def test_serial_failure_identifies_the_task(self, tmp_path):
        runner = SweepRunner(cache=ResultCache(root=tmp_path))
        tasks = [{"x": x} for x in range(6)]
        with pytest.raises(ValueError) as excinfo:
            runner.map(_fail_on_three, tasks)
        assert excinfo.value.task_index == 3
        assert excinfo.value.task_kwargs == {"x": 3}

    def test_serial_failure_caches_completed_predecessors(self, tmp_path):
        runner = SweepRunner(cache=ResultCache(root=tmp_path))
        with pytest.raises(ValueError):
            runner.map(_fail_on_three, [{"x": x} for x in range(6)])
        # Tasks 0..2 finished before the crash; a resume must not replay
        # them.
        resumed = SweepRunner(cache=ResultCache(root=tmp_path))
        assert resumed.map(_fail_on_three,
                           [{"x": x} for x in range(3)]) == [0, 1, 4]
        assert resumed.last_run.cache_hits == 3
        assert resumed.last_run.executed == 0

    def test_parallel_failure_caches_all_completed_siblings(self, tmp_path):
        # Regression: one failing future used to abandon every sibling
        # result — even the ones that had already completed successfully.
        runner = SweepRunner(jobs=3, cache=ResultCache(root=tmp_path))
        tasks = [{"x": x} for x in range(6)]
        with pytest.raises(ValueError) as excinfo:
            runner.map(_fail_on_three, tasks)
        assert excinfo.value.task_index == 3
        assert excinfo.value.task_kwargs == {"x": 3}
        survivors = [{"x": x} for x in (0, 1, 2, 4, 5)]
        resumed = SweepRunner(cache=ResultCache(root=tmp_path))
        assert resumed.map(_fail_on_three,
                           survivors) == [0, 1, 4, 16, 25]
        assert resumed.last_run.cache_hits == 5
        assert resumed.last_run.executed == 0

    def test_failure_without_cache_still_annotates(self):
        with pytest.raises(ValueError) as excinfo:
            SweepRunner().map(_fail_on_three, [{"x": 3}])
        assert excinfo.value.task_index == 0
        assert excinfo.value.task_kwargs == {"x": 3}

    def test_executed_counts_completions_not_pending(self):
        # Regression: executed was set to len(pending) before anything
        # ran, so a sweep that died on task 0 of N reported N executed.
        runner = SweepRunner()
        with pytest.raises(ValueError):
            runner.map(_fail_on_three, [{"x": 3}] + [{"x": x}
                                                     for x in range(10)])
        assert runner.last_run.tasks == 11
        assert runner.last_run.executed == 0
        assert runner.total.executed == 0

    def test_stats_consistent_on_serial_failure_path(self, tmp_path):
        runner = SweepRunner(cache=ResultCache(root=tmp_path))
        with pytest.raises(ValueError):
            runner.map(_fail_on_three, [{"x": x} for x in range(6)])
        # Tasks 0..2 completed before the crash on task 3.
        assert runner.last_run.tasks == 6
        assert runner.last_run.executed == 3
        assert runner.total.tasks == 6
        assert runner.total.executed == 3

    def test_stats_consistent_on_parallel_failure_path(self, tmp_path):
        runner = SweepRunner(jobs=3, cache=ResultCache(root=tmp_path))
        with pytest.raises(ValueError):
            runner.map(_fail_on_three, [{"x": x} for x in range(6)])
        # Five of six futures complete; the sixth is the failure.
        assert runner.last_run.executed == 5
        assert runner.total.executed == 5


def _small_resilience(runner=None):
    """A two-trial resilience sweep: the smallest experiment taking a runner."""
    return resilience_sweep(payload=b"\x5a\x0f", intensities=(1.0,),
                            mitigations=("none",), trials=2, runner=runner)


class TestExperimentDeterminism:
    """Parallelism and caching must not change experiment results."""

    def test_resilience_parallel_equals_serial(self):
        serial = _small_resilience(SweepRunner(jobs=1))
        parallel = _small_resilience(SweepRunner(jobs=2))
        assert serial == parallel

    def test_resilience_warm_cache_executes_nothing(self, tmp_path):
        cold_runner = SweepRunner(cache=ResultCache(root=tmp_path))
        cold = _small_resilience(cold_runner)
        assert cold_runner.total.executed > 0
        warm_runner = SweepRunner(cache=ResultCache(root=tmp_path))
        warm = _small_resilience(warm_runner)
        assert warm_runner.total.executed == 0
        assert warm_runner.total.cache_hits == warm_runner.total.tasks
        assert cold == warm

    def test_resilience_default_runner_unchanged(self):
        # No runner argument is the serial, uncached path.
        assert _small_resilience() == _small_resilience(SweepRunner())
