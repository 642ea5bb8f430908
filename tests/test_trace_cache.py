"""Cross-config trace cache: keying, hits, eviction and run_chip wiring."""

import pytest

from repro.memsys.alloc import DefaultAllocator, SimrAwareAllocator
from repro.timing import CPU_CONFIG, RPU_CONFIG, run_chip
from repro.timing import trace_cache
from repro.timing.streams import batch_trace
from repro.workloads import get_service


@pytest.fixture(autouse=True)
def fresh_cache(monkeypatch):
    # this file tests the in-memory trace cache; pin the persistent
    # store off so its timed run_chip entries cannot answer a rerun
    # before the trace lookup (tests/test_store.py covers the store)
    monkeypatch.setenv("REPRO_CACHE", "0")
    trace_cache.clear()
    yield
    trace_cache.clear()


def _requests(n=8, seed=0):
    import random

    return get_service("mcrouter").generate_requests(n, random.Random(seed))


class TestKeys:
    def test_batch_key_stable(self):
        svc = get_service("mcrouter")
        reqs = _requests()
        k1 = trace_cache.batch_key(svc, reqs, "minsp_pc",
                                   SimrAwareAllocator(n_banks=8), None, 0,
                                   4_000_000)
        k2 = trace_cache.batch_key(svc, list(reqs), "minsp_pc",
                                   SimrAwareAllocator(n_banks=8), None, 0,
                                   4_000_000)
        assert k1 == k2

    def test_key_misses_on_policy_allocator_salt_and_requests(self):
        svc = get_service("mcrouter")
        reqs = _requests()
        base = trace_cache.batch_key(svc, reqs, "minsp_pc",
                                     SimrAwareAllocator(n_banks=8), None,
                                     0, 4_000_000)
        assert base != trace_cache.batch_key(
            svc, reqs, "ipdom", SimrAwareAllocator(n_banks=8), None, 0,
            4_000_000)
        assert base != trace_cache.batch_key(
            svc, reqs, "minsp_pc", DefaultAllocator(n_banks=8), None, 0,
            4_000_000)
        assert base != trace_cache.batch_key(
            svc, reqs, "minsp_pc", SimrAwareAllocator(n_banks=4), None, 0,
            4_000_000)
        assert base != trace_cache.batch_key(
            svc, reqs, "minsp_pc", SimrAwareAllocator(n_banks=8), None, 3,
            4_000_000)
        assert base != trace_cache.batch_key(
            svc, reqs[:-1], "minsp_pc", SimrAwareAllocator(n_banks=8),
            None, 0, 4_000_000)
        assert base != trace_cache.batch_key(
            svc, list(reversed(reqs)), "minsp_pc",
            SimrAwareAllocator(n_banks=8), None, 0, 4_000_000)

    def test_solo_key_includes_pool_size(self):
        svc = get_service("mcrouter")
        reqs = _requests()
        k1 = trace_cache.solo_key(svc, reqs, DefaultAllocator(), 0,
                                  2_000_000, 1)
        k64 = trace_cache.solo_key(svc, reqs, DefaultAllocator(), 0,
                                   2_000_000, 64)
        assert k1 != k64


class TestCacheHits:
    def test_hit_is_byte_identical(self):
        svc = get_service("mcrouter")
        reqs = _requests()
        events, result = batch_trace(svc, reqs,
                                     allocator=SimrAwareAllocator(n_banks=8))
        key = trace_cache.batch_key(svc, reqs, "minsp_pc",
                                    SimrAwareAllocator(n_banks=8), None, 0,
                                    4_000_000)
        cache = trace_cache.get_cache()
        cache.put(key, (tuple(events), result), len(events))
        hit_events, hit_result = cache.get(key)
        assert list(hit_events) == events
        assert trace_cache.copy_result(hit_result) == result
        # a fresh re-execution must also agree with the cached entry
        events2, result2 = batch_trace(
            svc, reqs, allocator=SimrAwareAllocator(n_banks=8))
        assert events2 == list(hit_events)
        assert result2 == hit_result

    def test_copy_result_is_independent(self):
        svc = get_service("mcrouter")
        _events, result = batch_trace(svc, _requests())
        dup = trace_cache.copy_result(result)
        assert dup == result
        dup.retired_per_thread[0] += 1
        assert dup != result

    def test_lru_eviction_respects_budget(self):
        cache = trace_cache.TraceCache(max_events=100)
        cache.put(("a",), ("va",), 60)
        cache.put(("b",), ("vb",), 60)  # evicts a
        assert cache.get(("a",)) is None
        assert cache.get(("b",)) == ("vb",)
        assert cache.held_events <= 100


def _observables(res):
    return (res.core_cycles, res.latencies_cycles, dict(res.counters),
            res.simt_efficiency, res.scalar_instructions, res.n_requests)


class TestRunChipWiring:
    def test_cached_rerun_bit_identical(self):
        svc = get_service("mcrouter")
        reqs = _requests(48, seed=3)
        first = run_chip(svc, reqs, RPU_CONFIG)
        assert trace_cache.stats()["misses"] > 0
        second = run_chip(svc, reqs, RPU_CONFIG)
        assert trace_cache.stats()["hits"] > 0
        assert _observables(first) == _observables(second)

    def test_cache_off_bit_identical(self):
        svc = get_service("mcrouter")
        reqs = _requests(48, seed=3)
        cached = run_chip(svc, reqs, RPU_CONFIG)
        # an unvouched allocator factory is the one uncached path; this
        # one builds exactly the allocator run_chip would pick itself
        before = trace_cache.stats()
        uncached = run_chip(
            svc, reqs, RPU_CONFIG,
            allocator_factory=lambda: SimrAwareAllocator(
                n_banks=RPU_CONFIG.l1_banks))
        assert trace_cache.stats()["hits"] == before["hits"]
        assert trace_cache.stats()["misses"] == before["misses"]
        assert _observables(cached) == _observables(uncached)

    def test_solo_and_batch_modes_both_cache(self):
        svc = get_service("mcrouter")
        reqs = _requests(32, seed=5)
        run_chip(svc, reqs, CPU_CONFIG)
        run_chip(svc, reqs, RPU_CONFIG)
        entries = trace_cache.stats()["entries"]
        assert entries >= 2  # one solo population + >=1 batch

    def test_custom_allocator_factory_bypasses_cache(self):
        svc = get_service("mcrouter")
        reqs = _requests(16, seed=1)
        before = trace_cache.stats()
        run_chip(svc, reqs, RPU_CONFIG,
                 allocator_factory=lambda: SimrAwareAllocator(n_banks=8))
        after = trace_cache.stats()
        assert after["entries"] == before["entries"]
        assert after["misses"] == before["misses"]
