"""Streaming timing path vs legacy materialize-then-run differential.

``run_chip`` grew a streaming fast path (executor events fed straight
into ``CoreRun``) plus a cross-config trace cache; the legacy
materialized path is kept under ``streaming=False`` precisely so this
differential can assert all three produce bit-identical results.

The configs cover every shape of ``CoreRun``: single-context scalar
(CPU), multi-context scalar (SMT-4, SMT-8), single-context batched
(RPU) and multi-context batched in-order (GPU, whose 32 warps hold
several batches once the batch size is below the population).
"""

import random
from dataclasses import replace

import pytest

from repro.timing import (CPU_CONFIG, GPU_CONFIG, RPU_CONFIG, SMT8_CONFIG,
                          run_chip)
from repro.timing import trace_cache
from repro.workloads import get_service

SMT_CONFIG = replace(CPU_CONFIG, name="smt4-test", hw_contexts=4)

#: (config, run_chip batch size): 8-request GPU batches put three or
#: more warps in one round even at the small test population
CONFIGS = {
    "cpu": (CPU_CONFIG, None),
    "smt": (SMT_CONFIG, None),
    "smt8": (SMT8_CONFIG, None),
    "rpu": (RPU_CONFIG, None),
    "gpu": (GPU_CONFIG, 8),
}


def _observables(res):
    return (res.core_cycles, res.latencies_cycles, list(res.counters.items()),
            res.simt_efficiency, res.scalar_instructions, res.n_requests)


@pytest.mark.parametrize("label", sorted(CONFIGS))
@pytest.mark.parametrize("svc_name", ["mcrouter", "post", "hdsearch-leaf"])
def test_streaming_matches_materialized(svc_name, label, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
    monkeypatch.setenv("REPRO_CACHE", "0")  # force a live compute
    config, batch_size = CONFIGS[label]
    svc = get_service(svc_name)
    reqs = svc.generate_requests(24, random.Random(7))
    legacy = run_chip(svc, reqs, config, batch_size=batch_size,
                      streaming=False)
    streamed = run_chip(svc, reqs, config, batch_size=batch_size)
    assert _observables(streamed) == _observables(legacy)


def _check_cache_replay(config, batch_size=None):
    """Recording on a miss and replaying on a hit both match the
    reference."""
    trace_cache.clear()
    try:
        svc = get_service("mcrouter")
        reqs = svc.generate_requests(24, random.Random(7))
        legacy = run_chip(svc, reqs, config, batch_size=batch_size,
                          streaming=False)
        warm = run_chip(svc, reqs, config, batch_size=batch_size)
        cached = run_chip(svc, reqs, config, batch_size=batch_size)
        assert trace_cache.stats()["hits"] > 0
        assert _observables(warm) == _observables(legacy)
        assert _observables(cached) == _observables(legacy)
    finally:
        trace_cache.clear()


@pytest.fixture
def trace_cache_on(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    # the persistent store would satisfy the second run at the timed
    # level and never exercise the in-memory replay being tested here
    monkeypatch.setenv("REPRO_CACHE", "0")


def test_streaming_with_cache_matches_materialized(trace_cache_on):
    _check_cache_replay(RPU_CONFIG)


@pytest.mark.parametrize("label", ["cpu", "smt8", "gpu"])
def test_recorded_tuples_replay_on_every_run_shape(label, trace_cache_on):
    """On multi-context runs (SMT-8, GPU) the recorded event tuples are
    the very buffers the run drains at finish."""
    _check_cache_replay(*CONFIGS[label])


def test_gpu_replays_rpu_batch_traces(trace_cache_on):
    """The cross-config reuse a cold chip sweep relies on: the GPU times
    the batch traces the RPU recorded, and matches its own live
    compute."""
    trace_cache.clear()
    try:
        svc = get_service("hdsearch-leaf")
        reqs = svc.generate_requests(24, random.Random(11))
        legacy = run_chip(svc, reqs, GPU_CONFIG, streaming=False)
        run_chip(svc, reqs, RPU_CONFIG)  # records every batch
        hits = trace_cache.stats()["hits"]
        replayed = run_chip(svc, reqs, GPU_CONFIG)
        assert trace_cache.stats()["hits"] > hits
        assert _observables(replayed) == _observables(legacy)
    finally:
        trace_cache.clear()
