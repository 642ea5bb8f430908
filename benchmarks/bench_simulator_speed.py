"""Bench: raw simulator throughput (classic pytest-benchmark timing).

These measure the reproduction's own performance - lockstep
interpretation rate, solo interpretation rate, timing-model event rate
and queueing-simulator event rate - so regressions in the simulator
itself are visible.
"""

import itertools
import random

from repro.batching import form_batches
from repro.core.run import run_batch, run_solo
from repro.system import EndToEndConfig, run_end_to_end
from repro.timing import (CPU_CONFIG, GPU_CONFIG, RPU_CONFIG, SMT8_CONFIG,
                          CoreModel, batch_trace, run_chip, solo_traces,
                          trace_cache)
from repro.workloads import get_service

#: services whose recorded traces feed the timing replay bench
REPLAY_SERVICES = ("mcrouter", "memcached", "post", "usertag", "uniqueid",
                   "urlshort")


def test_lockstep_interpreter_rate(benchmark):
    service = get_service("post")
    requests = service.generate_requests(32, random.Random(0))
    result = benchmark(lambda: run_batch(service, requests))
    benchmark.extra_info["scalar_instructions"] = \
        result.scalar_instructions


def test_solo_interpreter_rate(benchmark):
    service = get_service("post")
    requests = service.generate_requests(16, random.Random(0))
    steps = benchmark(lambda: run_solo(service, requests))
    benchmark.extra_info["instructions"] = sum(steps)


def test_chip_model_rate(benchmark, monkeypatch):
    # a larger population and >=20 rounds keep the mean stable enough
    # for the 30% regression gate; the persistent store is disabled and
    # the trace cache is cleared before every round, so the measurement
    # covers execution + streaming timing, not replay or a disk hit
    monkeypatch.setenv("REPRO_CACHE", "0")
    service = get_service("mcrouter")
    requests = service.generate_requests(256, random.Random(0))
    result = benchmark.pedantic(
        lambda: run_chip(service, requests, RPU_CONFIG),
        setup=trace_cache.clear, rounds=20, iterations=1, warmup_rounds=1)
    benchmark.extra_info["core_cycles"] = int(result.core_cycles)


def _replay_pool():
    """Seeded pool of recorded traces in every timing-run shape: single
    CPU solo traces, SMT-8 groups of eight solo traces (64-worker pool)
    and GPU rounds of 4-request batch traces, one entry per round."""
    rng = random.Random(0)
    pool = []
    for name in REPLAY_SERVICES:
        service = get_service(name)
        requests = service.generate_requests(16, rng)
        cpu = solo_traces(service, requests)
        pool += [(CPU_CONFIG, [trace], False) for trace in cpu[:4]]
        smt = solo_traces(service, requests,
                          pool_size=SMT8_CONFIG.worker_pool)
        pool += [(SMT8_CONFIG, smt[:8], False), (SMT8_CONFIG, smt[8:], False)]
        batches = form_batches(requests, 4, "per_api_size")
        pool.append((GPU_CONFIG, [batch_trace(service, b)[0]
                                  for b in batches], True))
    rng.shuffle(pool)
    return pool


def test_timing_replay_rate(benchmark):
    # attribution for the timing layer alone: every round times a
    # different pre-recorded trace on a fresh core (cold caches and
    # predictors), so no cache can replay the bench's own input
    pool = _replay_pool()
    entries = itertools.cycle(pool)

    def setup():
        config, streams, batched = next(entries)
        return (CoreModel(config), streams, batched), {}

    benchmark.pedantic(
        lambda core, streams, batched: core.run(streams, batched=batched),
        setup=setup, rounds=len(pool), iterations=1, warmup_rounds=0)
    benchmark.extra_info["events"] = sum(
        len(stream) for _c, streams, _b in pool for stream in streams)


def test_queueing_simulator_rate(benchmark):
    cfg = EndToEndConfig(rpu=True, batch_split=True)
    result = benchmark(lambda: run_end_to_end(cfg, 30000, 1500))
    benchmark.extra_info["completed"] = result.completed
