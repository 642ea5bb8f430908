"""Bench: fleet tier - sharded replicated graphs with SIMT-aware
load balancing.

The headline claim of the fleet layer: at equal offered load, the
batch-aware balancer keeps every replica's batches API-pure, so the
divergence penalty never bites and requests/joule beats round-robin.
Both cells run the same arrival schedule (the balancer cannot perturb
the keyed arrival draws), so the comparison is paired, not sampled.
"""

from conftest import run_once

from repro.system.arrivals import TrafficShape
from repro.system.fleet import (FleetConfig, FleetShardTask,
                                run_fleet, run_fleet_shard)
from repro.system.zones import ZoneConfig

QPS = 100_000.0
SHARDS = 2
SEED = 7


def _horizon(scale):
    return max(40_000.0, 80_000.0 * scale)


def _run(scale, balancer):
    return run_fleet(TrafficShape(base_qps=QPS), _horizon(scale),
                     fleet=FleetConfig(replicas=3, balancer=balancer),
                     shards=SHARDS, seed=SEED)


def test_fleet_batch_aware_vs_round_robin(benchmark, scale):
    data = run_once(benchmark, lambda: {
        bal: _run(scale, bal) for bal in ("batch_aware", "round_robin")})
    aware, robin = data["batch_aware"], data["round_robin"]
    print()
    for bal, r in data.items():
        print(f"{bal:>12}: {r.requests_per_joule:8.2f} req/J  "
              f"{r.avg_watts:8.1f} W  p99 {r.p99_us:8.1f} us  "
              f"mixed {r.mixed_batch_frac:.1%}")
    benchmark.extra_info["batch_aware_req_per_j"] = aware.requests_per_joule
    benchmark.extra_info["round_robin_req_per_j"] = robin.requests_per_joule
    benchmark.extra_info["batch_aware_mixed_frac"] = aware.mixed_batch_frac
    assert aware.n_requests == robin.n_requests
    assert aware.requests_per_joule > robin.requests_per_joule
    assert aware.mixed_batch_frac < robin.mixed_batch_frac


def test_fleet_shard_rate(benchmark, monkeypatch):
    """Raw fleet event-loop throughput (classic timing, no store).

    One shard of the canonical batch-aware cell at 60k QPS over 30ms -
    the simulator-speed gate for the fleet tier, pinned by
    ``scripts/compare_bench.py --min-speedup-vs-base`` in CI against
    the committed ``pre_event_wheel`` block (the ``heapq`` scheduler
    with per-job routing closures, before the routing and balancer
    closures were compiled).
    """
    monkeypatch.setenv("REPRO_CACHE", "0")
    task = FleetShardTask("fleet_rpu",
                          FleetConfig(replicas=3, balancer="batch_aware"),
                          TrafficShape(base_qps=60_000.0),
                          30_000.0, 0, 1, SEED)
    payload = benchmark.pedantic(lambda: run_fleet_shard(task),
                                 rounds=20, iterations=1, warmup_rounds=1)
    benchmark.extra_info["completed"] = payload["completed"]


def test_fleet_zone_failover_shard_rate(benchmark, monkeypatch):
    """Zone/failover overhead on the same canonical shard.

    Same cell as ``test_fleet_shard_rate`` but with a mid-horizon zone
    kill, health-checked ejection and the retry path live - the price
    of the fault-domain layer when it is actually exercising failover,
    comparable side by side with the fault-free shard number.
    """
    monkeypatch.setenv("REPRO_CACHE", "0")
    horizon = 30_000.0
    task = FleetShardTask("fleet_rpu",
                          FleetConfig(replicas=4, rack_size=2,
                                      balancer="batch_aware",
                                      health_check=True,
                                      unhealthy_after=2,
                                      health_probe_us=2_000.0),
                          TrafficShape(base_qps=60_000.0),
                          horizon, 0, 1, SEED,
                          zones=ZoneConfig(
                              racks_per_zone=1, seed=SEED,
                              planned=((0, 0.3 * horizon, 0.6 * horizon),),
                              horizon_us=horizon))
    payload = benchmark.pedantic(lambda: run_fleet_shard(task),
                                 rounds=20, iterations=1, warmup_rounds=1)
    benchmark.extra_info["completed"] = payload["completed"]
    benchmark.extra_info["killed"] = payload["fault_failures"]
    assert payload["ejections"] > 0
