"""Chaos-conformance suite for the fleet tier.

The robustness analogue of the differential engine fuzzer: instead of
random ISA programs, it draws random-but-seeded *fault schedules* -
rack outages, request drops, stragglers, zone fail-stop windows, zone
brownouts, flash crowds and load steps - and sweeps each one against
every balancer x resilience policy, asserting the conservation
invariants that must survive any amount of injected chaos:

* **exactly-once resolution** - every offered request ends completed
  or violated, never both, never neither;
* **no orphaned work** - every station drains: nothing pending, no
  scheduled completion that never fired (the ``REPRO_SANITIZE=1``
  occupancy counters check this at every event too);
* **bounded energy horizon** - the billing window never runs away
  past the simulation horizon plus the worst-case tail of in-flight
  work;
* **byte-identical replay** - re-running a case produces the same
  digest, so any failure reproduces from ``(seed, balancer, policy)``
  alone.

Run a campaign with ``python -m repro.fuzz.chaos --seeds N``; the
stdout is deterministic (one line per case), which is what the CI
chaos-smoke job ``cmp``'s across serial and ``--jobs`` legs.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..system.arrivals import TrafficShape, generate_arrivals
from ..system.faults import FaultConfig
from ..system.fleet import BALANCERS, GRAPHS, FleetConfig, FleetSimulation
from ..system.resilience import ResilienceConfig
from ..system.seeding import stream_rng
from ..system.zones import ZoneConfig

#: one chaos case's simulated horizon (us) - small enough for a dense
#: seed matrix, long enough for several fault windows to land
HORIZON_US = 20_000.0
BASE_QPS = 40_000.0
REPLICAS = 4
RACK_SIZE = 2

#: the billing window may trail the horizon by in-flight tails (late
#: completions, deadline timers); anything past this is a leak
HORIZON_BOUND_US = 4.0 * HORIZON_US


class ChaosError(AssertionError):
    """A conservation invariant broke under an injected fault schedule."""


@dataclass(frozen=True)
class ChaosCase:
    """One cell of the campaign matrix (identifies a run completely)."""

    seed: int
    balancer: str
    resilient: bool


def gen_fault_schedule(seed: int) -> Tuple[TrafficShape, FaultConfig,
                                           ZoneConfig]:
    """Draw one fault schedule + traffic shape from ``seed`` alone.

    All draws come from ``stream_rng(seed, "chaos")`` up front - the
    schedule never consumes randomness during the simulation, matching
    the determinism contract of the fault layer itself.
    """
    rng = stream_rng(seed, "chaos")
    shape = TrafficShape(
        base_qps=BASE_QPS,
        flash_at_us=(rng.uniform(0.1, 0.5) * HORIZON_US
                     if rng.random() < 0.4 else -1.0),
        flash_duration_us=rng.uniform(0.05, 0.2) * HORIZON_US,
        flash_mult=rng.uniform(1.2, 2.0),
        step_at_us=(rng.uniform(0.3, 0.7) * HORIZON_US
                    if rng.random() < 0.3 else -1.0),
        step_mult=rng.uniform(0.6, 1.5),
    )
    faults = FaultConfig(
        seed=seed * 2 + 1,
        outage_rate_per_s=rng.uniform(0.0, 40.0),
        outage_min_us=500.0,
        outage_max_us=rng.uniform(1_000.0, 4_000.0),
        straggler_prob=rng.uniform(0.0, 0.05),
        straggler_mult=rng.uniform(2.0, 6.0),
        spike_prob=rng.uniform(0.0, 0.02),
        spike_us=rng.uniform(200.0, 1_000.0),
        drop_prob=rng.uniform(0.0, 0.02),
        horizon_us=HORIZON_US,
    )
    n_zones = -(-REPLICAS // RACK_SIZE)  # racks; one rack per zone below
    planned: Tuple[Tuple[int, float, float], ...] = ()
    if rng.random() < 0.5:
        z = rng.randrange(n_zones)
        start = rng.uniform(0.2, 0.6) * HORIZON_US
        planned = ((z, start, start + rng.uniform(0.1, 0.3) * HORIZON_US),)
    zones = ZoneConfig(
        racks_per_zone=1,
        seed=seed * 2 + 2,
        outage_rate_per_s=rng.uniform(0.0, 20.0),
        outage_min_us=500.0,
        outage_max_us=rng.uniform(1_000.0, 3_000.0),
        brownout_rate_per_s=rng.uniform(0.0, 30.0),
        brownout_min_us=1_000.0,
        brownout_max_us=rng.uniform(2_000.0, 6_000.0),
        brownout_mult=rng.uniform(1.5, 3.5),
        planned=planned,
        horizon_us=HORIZON_US,
    )
    return shape, faults, zones


def run_case(case: ChaosCase) -> dict:
    """Run one case and check its conservation invariants.

    Returns the shard payload extended with a replay ``digest``.
    Raises :class:`ChaosError` on any invariant violation.
    """
    shape, faults, zones = gen_fault_schedule(case.seed)
    resilience: Optional[ResilienceConfig] = None
    fleet = FleetConfig(replicas=REPLICAS, rack_size=RACK_SIZE,
                        balancer=case.balancer)
    if case.resilient:
        resilience = ResilienceConfig(deadline_us=10_000.0, max_retries=2)
        fleet = FleetConfig(replicas=REPLICAS, rack_size=RACK_SIZE,
                            balancer=case.balancer, health_check=True,
                            unhealthy_after=2, health_probe_us=1_500.0)
    arrivals = generate_arrivals(shape, HORIZON_US, case.seed,
                                 shard=0, n_shards=1)
    sim = FleetSimulation(GRAPHS["fleet_rpu"](), fleet, seed=case.seed,
                          faults=faults, resilience=resilience,
                          shard=0, zones=zones)
    payload = sim.run_arrivals(arrivals, HORIZON_US)

    n = payload["n"]
    completed = payload["completed"]
    violated = payload["violated"]
    if completed + violated != n:
        raise ChaosError(
            f"{case}: {n} requests but {completed} completed + "
            f"{violated} violated (lost or duplicated work)")
    if payload["horizon_us"] > HORIZON_BOUND_US:
        raise ChaosError(
            f"{case}: billing horizon {payload['horizon_us']:.1f}us ran "
            f"away past the {HORIZON_BOUND_US:.0f}us bound")
    for rs in sim.replica_sets.values():
        for st in rs.stations:
            if st._pending:
                raise ChaosError(
                    f"{case}: station {st.name} stranded "
                    f"{len(st._pending)} jobs")
            if st.open_jobs or st.open_groups:
                raise ChaosError(
                    f"{case}: station {st.name} left {st.open_jobs} jobs"
                    f" / {st.open_groups} groups in flight")
    payload["digest"] = case_digest(payload)
    return payload


def case_digest(payload: dict) -> int:
    """CRC-32 over the payload's canonical repr: two runs of the same
    case must match bit-for-bit, latencies included."""
    canon = repr(sorted(
        (k, v) for k, v in payload.items() if k != "digest"))
    return zlib.crc32(canon.encode("ascii")) & 0xFFFFFFFF


def case_line(case: ChaosCase, payload: dict) -> str:
    """One deterministic stdout line per case (the CI ``cmp`` unit)."""
    return (f"seed {case.seed:3d}  {case.balancer:<12s} "
            f"{'resilient' if case.resilient else 'bare':<9s} "
            f"n {payload['n']:4d}  done {payload['completed']:4d}  "
            f"viol {payload['violated']:4d}  "
            f"faults {payload['fault_failures']:4d}  "
            f"ej {payload['ejections']:3d}  "
            f"digest {payload['digest']:08x}")


def campaign_cases(seeds: Sequence[int],
                   balancers: Sequence[str] = BALANCERS
                   ) -> List[ChaosCase]:
    return [ChaosCase(seed=s, balancer=b, resilient=r)
            for s in seeds
            for b in balancers
            for r in (False, True)]


def _case_worker(case: ChaosCase) -> Tuple[dict, dict]:
    """Worker entry: run the case twice and pin byte-identical replay."""
    first = run_case(case)
    second = run_case(case)
    if first["digest"] != second["digest"]:
        raise ChaosError(
            f"{case}: replay diverged "
            f"({first['digest']:08x} != {second['digest']:08x})")
    return first, second


def run_campaign(seeds: Sequence[int],
                 balancers: Sequence[str] = BALANCERS,
                 jobs: Optional[int] = None) -> List[Tuple[ChaosCase, dict]]:
    """Sweep the full matrix through the parallel driver (bit-identical
    for any ``jobs``); every case is replay-checked in its worker."""
    from ..experiments.common import parallel_map

    cases = campaign_cases(seeds, balancers)
    results = parallel_map(_case_worker, cases, jobs=jobs)
    return [(c, first) for c, (first, _second) in zip(cases, results)]


def main(argv=None) -> int:
    """CLI: ``python -m repro.fuzz.chaos --seeds N --jobs J``."""
    import argparse
    import os

    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz.chaos",
        description="chaos-conformance sweep of the fleet tier")
    parser.add_argument(
        "--seeds", type=int,
        default=int(os.environ.get("REPRO_CHAOS_SEEDS", "20")),
        help="fault-schedule seeds (default REPRO_CHAOS_SEEDS or 20)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default REPRO_JOBS or 1)")
    parser.add_argument("--balancers", default=",".join(BALANCERS),
                        help="comma-separated balancer subset")
    args = parser.parse_args(argv)

    balancers = tuple(b for b in args.balancers.split(",") if b)
    for b in balancers:
        if b not in BALANCERS:
            parser.error(f"unknown balancer {b!r}")

    # sanitizers on before any worker forks, like the engine fuzzer;
    # an explicit REPRO_SANITIZE=0 from the caller wins.  Restored on
    # exit so in-process callers (the test suite) keep their env.
    inherited = os.environ.get("REPRO_SANITIZE")
    os.environ.setdefault("REPRO_SANITIZE", "1")
    try:
        results = run_campaign(range(args.seeds), balancers,
                               jobs=args.jobs)
    finally:
        if inherited is None:
            os.environ.pop("REPRO_SANITIZE", None)
    for case, payload in results:
        print(case_line(case, payload))
    total = len(results)
    print(f"chaos: {total} cases ({args.seeds} seeds x "
          f"{len(balancers)} balancers x 2 policies): all invariants held")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
