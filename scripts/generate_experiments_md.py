#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md: paper-vs-measured for every figure/table.

    python scripts/generate_experiments_md.py [scale]
"""

import sys
import time

from repro.experiments import (
    eq1_analytical,
    fig04_fig11_batching,
    fig05_bandwidth,
    fig07_minpc,
    fig10_energy_breakdown,
    fig14_traffic,
    fig15_mpki,
    fig16_allocator,
    fig19_20_21_chip,
    fig22_end_to_end,
    fleet_sweep,
    gpu_comparison,
    resilience_sweep,
    sensitivity,
    table05_area_power,
    zone_failover,
)
from repro.energy import anticipated_gain_range

SCALE = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0


def block(text: str) -> str:
    return "```\n" + text + "\n```"


def main() -> None:
    t0 = time.time()
    chip = fig19_20_21_chip.run(SCALE)
    chip_avg = chip[-1]
    batching = fig04_fig11_batching.run(SCALE)
    b_avg = batching[-1]
    traffic_avg = fig14_traffic.run(SCALE)[-1]
    energy_avg = fig10_energy_breakdown.run(SCALE)[-1]
    e2e = fig22_end_to_end.run(min(1.0, SCALE))
    mpki_rows = {r.label: r for r in fig15_mpki.run(SCALE)}
    alloc_rows = fig16_allocator.run(SCALE)
    alloc_gain = fig16_allocator.throughput_gain(alloc_rows,
                                                 "hdsearch-leaf")
    lanes = sensitivity.run_lanes(SCALE)[-1]
    spec = sensitivity.run_speculative_reconvergence(SCALE)[0]
    multi = sensitivity.run_multi_batch(SCALE)[-1]
    gpu = gpu_comparison.run(SCALE)[-1]
    t5 = table05_area_power.run()
    eq_low, eq_high = anticipated_gain_range()
    resil = {r.label: r for r in
             resilience_sweep.run(min(1.0, SCALE))["rows"]}
    r_none = resil["cpu/none@f=2"]
    r_retry = resil["cpu/retry@f=2"]
    r_retry0 = resil["cpu/retry@f=0"]
    rpu_none = resil["rpu/none@f=2"]
    rpu_hedge = resil["rpu/hedge@f=2"]
    fleet = {r.label: r.values for r in
             fleet_sweep.run(min(1.0, SCALE))["rows"]}
    f_aware = fleet["r3/batch_aware/steady"]
    f_robin = fleet["r3/round_robin/steady"]
    f_fixed = fleet["r4/diurnal/fixed"]
    f_auto = fleet["r4/diurnal/autoscale"]
    f_clean = fleet["r4/steady/clean"]
    f_outage = fleet["r4/steady/outages"]
    zones = {r.label: r.values for r in
             zone_failover.run(min(1.0, SCALE))["rows"]}
    z_nofo = zones["zonekill/nofailover"]
    z_fo = zones["zonekill/failover"]
    z_fixed = zones["brownout/fixed"]
    z_p99 = zones["brownout/p99scale"]

    leaf = mpki_rows["hdsearch-leaf"]

    rows = [
        ("Fig. 4 naive-batching SIMT efficiency (avg)", "68%",
         f"{b_avg['naive']:.0%}"),
        ("Fig. 5 threads to saturate DDR5-7200", "256+",
         f"{fig05_bandwidth.run()[3]['threads_per_socket']:.0f}"),
        ("Fig. 7 MinPC diamond: divergent branches / results", "1 / reconverges",
         "1 / reconverges (see tests)"),
        ("Fig. 10 CPU frontend+OoO dynamic energy (avg)", "73%",
         f"{energy_avg['frontend_ooo']:.0%}"),
        ("Fig. 11 optimized SIMT efficiency, ideal IPDOM (avg)", "92%",
         f"{b_avg['api_size_ipdom']:.0%}"),
        ("Fig. 11 optimized SIMT efficiency, MinSP-PC (avg)", "91%",
         f"{b_avg['api_size_minsp']:.0%}"),
        ("Fig. 14 RPU L1 traffic reduction (avg)", "4.0x",
         f"{traffic_avg['reduction']:.2f}x"),
        ("Fig. 15 HDSearch-leaf MPKI batch32 vs batch8",
         "thrash at 32, OK at 8",
         f"{leaf['rpu_b32']:.0f} vs {leaf['rpu_b8']:.0f} MPKI"),
        ("Fig. 16 SIMR-aware allocator L1 throughput (HDSearch)", "1.8x",
         f"{alloc_gain:.2f}x"),
        ("Fig. 19 RPU requests/joule vs CPU (avg)", "5.7x",
         f"{chip_avg['rpu_ee']:.2f}x"),
        ("Fig. 19 CPU-SMT8 requests/joule vs CPU (avg)", "1.05x",
         f"{chip_avg['smt_ee']:.2f}x"),
        ("Fig. 20 RPU service latency vs CPU (avg)", "1.44x",
         f"{chip_avg['rpu_lat']:.2f}x"),
        ("Fig. 20 CPU-SMT8 service latency vs CPU (avg)", "~5x",
         f"{chip_avg['smt_lat']:.2f}x"),
        ("Fig. 21 average memory latency reduction (RPU)", "1.33x",
         f"{chip_avg['mem_lat_reduction']:.2f}x"),
        ("Fig. 21 issued-instruction reduction (RPU)", "~30x",
         f"{chip_avg['issued_reduction']:.1f}x"),
        ("Fig. 22 CPU max throughput", "15 kQPS",
         f"{e2e['max_kqps']['cpu']:.0f} kQPS"),
        ("Fig. 22 RPU max throughput (w/ split)", "60 kQPS (4x)",
         f"{e2e['max_kqps']['rpu_split']:.0f} kQPS "
         f"({e2e['max_kqps']['rpu_split']/max(1e-9,e2e['max_kqps']['cpu']):.1f}x)"),
        ("Table V RPU/CPU core area ratio", "6.3x",
         f"{t5['core_area_ratio']:.2f}x"),
        ("Table V RPU/CPU core peak power ratio", "4.5x",
         f"{t5['core_power_ratio']:.2f}x"),
        ("Table V RPU-only structures share of core power", "11.8%",
         f"{t5['simt_overhead_share']:.1%}"),
        ("Table V thread-density improvement", "5.2x",
         f"{t5['thread_density_ratio']:.2f}x"),
        ("Sec. V-A1 sub-batch (8 vs 32 lanes) performance loss", "~4%",
         f"{lanes['loss']:.1%}"),
        ("Sec. V-A3 GPU latency vs CPU", "~79x",
         f"{gpu['gpu_lat']:.0f}x"),
        ("Sec. V-A3 GPU requests/joule vs CPU", "~28x",
         f"{gpu['gpu_ee']:.1f}x"),
        ("Sec. III-A2 Eq. 1 anticipated EE range", "2-10x",
         f"{eq_low:.1f}-{eq_high:.1f}x"),
        ("Sec. III-B1 speculative reconvergence "
         "(HDSearch-midtier SIMT eff)", "improves efficiency",
         f"{spec['eff_default']:.2f} -> {spec['eff_speculative']:.2f}"),
        ("Extension: 2 resident batches per core "
         "(throughput gain @ latency cost)", "future work",
         f"{multi['gain']:.2f}x @ {multi['lat_cost']:.2f}x"),
        ("Extension: resilience sweep, CPU goodput at 2x faults "
         "(no policy -> retry)", "robustness study",
         f"{r_none['goodput_frac']:.0%} -> {r_retry['goodput_frac']:.0%}"),
        ("Extension: resilience sweep, retry requests/joule "
         "(CPU fault-free -> 2x faults)", "robustness study",
         f"{r_retry0['req_per_j']:.0f} -> {r_retry['req_per_j']:.0f} "
         "req/J"),
        ("Extension: resilience sweep, RPU p99.9 at 2x faults "
         "(no policy -> hedge)", "robustness study",
         f"{rpu_none['p999']:.0f} -> {rpu_hedge['p999']:.0f} us"),
        ("Extension: fleet sweep, requests/joule at equal load "
         "(r3 steady, round-robin -> batch-aware)", "fleet study",
         f"{f_robin['req_per_j']:.1f} -> {f_aware['req_per_j']:.1f} "
         "req/J"),
        ("Extension: fleet sweep, mixed-API batch fraction "
         "(r3 steady, round-robin -> batch-aware)", "fleet study",
         f"{f_robin['mixed']:.0%} -> {f_aware['mixed']:.0%}"),
        ("Extension: fleet autoscaling, diurnal cluster power "
         "(fixed r4 -> elastic)", "fleet study",
         f"{f_fixed['watts']:.0f} -> {f_auto['watts']:.0f} W "
         f"({f_auto['scale_events']:.0f} scale events)"),
        ("Extension: fleet rack outages, goodput under retry "
         "(clean -> rack-scoped outages)", "fleet study",
         f"{f_clean['goodput']:.0%} -> {f_outage['goodput']:.0%}"),
        ("Extension: zone kill, availability "
         "(no failover -> health-checked failover)", "fault-domain study",
         f"{z_nofo['avail']:.1%} -> {z_fo['avail']:.1%}"),
        ("Extension: zone kill, p99 latency "
         "(no failover -> health-checked failover)", "fault-domain study",
         f"{z_nofo['p99']:.0f} -> {z_fo['p99']:.0f} us"),
        ("Extension: zone brownout, requests/joule "
         "(fixed fleet -> p99-signal autoscale)", "fault-domain study",
         f"{z_fixed['req_per_j']:.2f} -> {z_p99['req_per_j']:.2f} req/J "
         f"({z_p99['scale_events']:.0f} scale events)"),
    ]

    lines = [
        "# EXPERIMENTS - paper vs measured",
        "",
        f"Regenerated by `python scripts/generate_experiments_md.py "
        f"{SCALE}` (request scale {SCALE}; paper scale is ~12, i.e. "
        "2400 requests/service).",
        "",
        "Simulation results are memoized in the persistent "
        "content-addressed store (`.repro_cache/`, see README), so "
        "regeneration after an edit re-simulates only what the edit "
        "invalidated; `REPRO_CACHE=0` forces a from-scratch run and "
        "`REPRO_CACHE_VERIFY=1` recomputes every cache hit and fails "
        "on any divergence. Either way the numbers below are "
        "byte-identical.",
        "",
        "Cold-run wall time is bounded by the timing model (core "
        "event processing and the memory hierarchy, the largest share "
        "of a profiled cold `run_all`), not by the instruction engine: "
        "in the end-to-end benchmark (`simbench/`) the four-design chip "
        "workload `chip_cold` costs ~5.7 CPU-seconds per pass against "
        "~1.4 s for the batch-execution workload `batch_fresh`. Batches "
        "run on the vectorized structure-of-arrays engine, with the "
        "reference interpreter as its oracle; running the reference "
        "engine instead (`fastpath=False`) must not change a single "
        "byte of this file.",
        "",
        "All measured numbers come from the approximate Python models "
        "described in DESIGN.md; the reproduction targets the paper's "
        "*shapes* (who wins, by roughly what factor, where crossovers "
        "fall), not its absolute numbers.",
        "",
        "| experiment | paper | measured |",
        "|---|---|---|",
    ]
    for name, paper, measured in rows:
        lines.append(f"| {name} | {paper} | {measured} |")

    lines += [
        "",
        "## Known fidelity gaps",
        "",
        "* **Fig. 19 magnitude.** Our RPU lands at "
        f"~{chip_avg['rpu_ee']:.1f}x requests/joule instead of 5.7x. The "
        "direction and per-service ordering match (stack-heavy "
        "mid-tiers gain most, divergent leaves least), but our "
        "synthetic services are shorter than the traced binaries, so "
        "per-request static/uncore energy weighs more heavily against "
        "the amortized frontend than in the paper's McPAT setup.",
        "* **Fig. 20 SMT-8 latency.** We measure "
        f"~{chip_avg['smt_lat']:.1f}x vs the paper's ~5x on average, "
        "but with a lumpier distribution: the cache-thrashing leaves "
        "degrade far more than 5x in our model while compute-light "
        "services degrade less.",
        "* **MinSP-PC vs stack-based IPDOM.** On HDSearch-midtier the "
        "stack-less heuristic naturally merges the shared re-ranking "
        "block that static IPDOM misses, beating the stack-based "
        "policy outright - an amplified version of the paper's note "
        "that the heuristic is sometimes 1-2% *better*.",
        "* **Fig. 22 absolute throughput.** The paper does not publish "
        "uqsim's service multiplicity; we calibrate the CPU system to "
        "saturate near 15 kQPS and inherit the RPU gain from the "
        "chip-level experiments, so the CPU/RPU *ratio* is the "
        "meaningful output.",
        "* **GPU comparison.** The in-order/warp-interleaved GPU model "
        "reproduces the qualitative gap (far higher latency, EE "
        "between CPU and its paper value) but not the 28x/79x "
        "magnitudes, which depend on workload lengths we do not match.",
        "",
        "## Event-loop profile, before/after compiling the system-tier "
        "hot paths",
        "",
        "Canonical fleet shard (`fleet_rpu`, 3 replicas, batch-aware, "
        "60 kQPS x 30 ms, ~11k jobs/run; 3 runs under cProfile, "
        "tottime). Before = heapq scheduler + per-job routing "
        "closures; after = event-wheel scheduler + compiled per-node "
        "routers, per-balancer pickers and prefix-hashed draw streams. "
        "The event wheel has since been deleted and the system tier "
        "runs on the heapq loop again (see below).",
        "",
        "| hot callback (before) | tottime | hot callback (after) "
        "| tottime |",
        "|---|---|---|---|",
        "| `continue_downstream` (33,018 calls) | 36 ms | "
        "`Station.arrive` (33,018) | 30 ms |",
        "| `Station.arrive` | 35 ms | `_visit` | 29 ms |",
        "| `_visit` | 33 ms | compiled `serve_one` (31,413) | 20 ms |",
        "| graph `after` | 30 ms | `Station._dispatch` (4,575) "
        "| 15 ms |",
        "| `_pick` (string compare per job) | 25 ms | compiled `pick` "
        "| 15 ms |",
        "| `_after_service` | 22 ms | wheel `run` loop | 13 ms |",
        "| `_entry_api` | 19 ms | `schedule1` (14,685) | 12 ms |",
        "| `backlog_us` (32,745 calls) | 17 ms | `PrefixStream.u2` "
        "(15,435) | 11 ms |",
        "| `repr`/`stream_key` hashing | 26 ms | (folded into `u2`) "
        "| - |",
        "",
        "Wall-clock for the same shard: 59.9 ms mean before, 28.8 ms "
        "after (2.08x, gated at >= 1.8x in CI). The gain is the "
        "compiled closures, not the scheduler: on a shared 2-vCPU "
        "host, 8 alternating processes per side, each timing 15 "
        "rounds of CPU time, the median best round was 28.9 ms with "
        "the wheel and 30.1 ms with the heapq loop (`run_end_to_end` "
        "queueing bench: 7.07 ms wheel, 6.49 ms heapq), and simbench "
        "`fleet_chaos` measured flat, so the wheel was removed. Every "
        "pinned experiment stdout is unchanged.",
        "",
        f"(generation took {time.time() - t0:.0f}s)",
    ]
    with open("EXPERIMENTS.md", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
