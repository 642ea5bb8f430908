"""Simulated hardware configurations (paper Table IV).

All four design points share the 8-wide, 256-entry OoO pipeline skeleton
and 2.5 GHz clock (except the GPU); they differ exactly where the paper
says they do: thread organization, SIMT lanes, ALU/L1 latency, cache
geometry, TLB banking, DRAM bandwidth and interconnect.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional


@dataclass(frozen=True)
class CoreConfig:
    name: str
    # pipeline
    issue_width: int = 8
    rob_entries: int = 256  # per hardware context
    freq_ghz: float = 2.5
    in_order: bool = False
    branch_penalty: int = 12
    alu_latency: int = 1
    mul_latency: int = 4
    simd_latency: int = 4
    syscall_overhead: int = 120  # user->kernel transition cycles
    # organization
    n_cores: int = 98
    threads_per_core: int = 1  # SMT degree or batch size
    hw_contexts: int = 1  # independent fetch streams per core
    lanes: int = 1  # SIMT lanes (sub-batch interleaving width)
    # L1 data cache
    l1_size: int = 64 * 1024
    l1_assoc: int = 8
    l1_banks: int = 1
    l1_latency: int = 3
    line_size: int = 32
    # L2
    l2_size: int = 512 * 1024
    l2_assoc: int = 8
    l2_latency: int = 12
    # L3 (per-core slice of the shared 32MB)
    l3_slice_size: int = 330 * 1024
    l3_assoc: int = 16
    l3_latency: int = 36
    # TLB
    tlb_entries: int = 48
    tlb_banks: int = 1
    tlb_miss_penalty: int = 80
    # DRAM (per-core slice of chip bandwidth)
    dram_bw_chip_gbps: float = 200.0
    dram_latency: int = 160
    # interconnect
    interconnect: str = "mesh"  # mesh | crossbar
    mesh_k: int = 10
    #: worker threads a core multiplexes over time; their per-request
    #: state (stacks, arenas) cycles through the private caches, the
    #: "many threads per node" pressure of Table IV's capacity/thread.
    #: The single-threaded CPU dedicates the core to one service thread
    #: (Table IV: 64KB L1 capacity per thread).
    worker_pool: int = 1
    #: instruction-supply stalls: microservice instruction footprints
    #: (gRPC, protobuf, kernel) overwhelm the I-cache; data center CPUs
    #: lose a large IPC fraction to frontend stalls (Kanev et al.,
    #: AsmDB).  Modelled as icache misses per kilo-(batch)-instruction;
    #: a SIMT batch pays each stall once for all of its threads.
    icache_mpki: float = 18.0
    icache_penalty: int = 36
    # SIMR features
    mcu_enabled: bool = False
    stack_interleave: bool = False
    atomics_at_l3: bool = False
    majority_vote_bp: bool = False

    @property
    def total_threads(self) -> int:
        return self.n_cores * self.threads_per_core

    @property
    def dram_bw_core_gbps(self) -> float:
        return self.dram_bw_chip_gbps / self.n_cores

    @property
    def batch_size(self) -> int:
        """Threads executed in lockstep per context (1 = MIMD)."""
        return self.threads_per_core // self.hw_contexts


#: Single-threaded OoO CPU chip: 98 cores x 1 thread (Table IV col 1).
CPU_CONFIG = CoreConfig(name="cpu")

#: SMT-8 CPU chip: 80 cores x 8 threads, frontend partitioned, 32 OoO
#: entries per thread, same per-thread memory resources as the RPU.
SMT8_CONFIG = CoreConfig(
    name="cpu-smt8",
    n_cores=80,
    threads_per_core=8,
    hw_contexts=8,
    worker_pool=64,
    icache_mpki=24.0,  # 8 contexts sharing the I-cache
    rob_entries=32,
    l1_banks=8,
    tlb_entries=64,
    l3_slice_size=400 * 1024,
    dram_bw_chip_gbps=576.0,
    mesh_k=11,
)

#: The RPU: 20 cores x 32-thread batches over 8 SIMT lanes.
RPU_CONFIG = CoreConfig(
    name="rpu",
    n_cores=20,
    threads_per_core=32,
    hw_contexts=1,
    lanes=8,
    alu_latency=4,
    l1_size=256 * 1024,
    l1_banks=8,
    l1_latency=8,
    l2_size=2 * 1024 * 1024,
    l2_latency=20,
    l3_slice_size=1600 * 1024,
    tlb_entries=256,
    tlb_banks=8,
    dram_bw_chip_gbps=576.0,
    interconnect="crossbar",
    mcu_enabled=True,
    stack_interleave=True,
    atomics_at_l3=True,
    majority_vote_bp=True,
)

#: SPMD-on-SIMD alternative (paper Section VI-A): requests mapped to
#: the CPU's AVX lanes by an ISPC-style compiler.  CPU latencies, but
#: 4-request batches run predicated on the 256-bit units with no MCU,
#: no stack interleaving and no useful branch prediction.
CPU_SIMD_CONFIG = CoreConfig(
    name="cpu-simd",
    n_cores=98,
    threads_per_core=4,  # 4x 64-bit lanes per 256-bit vector
    hw_contexts=1,
    lanes=4,
    l1_banks=1,
)


#: Ampere-like GPU: in-order SIMT, lower clock, deep cache latencies,
#: 32 resident warps per SM hide latency at the cost of service latency.
GPU_CONFIG = CoreConfig(
    name="gpu",
    freq_ghz=1.4,
    in_order=True,
    branch_penalty=0,  # no speculation: branches simply stall
    alu_latency=4,
    mul_latency=8,
    simd_latency=4,
    syscall_overhead=2000,  # CPU-coordinated I/O
    n_cores=64,
    threads_per_core=1024,
    hw_contexts=32,  # 32 resident warps of 32 threads
    lanes=16,
    rob_entries=4,  # scoreboard depth, not a real ROB
    l1_size=128 * 1024,
    l1_banks=8,
    l1_latency=28,
    l2_size=4 * 1024 * 1024,
    l2_latency=180,
    l3_slice_size=96 * 1024,
    l3_latency=220,
    tlb_entries=128,
    tlb_banks=8,
    dram_bw_chip_gbps=1500.0,
    dram_latency=400,
    interconnect="crossbar",
    mcu_enabled=True,
    stack_interleave=True,
    atomics_at_l3=True,
)


def rpu_with_lanes(lanes: int) -> CoreConfig:
    """Sub-batch-interleaving sensitivity variant (Section V-A1)."""
    return replace(RPU_CONFIG, name=f"rpu-{lanes}lanes", lanes=lanes)


def rpu_with_batches(n_batches: int) -> CoreConfig:
    """Multi-batch interleaving (paper Section III-A "Sub-batch
    Interleaving" extension): keep ``n_batches`` resident batches per
    core and switch between them with zero overhead to hide long
    latencies.  The paper leaves the study to future work; the model
    supports it directly via multiple hardware contexts.
    """
    return replace(
        RPU_CONFIG,
        name=f"rpu-{n_batches}batches",
        hw_contexts=n_batches,
        threads_per_core=32 * n_batches,
    )


def rpu_without(feature: str) -> CoreConfig:
    """Ablation variants used by the sensitivity benches."""
    knobs = {
        "mcu": {"mcu_enabled": False},
        "stack_interleave": {"stack_interleave": False},
        "atomics_at_l3": {"atomics_at_l3": False},
        "majority_vote": {"majority_vote_bp": False},
    }
    if feature not in knobs:
        raise KeyError(f"unknown RPU feature {feature!r}")
    return replace(RPU_CONFIG, name=f"rpu-no-{feature}", **knobs[feature])
