"""One benchmark pass: a workload's operations, run once in this process.

``run.py`` starts one process per pass, so every pass begins with empty
in-process caches (trace cache, setup templates, compiled grains, memo
tables), and points ``REPRO_CACHE_DIR`` at a store directory of its own.
A pass has two phases:

* set-up: imports and request-population generation from the seed;
* the timed phase: a single-client closed loop, one public simulator
  call (an *operation*) issued when the previous one returns, with no
  ``parallel_map`` fan-out (``jobs=1``).

Every operation's simulated output is reduced to a CRC-32 digest, which
``run.py`` compares against the recorded references.  Host times are CPU
seconds scaled to a reference host speed by a fixed load interleaved
with the operations (:class:`Calibration`).  With ``traced``
set, the pass also times each layer's public functions from here (the
program itself is not modified) and, with ``differential`` set, re-runs
one sampled operation per layer on its reference path.

Run as a script, the module is the child process ``run.py`` spawns::

    python3 simbench/passes.py --workload chip_cold --seed 1 \\
        --size full --out result.json [--traced] [--differential]
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import heapq
import json
import os
import random
import resource
import statistics
import sys
import time
import zlib
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import repro.store as store_mod  # noqa: E402
import repro.system.fleet as fleet_mod  # noqa: E402
import repro.timing as timing_mod  # noqa: E402
from repro.batching import form_batches  # noqa: E402
from repro.core.run import run_batch, run_solo  # noqa: E402
from repro.energy import requests_per_joule  # noqa: E402
from repro.engine import lanes, memo  # noqa: E402
from repro.experiments import fig04_fig11_batching as fig04  # noqa: E402
from repro.experiments import fig19_20_21_chip as fig19  # noqa: E402
from repro.experiments import fig22_end_to_end as fig22  # noqa: E402
from repro.experiments.common import default_population  # noqa: E402
from repro.experiments.fleet_sweep import _shapes as sweep_shapes  # noqa: E402
from repro.fuzz.chaos import ChaosCase, run_case  # noqa: E402
from repro.system import (  # noqa: E402
    BALANCERS,
    EndToEndConfig,
    FleetConfig,
    ResilienceConfig,
    TrafficShape,
    ZoneConfig,
    max_throughput_kqps,
    run_fleet,
    run_fleet_shard,
    saturation_sweep,
)
from repro.timing import (  # noqa: E402
    CPU_CONFIG,
    GPU_CONFIG,
    RPU_CONFIG,
    SMT8_CONFIG,
    trace_cache,
)
from repro.workloads import SERVICE_NAMES, get_service  # noqa: E402
from run import WORKLOADS  # noqa: E402,F401  (the --workload choices)

#: host time is the process's CPU time: the load is one closed-loop
#: thread, so it equals wall time on an idle machine
clock = time.process_time

#: shards per ``run_fleet`` call; each is one operation
FLEET_SHARDS = 2

CHIP_CONFIGS = (("cpu", CPU_CONFIG), ("smt8", SMT8_CONFIG),
                ("rpu", RPU_CONFIG), ("gpu", GPU_CONFIG))

#: fig04/fig11 columns: (column, batching policy, reconvergence policy)
BATCH_MODES = (("naive", "naive", "ipdom"),
               ("per_api", "per_api", "ipdom"),
               ("api_size_ipdom", "per_api_size", "ipdom"),
               ("api_size_minsp", "per_api_size", "minsp_pc"))

#: repeat_warm's populations do not vary with --seed
REPEAT_SEED = 7

#: chip_cold runs the fig19_20_21 populations of ``run_all --scale``
#: at this scale: 64 requests for every service, where scale 1.0 gives
#: 192.  Every service gets the same count, as in the pipeline, so the
#: mix of services is the pipeline's; only the total is a third.
CHIP_SCALE = 1 / 3

ALL_SERVICES = tuple(SERVICE_NAMES)


@dataclass(frozen=True)
class Size:
    """How much work one pass of each workload does."""

    chip_services: Tuple[str, ...]
    chip_scale: float
    batch_services: Tuple[str, ...]
    batch_requests: int
    fleet_horizon_us: float
    fleet_shapes: Tuple[str, ...]
    fleet_balancers: Tuple[str, ...]
    zone_balancers: Tuple[str, ...]
    chaos_seeds: int
    chaos_balancers: Tuple[str, ...]
    sat_qps: Tuple[float, ...]
    sat_requests: int
    repeat_chip_services: Tuple[str, ...]
    repeat_batch_services: Tuple[str, ...]
    repeat_batch_requests: int


SIZES: Dict[str, Size] = {
    # the benchmark: every service, the fig04/11 population (192), the
    # fleet_sweep load and the full fig22 grid
    "full": Size(
        chip_services=ALL_SERVICES,
        chip_scale=CHIP_SCALE,
        batch_services=ALL_SERVICES,
        batch_requests=192,
        fleet_horizon_us=50_000.0,
        fleet_shapes=("flat", "diurnal", "flash"),
        fleet_balancers=BALANCERS,
        zone_balancers=("batch_aware", "adaptive"),
        chaos_seeds=6,
        chaos_balancers=BALANCERS,
        sat_qps=tuple(float(q) for q in fig22.DEFAULT_QPS),
        sat_requests=2000,
        repeat_chip_services=("search-leaf", "memcached", "post", "user"),
        repeat_batch_services=("search-leaf", "hdsearch-leaf", "memcached",
                               "post", "user"),
        repeat_batch_requests=96,
    ),
    # smoke size for the benchmark's own tests (seconds per pass)
    "tiny": Size(
        chip_services=("uniqueid", "post-text"),
        chip_scale=0.0,
        batch_services=("uniqueid", "post-text"),
        batch_requests=32,
        fleet_horizon_us=10_000.0,
        fleet_shapes=("flat",),
        fleet_balancers=("round_robin", "batch_aware"),
        zone_balancers=("batch_aware",),
        chaos_seeds=1,
        chaos_balancers=("batch_aware",),
        sat_qps=(5000.0, 60000.0),
        sat_requests=400,
        repeat_chip_services=("uniqueid",),
        repeat_batch_services=("uniqueid",),
        repeat_batch_requests=32,
    ),
}


def sub_seed(seed: int, *parts) -> int:
    """Deterministic 31-bit seed for one input of one workload."""
    return zlib.crc32(repr((seed,) + parts).encode("utf-8")) & 0x7FFF_FFFF


def crc(obj) -> str:
    """Digest of a simulated output: CRC-32 of its canonical repr
    (float reprs are exact, so any bit of drift changes it)."""
    return "%08x" % (zlib.crc32(repr(obj).encode("utf-8")) & 0xFFFF_FFFF)


def digest_chip(r) -> str:
    d = dataclasses.asdict(r)
    d["counters"] = sorted(d["counters"].items())
    return crc(sorted(d.items()))


def digest_lockstep(r) -> str:
    return crc((r.batch_size, r.steps, r.scalar_instructions,
                r.divergent_branches, r.branches,
                tuple(r.retired_per_thread), r.truncated))


def digest_payload(p: dict) -> str:
    return crc(sorted(p.items()))


class InvariantError(AssertionError):
    """A simulated output broke a conservation invariant."""


class GuardError(RuntimeError):
    """The run measured a cache or path the workload must not use."""


# ----------------------------------------------------------------------
# host speed: a fixed calibration load interleaved with the operations
# ----------------------------------------------------------------------

#: CPU seconds one calibration unit takes at the reference host speed;
#: host times are reported at that speed (see :class:`Calibration`)
REF_UNIT_S = 0.5e-3
#: calibration CPU time spent per second of operation CPU time
CAL_SHARE = 0.2
#: calibration CPU time spent right after set-up
SETUP_CAL_S = 0.1
#: an operation's latency is scaled by the calibration run within this
#: much operation CPU time of it, on either side
CAL_WINDOW_S = 0.5


#: the calibration load's tables: a few MB, more than a core's private
#: cache holds, so the load feels cache contention as the simulator does
_CAL_LIST = list(range(1 << 16, 1 << 17))
_CAL_MAP = {(i * 2654435761) & 0xFFFF_FFFF: i for i in range(1 << 15)}
_CAL_KEYS = list(_CAL_MAP)


def calibration_unit(n: int = 500) -> int:
    """A fixed slice of interpreter work of the simulator's kind
    (integer hashing, a heap of events, scattered list and dict reads,
    small lists); it does not depend on the simulator's code."""
    heap: list = []
    acc, x = 0, 12345
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFF_FFFF
        heapq.heappush(heap, (x & 1023, i))
        acc += _CAL_LIST[x & 0xFFFF] + _CAL_MAP[_CAL_KEYS[(x >> 5) & 0x7FFF]]
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
        acc ^= [x, i, acc][x % 3]
    return acc


class Calibration:
    """Measures how fast the host runs a fixed load right now.

    On a shared host other tenants slow every instruction down, by as
    much as 2.5x for minutes at a time and by varying amounts from one
    second to the next, and CPU time grows with them.  Interleaving a
    fixed load with the operations and dividing by its speed cancels
    that: ``factor`` turns CPU seconds into seconds at the reference
    speed, over the whole process or (``factor_near``) around one
    operation.  Calibration runs are placed by ``position``, the
    operation CPU time spent before them."""

    def __init__(self) -> None:
        self.cpu_s = 0.0
        self.units = 0
        self._owed = 0.0
        # per run: position, and running totals of units and CPU time
        self._pos: List[float] = []
        self._cum: List[Tuple[int, float]] = [(0, 0.0)]

    def run(self, seconds: float, position: float = 0.0) -> None:
        """Spend about ``seconds`` of CPU on calibration units (at least
        one), carrying the remainder over to the next call."""
        self._owed += seconds
        while True:
            t0 = clock()
            calibration_unit()
            d = clock() - t0
            self.cpu_s += d
            self.units += 1
            self._owed -= d
            if self._owed <= 0.0:
                break
        self._pos.append(position)
        self._cum.append((self.units, self.cpu_s))

    def owe(self, seconds: float, position: float) -> None:
        """Add to the calibration owed; run it once a unit's worth is
        due, so short operations are not each followed by a unit."""
        self._owed += seconds
        if self._owed >= REF_UNIT_S:
            self.run(0.0, position)

    @property
    def factor(self) -> float:
        return REF_UNIT_S * self.units / self.cpu_s

    def factor_near(self, start: float, end: float) -> float:
        """The factor of the runs placed within ``CAL_WINDOW_S`` of the
        span [start, end] (the whole process's if there are none)."""
        lo = bisect.bisect_left(self._pos, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(self._pos, end + CAL_WINDOW_S)
        units = self._cum[hi][0] - self._cum[lo][0]
        cpu = self._cum[hi][1] - self._cum[lo][1]
        return REF_UNIT_S * units / cpu if units else self.factor


# ----------------------------------------------------------------------
# tracing: spans around the layers' public functions
# ----------------------------------------------------------------------

class Tracer:
    """Wall-time spans keyed by layer name, with self time: a span's
    duration minus the time its nested spans cover."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self._child = [0.0]

    def call(self, name: str, fn: Callable, *args, **kw):
        self._child.append(0.0)
        t0 = clock()
        try:
            return fn(*args, **kw)
        finally:
            d = clock() - t0
            nested = self._child.pop()
            self._child[-1] += d
            self.self_s[name] += d - nested

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kw):
            return self.call(name, fn, *args, **kw)
        return traced


# ----------------------------------------------------------------------
# the pass context: operations, digests, counts
# ----------------------------------------------------------------------

@dataclass
class Op:
    op_id: str
    latency_s: float
    digest: Optional[str]
    error: str = ""


class Pass:
    """State of one pass: the operation log plus simulated-work counts."""

    def __init__(self, size: Size, seed: int, tracer: Optional[Tracer]):
        self.size = size
        self.seed = seed
        self.tracer = tracer
        self.ops: List[Op] = []
        self.instructions = 0
        self.requests = 0
        self.layer: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, list] = defaultdict(list)
        self.paper: Dict[str, list] = {}
        self.cal = Calibration()
        #: operation CPU time so far, and each operation's span in it
        self.op_clock = 0.0
        self.spans: List[Tuple[float, float]] = []

    def op(self, op_id: str, layer: str, fn: Callable, digest: Callable,
           check: Optional[Callable] = None):
        """Issue one operation; an exception, a broken invariant or a
        failed digest leaves ``None`` and a failed :class:`Op`."""
        t0 = clock()
        try:
            if self.tracer is not None:
                result = self.tracer.call(layer, fn)
            else:
                result = fn()
            latency = clock() - t0
            if check is not None:
                check(result)
            self.ops.append(Op(op_id, latency, digest(result)))
            return result
        except Exception as exc:  # one failed operation, not a failed run
            latency = clock() - t0
            self.ops.append(Op(op_id, latency, None,
                               f"{type(exc).__name__}: {exc}"[:300]))
            return None
        finally:
            start = self.op_clock
            self.op_clock += latency
            self.spans.append((start, self.op_clock))
            self.cal.owe(CAL_SHARE * latency, self.op_clock)

    def fail(self, op_id: str, error: str) -> None:
        """Log a failed operation that the simulator never ran."""
        self.ops.append(Op(op_id, 0.0, None, error))
        self.spans.append((self.op_clock, self.op_clock))


# ----------------------------------------------------------------------
# workloads: populations (set-up) and operations (timed phase)
# ----------------------------------------------------------------------

def population(seed: int, names: Sequence[str], tag: str,
               n: Optional[int] = None, scale: float = 0.0):
    """Requests per service drawn fresh from the seed: ``n`` of them, or
    by default the count ``requests_for`` draws at ``scale`` (at least
    two batches' worth)."""
    out = []
    for name in names:
        svc = get_service(name)
        rng = random.Random(sub_seed(seed, tag, name))
        out.append((svc, svc.generate_requests(
            n or default_population(svc, scale), rng)))
    return out


def run_chip_work(p: Pass, pops) -> None:
    """fig19_20_21 shape on CPU, SMT-8, RPU and GPU; records the
    RPU/CPU requests-per-joule and latency ratios per service."""
    tr = p.tracer
    for svc, reqs in pops:
        results = {}
        for label, cfg in CHIP_CONFIGS:
            before = trace_cache.stats() if tr is not None else None
            own0 = tr.self_s["timing"] if tr is not None else 0.0
            r = p.op(f"chip/{svc.name}/{label}", "timing",
                     lambda: timing_mod.run_chip(svc, reqs, cfg), digest_chip)
            if r is None:
                continue
            results[label] = r
            p.instructions += r.scalar_instructions
            p.requests += len(reqs)
            p.samples["timing"].append((svc, reqs, cfg, p.ops[-1]))
            c = r.counters
            for key in ("l1_accesses", "l1_misses", "tlb_accesses",
                        "tlb_misses", "dram_accesses",
                        "l1_bank_conflict_cycles", "mcu_ops"):
                p.layer["memsys." + key] += c[key]
            if tr is not None:
                # run_chip's own time, store I/O excluded, classified by
                # whether it executed a trace or replayed a cached one
                after = trace_cache.stats()
                own = tr.self_s["timing"] - own0
                p.layer[f"timing.{label}_s"] += own
                if after["misses"] > before["misses"]:
                    p.layer["timing.exec_s"] += own
                elif after["hits"] > before["hits"]:
                    p.layer["timing.replay_s"] += own
                    p.layer["timing.replay_inst"] += r.scalar_instructions
        if "cpu" in results and "rpu" in results:
            cpu, rpu = results["cpu"], results["rpu"]
            p.paper.setdefault("chip", [])
            p.paper["chip"].append((
                requests_per_joule(rpu) / requests_per_joule(cpu),
                rpu.avg_latency_cycles / cpu.avg_latency_cycles))


def run_batch_work(p: Pass, pops) -> None:
    """fig04/fig11 shape: 32-request batches under every batching policy
    through ``run_batch``, plus the ``run_solo`` reference."""
    tr = p.tracer
    first = set()
    for svc, reqs in pops:
        for column, batching, policy in BATCH_MODES:
            t0 = clock()
            batches = form_batches(reqs, 32, batching)
            p.layer["batching.form_s"] += clock() - t0
            p.layer["batching.batches"] += len(batches)
            effs = []
            for i, batch in enumerate(batches):
                own0 = tr.self_s["engine"] if tr is not None else 0.0
                r = p.op(f"batch/{svc.name}/{column}/{i}", "engine",
                         lambda: run_batch(svc, batch, policy=policy),
                         digest_lockstep)
                d = p.ops[-1].latency_s
                if r is None:
                    continue
                effs.append(r.simt_efficiency)
                p.instructions += r.scalar_instructions
                p.requests += len(batch)
                p.layer["engine.batch_inst"] += r.scalar_instructions
                if tr is not None:
                    p.layer["engine.batch_s"] += tr.self_s["engine"] - own0
                    if (svc.name, policy) not in first:
                        first.add((svc.name, policy))
                        p.layer["engine.first_call_s"] += d
                p.samples["engine"].append((svc, batch, policy, p.ops[-1]))
            if effs:
                p.paper.setdefault(column, [])
                p.paper[column].append(statistics.fmean(effs))
        own0 = tr.self_s["engine"] if tr is not None else 0.0
        steps = p.op(f"solo/{svc.name}", "engine",
                     lambda: run_solo(svc, reqs), crc)
        d = p.ops[-1].latency_s
        if steps is not None:
            p.instructions += sum(steps)
            p.requests += len(reqs)
            if tr is not None:
                p.layer["engine.solo_s"] += tr.self_s["engine"] - own0
                if (svc.name, "solo") not in first:
                    first.add((svc.name, "solo"))
                    p.layer["engine.first_call_s"] += d


def _check_resolved(payload: dict) -> None:
    if payload["completed"] + payload["violated"] != payload["n"]:
        raise InvariantError(
            f"{payload['n']} requests but {payload['completed']} completed"
            f" + {payload['violated']} violated")


def run_fleet_work(p: Pass) -> None:
    """Fleet cells (shapes x balancers, plus zone failover), a slice of
    the chaos campaign and the fig22 saturation grid."""
    size, seed = p.size, p.seed
    horizon = size.fleet_horizon_us
    orig = fleet_mod._run_shard_cached
    counter = {"i": 0}

    def shard(task):
        # each shard ``run_fleet`` runs is one operation
        counter["i"] += 1
        payload = p.op(f"fleet/{counter['i']}", "system.fleet",
                       lambda: orig(task), digest_payload, _check_resolved)
        if payload is None:
            raise InvariantError(p.ops[-1].error)
        p.requests += payload["completed"] + payload["violated"]
        p.layer["system.resolved"] += payload["completed"] + payload["violated"]
        p.layer["system.offered"] += payload["n"]
        p.layer["system.violated"] += payload["violated"]
        p.layer["system.ejections"] += payload["ejections"]
        p.samples["system"].append((task, p.ops[-1]))
        return payload

    fleet_seed = sub_seed(seed, "fleet")
    cells = []
    # fleet_sweep's offered loads; its "steady" shape is called flat here
    shapes = sweep_shapes(horizon)
    shapes["flat"] = shapes.pop("steady")
    for sname in size.fleet_shapes:
        for bal in size.fleet_balancers:
            cells.append(dict(shape=shapes[sname],
                              fleet=FleetConfig(replicas=3, balancer=bal)))
    # zone_failover's one-zone loss with health-checked failover
    kill = ZoneConfig(racks_per_zone=1, seed=sub_seed(seed, "zone"),
                      planned=((0, 0.3 * horizon, 0.6 * horizon),),
                      horizon_us=horizon)
    for bal in size.zone_balancers:
        cells.append(dict(
            shape=TrafficShape(base_qps=60_000.0), zones=kill,
            resilience=ResilienceConfig(deadline_us=60_000.0, max_retries=3),
            fleet=FleetConfig(replicas=6, rack_size=2, balancer=bal,
                              health_check=True, unhealthy_after=2,
                              health_probe_us=2_000.0)))
    fleet_mod._run_shard_cached = shard
    try:
        for c, cell in enumerate(cells):
            start = counter["i"]
            try:
                run_fleet(horizon_us=horizon, shards=FLEET_SHARDS,
                          seed=fleet_seed, jobs=1, **cell)
            except InvariantError:
                pass  # already logged as a failed shard operation
            ran = counter["i"] - start
            if ran != FLEET_SHARDS:
                # the shards bypassed the hook: their outputs went
                # unchecked, so the cell counts as failed
                p.fail(f"fleet/cell{c}", f"run_fleet ran {ran} shards through "
                       f"_run_shard_cached, expected {FLEET_SHARDS}")
    finally:
        fleet_mod._run_shard_cached = orig

    for i in range(size.chaos_seeds):
        cseed = sub_seed(seed, "chaos", i) % 100_000
        for bal in size.chaos_balancers:
            for resilient in (False, True):
                case = ChaosCase(seed=cseed, balancer=bal,
                                 resilient=resilient)
                payload = p.op(f"chaos/{cseed}/{bal}/{int(resilient)}",
                               "system.chaos", lambda: run_case(case),
                               lambda pl: "%08x" % pl["digest"],
                               _check_resolved)
                if payload is not None:
                    p.requests += payload["n"]
                    p.layer["system.resolved"] += payload["n"]
                    p.layer["system.offered"] += payload["n"]
                    p.layer["system.violated"] += payload["violated"]
                    p.layer["system.ejections"] += payload["ejections"]

    systems = {"cpu": EndToEndConfig(rpu=False),
               "rpu": EndToEndConfig(rpu=True, batch_split=False),
               "rpu_split": EndToEndConfig(rpu=True, batch_split=True)}
    n = size.sat_requests

    def complete(res) -> None:
        if res[0].completed != n:
            raise InvariantError(f"{res[0].completed} of {n} completed")

    for name, cfg in systems.items():
        points = []
        for q in size.sat_qps:
            res = p.op(f"e2e/{name}/{q:g}", "system.e2e",
                       lambda: saturation_sweep(cfg, [q], n_requests=n),
                       lambda r: crc(dataclasses.astuple(r[0])), complete)
            if res is not None:
                points.append(res[0])
                p.requests += res[0].completed
                p.layer["system.resolved"] += res[0].completed
        p.paper[name] = [max_throughput_kqps(points)]


# ----------------------------------------------------------------------
# fidelity against the paper's constants (simulated, deterministic)
# ----------------------------------------------------------------------

def _rel_err(measured: float, paper: float) -> float:
    return abs(measured / paper - 1.0)


def paper_errors(paper: Dict[str, list]) -> Dict[str, float]:
    """Relative error of each headline number this pass produced."""
    out = {}
    if paper.get("chip"):
        ee = statistics.fmean(e for e, _ in paper["chip"])
        lat = statistics.fmean(lt for _, lt in paper["chip"])
        out["rpu_requests_per_joule"] = _rel_err(
            ee, fig19.PAPER["rpu_requests_per_joule"])
        out["rpu_latency"] = _rel_err(lat, fig19.PAPER["rpu_latency"])
    for column, ref in fig04.PAPER_AVERAGES.items():
        if paper.get(column):
            out["simt_" + column] = _rel_err(statistics.fmean(paper[column]),
                                             ref)
    for name, key in (("cpu", "cpu_kqps"), ("rpu", "rpu_kqps"),
                      ("rpu_split", "rpu_kqps")):
        if name in paper:
            out[name + "_max_kqps"] = _rel_err(paper[name][0],
                                               fig22.PAPER[key])
    return out


# ----------------------------------------------------------------------
# isolation guards: cache activity must match the workload's structure
# ----------------------------------------------------------------------

def _rpu_batches(pops) -> int:
    """Batch traces the RPU executes (and the GPU then replays)."""
    total = 0
    for svc, reqs in pops:
        bs = min(svc.recommended_batch, RPU_CONFIG.batch_size)
        total += len(form_batches(reqs, bs, "per_api_size"))
    return total


def check_structure(workload: str, inputs: dict, ops: List[Op],
                    fill: bool = False) -> dict:
    """Raise :class:`GuardError` when the trace-cache or store counts
    show that the pass replayed something its workload must compute, or
    computed something it must replay.  Returns the counts checked."""
    tc = trace_cache.stats()
    st = store_mod.stats()
    seen = {"trace_hits": tc["hits"], "trace_misses": tc["misses"],
            "trace_disk_hits": tc["disk_hits"], "store_hits": st["hits"],
            "store_stores": st["stores"], "store_errors": st["errors"]}
    if any(op.error for op in ops):
        return seen  # a failed operation already fails the run
    want: Dict[str, Callable[[int], bool]] = {"store_errors": lambda v: v == 0}
    if workload != "repeat_warm" or fill:
        # an empty store
        want["store_hits"] = lambda v: v == 0
        if "chip" in inputs:
            # CPU and SMT-8 each execute their own solo traces (their
            # worker pools differ); the GPU replays every RPU batch
            # trace exactly once
            n_batch = _rpu_batches(inputs["chip"])
            n_solo = 2 * len(inputs["chip"])
            want.update(trace_disk_hits=lambda v: v == 0,
                        trace_hits=lambda v: v == n_batch,
                        trace_misses=lambda v: v == n_batch + n_solo)
    else:
        # the filled store answers every run_chip before any trace
        # lookup; compiled grains and memo tables load from it too
        n_chip = len(inputs["chip"]) * len(CHIP_CONFIGS)
        want["store_hits"] = lambda v: v > n_chip
    if "trace_hits" not in want:
        want.update(trace_hits=lambda v: v == 0, trace_misses=lambda v: v == 0)
    bad = {k: seen[k] for k, ok in want.items() if not ok(seen[k])}
    if bad:
        raise GuardError(f"{workload}: cache counts {bad} do not match the "
                         f"workload's structure (all counts: {seen})")
    return seen


# ----------------------------------------------------------------------
# one pass
# ----------------------------------------------------------------------

def make_inputs(workload: str, seed: int, size: Size) -> dict:
    """Set-up: the populations a pass simulates, drawn from ``seed``."""
    if workload == "chip_cold":
        return {"chip": population(seed, size.chip_services, "chip",
                                   scale=size.chip_scale)}
    if workload == "batch_fresh":
        return {"batch": population(seed, size.batch_services, "batch",
                                    size.batch_requests)}
    if workload == "repeat_warm":
        # the same input on every run, as when an experiment is re-run
        return {"chip": population(REPEAT_SEED, size.repeat_chip_services,
                                   "repeat_chip"),
                "batch": population(REPEAT_SEED, size.repeat_batch_services,
                                    "repeat_batch", size.repeat_batch_requests)}
    if workload == "fleet_chaos":
        return {}
    raise ValueError(f"unknown workload {workload!r}")


def run_ops(workload: str, p: Pass, inputs: dict) -> None:
    """The timed phase."""
    if "chip" in inputs:
        run_chip_work(p, inputs["chip"])
    if "batch" in inputs:
        run_batch_work(p, inputs["batch"])
    if workload == "fleet_chaos":
        run_fleet_work(p)


def install_store_spans(tracer: Tracer) -> Callable[[], None]:
    """Time ``repro.store.lookup``/``record`` from outside; returns the
    function that restores them."""
    lookup, record = store_mod.lookup, store_mod.record
    store_mod.lookup = tracer.wrap("store.read", lookup)
    store_mod.record = tracer.wrap("store.write", record)

    def restore() -> None:
        store_mod.lookup, store_mod.record = lookup, record
    return restore


def layer_metrics(p: Pass, tracer: Tracer, f: float) -> Dict[str, float]:
    """The per-layer metrics of a traced pass (0 where a layer is idle),
    host times at the reference speed (``f`` is the pass's factor)."""
    L = p.layer
    for key in [k for k in L if k.endswith("_s")]:
        L[key] *= f
    spans = {k: v * f for k, v in tracer.self_s.items()}
    tc = trace_cache.stats()
    st = store_mod.stats()
    memo_hits = sum(t.hits for t in memo._TABLES.values())
    memo_all = memo_hits + sum(t.misses for t in memo._TABLES.values())
    bs = lanes.BOUNDED_STATS
    ratio = (lambda a, b: a / b if b else 0.0)
    out = {
        "timing.exec_s": L["timing.exec_s"],
        "timing.replay_s": L["timing.replay_s"],
        "timing.cpu_s": L["timing.cpu_s"],
        "timing.smt8_s": L["timing.smt8_s"],
        "timing.rpu_s": L["timing.rpu_s"],
        "timing.gpu_s": L["timing.gpu_s"],
        "timing.replay_ns_per_inst": ratio(L["timing.replay_s"] * 1e9,
                                           L["timing.replay_inst"]),
        "memsys.l1_accesses": L["memsys.l1_accesses"],
        "memsys.l1_miss_ratio": ratio(L["memsys.l1_misses"],
                                      L["memsys.l1_accesses"]),
        "memsys.tlb_miss_ratio": ratio(L["memsys.tlb_misses"],
                                       L["memsys.tlb_accesses"]),
        "memsys.dram_accesses": L["memsys.dram_accesses"],
        "memsys.bank_conflict_cycles": L["memsys.l1_bank_conflict_cycles"],
        "memsys.mcu_ops": L["memsys.mcu_ops"],
        "trace_cache.hit_ratio": ratio(tc["hits"], tc["hits"] + tc["misses"]),
        "trace_cache.held_events": tc["held_events"],
        "engine.batch_s": L["engine.batch_s"],
        "engine.solo_s": L["engine.solo_s"],
        "engine.batch_minst_per_s": ratio(L["engine.batch_inst"] / 1e6,
                                          L["engine.batch_s"]),
        "engine.first_call_s": L["engine.first_call_s"],
        "engine.memo_hit_ratio": ratio(memo_hits, memo_all),
        "engine.bounded_share": ratio(bs["vector"],
                                      bs["vector"] + bs["scalar"]),
        "engine.simt_eff_minsp": (statistics.fmean(p.paper["api_size_minsp"])
                                  if p.paper.get("api_size_minsp") else 0.0),
        "batching.form_s": L["batching.form_s"],
        "batching.batches": L["batching.batches"],
        "store.read_s": spans.get("store.read", 0.0),
        "store.write_s": spans.get("store.write", 0.0),
        "store.hit_ratio": ratio(st["hits"], st["hits"] + st["misses"]),
        "store.bytes_read_mb": st["bytes_read"] / 1e6,
        "store.bytes_written_mb": st["bytes_written"] / 1e6,
        "store.errors": st["errors"],
        "system.fleet_s": spans.get("system.fleet", 0.0),
        "system.chaos_s": spans.get("system.chaos", 0.0),
        "system.e2e_s": spans.get("system.e2e", 0.0),
        "system.host_us_per_req": ratio(
            1e6 * (spans.get("system.fleet", 0.0)
                   + spans.get("system.chaos", 0.0)
                   + spans.get("system.e2e", 0.0)), L["system.resolved"]),
        "system.requests": L["system.resolved"],
        "system.violated_frac": ratio(L["system.violated"],
                                      L["system.offered"]),
        "system.ejections": L["system.ejections"],
    }
    ee = [e for e, _ in p.paper.get("chip", [])]
    lat = [lt for _, lt in p.paper.get("chip", [])]
    out["energy.rpu_req_per_j_gain"] = statistics.fmean(ee) if ee else 0.0
    out["timing.rpu_latency_ratio"] = statistics.fmean(lat) if lat else 0.0
    return out


def _materialized_chip(svc, reqs, cfg) -> str:
    return digest_chip(timing_mod.run_chip(svc, reqs, cfg, streaming=False))


def _interpreted_batch(svc, batch, policy) -> str:
    return digest_lockstep(run_batch(svc, batch, policy=policy,
                                     fastpath=False))


def _heap_shard(task) -> str:
    os.environ["REPRO_WHEEL"] = "0"
    try:
        return digest_payload(run_fleet_shard(task))
    finally:
        del os.environ["REPRO_WHEEL"]


def differential(workload: str, p: Pass, seed: int) -> List[Op]:
    """Re-run one sampled operation per exercised layer on its reference
    path and compare digests: the materialized timing path, the
    reference interpreter, and the heap scheduler."""
    rng = random.Random(sub_seed(seed, "differential", workload))
    checks: List[Tuple[str, Callable[[], str], Op]] = []
    if p.samples["timing"]:
        svc, reqs, cfg, op = rng.choice(p.samples["timing"])
        checks.append((f"diff/streaming=False/{op.op_id}", partial(
            _materialized_chip, svc, reqs, cfg), op))
    if p.samples["engine"]:
        svc, batch, policy, op = rng.choice(p.samples["engine"])
        checks.append((f"diff/fastpath=False/{op.op_id}", partial(
            _interpreted_batch, svc, batch, policy), op))
    if p.samples["system"]:
        task, op = rng.choice(p.samples["system"])
        checks.append((f"diff/REPRO_WHEEL=0/{op.op_id}", partial(
            _heap_shard, task), op))
    out = []
    for op_id, fn, ref in checks:
        t0 = clock()
        try:
            got = fn()
            err = "" if got == ref.digest else (
                f"reference path digest {got} != fast path {ref.digest}")
        except Exception as exc:
            got, err = None, f"{type(exc).__name__}: {exc}"[:300]
        out.append(Op(op_id, clock() - t0, got, err))
    return out


def set_up(workload: str, seed: int, size: Size):
    """The inputs, the time generating them took, and the process's CPU
    seconds so far (interpreter, imports, inputs), both times at the
    reference speed."""
    t0 = clock()
    inputs = make_inputs(workload, seed, size)
    gen_s = clock() - t0
    setup_s = clock()
    cal = Calibration()
    cal.run(SETUP_CAL_S)
    return inputs, gen_s * cal.factor, setup_s * cal.factor


def run_pass(workload: str, seed: int, size_name: str = "full",
             traced: bool = False, diff: bool = False,
             fill: bool = False) -> dict:
    """Set up and run one pass in this process; returns its record."""
    size = SIZES[size_name]
    inputs, gen_s, setup_s = set_up(workload, seed, size)
    tracer = Tracer() if traced else None
    restore = install_store_spans(tracer) if tracer is not None else None
    p = Pass(size, seed, tracer)
    try:
        t0, w0 = clock(), time.perf_counter()
        run_ops(workload, p, inputs)
        cpu_s = clock() - t0 - p.cal.cpu_s
        wall_s = time.perf_counter() - w0 - p.cal.cpu_s
    finally:
        if restore is not None:
            restore()
    counts = check_structure(workload, inputs, p.ops, fill)
    # host times at the reference speed; the raw ones are kept beside
    f = p.cal.factor
    rec = {
        "workload": workload, "seed": seed, "size": size_name,
        "traced": traced, "cpu_s": cpu_s * f, "setup_s": setup_s,
        "raw_cpu_s": cpu_s, "raw_wall_s": wall_s, "speed_factor": f,
        "ops": [(op.op_id, op.latency_s * p.cal.factor_near(*span),
                 op.digest, op.error) for op, span in zip(p.ops, p.spans)],
        "instructions": p.instructions, "requests": p.requests,
        "paper_errors": paper_errors(p.paper), "cache_counts": counts,
    }
    if tracer is not None:
        layers = layer_metrics(p, tracer, f)
        layers["workloads.gen_s"] = gen_s
        rec["layers"] = layers
    if diff:
        rec["differential"] = [dataclasses.astuple(op)
                               for op in differential(workload, p, seed)]
    rec["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--out", required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--differential", action="store_true")
    ap.add_argument("--fill", action="store_true",
                    help="the set-up pass that fills repeat_warm's store")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up; record only setup_s")
    args = ap.parse_args(argv)
    try:
        if args.setup_only:
            _inputs, _gen_s, setup_s = set_up(args.workload, args.seed,
                                              SIZES[args.size])
            rec = {"setup_s": setup_s}
        else:
            rec = run_pass(args.workload, args.seed, args.size, args.traced,
                           args.differential, args.fill)
    except GuardError as exc:
        print(f"isolation guard: {exc}", file=sys.stderr)
        return 3
    with open(args.out, "w") as fh:
        json.dump(rec, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
