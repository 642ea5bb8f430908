"""End-to-end benchmark of the SIMR simulator.

Usage, from the root of a checkout::

    python3 simbench/run.py --workload chip_cold --seed 1 --seconds 20 \\
        --trace 0

Each workload is a single-client closed loop: one process issues the
next simulator call when the previous one returns, with ``jobs=1``.
The timed run repeats an identical *pass* of the workload, each in a
fresh child process (``passes.py``) with an empty store directory, until
``--seconds`` have elapsed, and reports medians over the passes.  Host
times are CPU seconds at a reference host speed: each pass interleaves a
fixed calibration load with its operations and scales its CPU times by
how fast that load ran (``passes.Calibration``), so that other tenants
of a shared host do not show up as a slower simulator.  With
``--trace 1`` it alternates untraced and traced passes instead, reports
the per-layer metrics of the traced ones, the tracing overhead, and a
sampled differential against each layer's reference path.

Every operation's simulated output is checked: against the digests in
``reference.json`` for the recorded seeds, and otherwise against the
run's first pass (replay identity).  An exception, a broken invariant or
a digest mismatch is a failed operation.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (pass times, sample counts, tail percentile, paper-error terms,
the effective environment).  ``--record-reference`` rewrites the
reference digests for the given ``--size``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PASSES = os.path.join(HERE, "passes.py")
REFERENCE = os.path.join(HERE, "reference.json")
WORK = os.path.join(ROOT, ".simbench_work")

WORKLOADS = ("chip_cold", "batch_fresh", "fleet_chaos", "repeat_warm")
DEFAULT_SEED = 1
#: the seed whose digests were recorded but never used while tuning
HELD_OUT_SEED = 97
REFERENCE_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)
#: a pass that takes longer than this is a hang, not a measurement
PASS_TIMEOUT_S = 150
#: set-up is short, so each run samples it in this many extra
#: processes that stop after set-up, besides the passes themselves
SETUP_SAMPLES = 5
#: repeat_warm's store fill is part of its set-up; each run fills this
#: many stores and reports the median fill
FILLS = 3
#: the tail latency is read at the highest percentile with at least
#: this many operations beyond it
TAIL_BEYOND = 10

#: thread pools of numeric libraries pinned to one thread, so a pass
#: never runs more threads than the two the benchmark is sized for
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid measurement."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def check_environment() -> None:
    """Refuse to measure a configuration other than the repo default."""
    stray = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if stray:
        raise BenchError(
            "refusing to run with REPRO_* variables set (the benchmark "
            f"measures the default configuration): {', '.join(stray)}")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no simulator source under {SRC}")


def child_env(store: str) -> Dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["REPRO_CACHE_DIR"] = store
    return env


def spawn(work: str, workload: str, seed: int, size: str, store: str,
          *flags: str) -> dict:
    """Run one pass in a fresh process; returns its record.  ``flags``
    are passes.py's: --traced, --differential, --fill, --setup-only."""
    out = os.path.join(work, "pass.json")
    cmd = [sys.executable, PASSES, "--workload", workload,
           "--seed", str(seed), "--size", size, "--out", out, *flags]
    proc = subprocess.run(cmd, env=child_env(store), cwd=ROOT,
                          stdout=sys.stderr, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited with {proc.returncode}")
    with open(out) as fh:
        rec = json.load(fh)
    os.unlink(out)
    return rec


class Runner:
    """One benchmark run: a private work directory and the passes."""

    def __init__(self, workload: str, seed: int, size: str):
        self.workload, self.seed, self.size = workload, seed, size
        self.work = os.path.join(WORK, f"run-{os.getpid()}")
        self.fill_store: Optional[str] = None
        self.fill_s = 0.0
        self.setup_samples: List[float] = []
        self._n = 0

    def __enter__(self) -> "Runner":
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        try:
            self._set_up()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _set_up(self) -> None:
        self.setup_samples = [
            self._spawn(os.path.join(self.work, "unused-store"),
                        "--setup-only")["setup_s"]
            for _ in range(SETUP_SAMPLES)]
        if self.workload == "repeat_warm":
            # set-up fills the store with an identical pass; every timed
            # pass then reads a private copy of the first one filled
            fills = []
            for i in range(FILLS):
                store = os.path.join(self.work, f"filled-{i}")
                rec = self._spawn(store, "--fill")
                fills.append(rec["setup_s"] + rec["cpu_s"])
                if i == 0:
                    self.fill_store = store
                else:
                    shutil.rmtree(store)
            self.fill_s = statistics.median(fills)

    def _spawn(self, store: str, *flags: str) -> dict:
        return spawn(self.work, self.workload, self.seed, self.size, store,
                     *flags)

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run is using it, or it holds other runs

    def run_pass(self, traced: bool = False,
                 differential: bool = False) -> dict:
        self._n += 1
        store = os.path.join(self.work, f"store-{self._n}")
        if self.fill_store is not None:
            shutil.copytree(self.fill_store, store)
        else:
            os.makedirs(store)
        flags = ["--traced"] if traced else []
        if differential:
            flags.append("--differential")
        try:
            return self._spawn(store, *flags)
        finally:
            shutil.rmtree(store, ignore_errors=True)


# ----------------------------------------------------------------------
# checking outputs
# ----------------------------------------------------------------------

def load_reference(size: str, workload: str, seed: int
                   ) -> Optional[Dict[str, str]]:
    try:
        with open(REFERENCE) as fh:
            ref = json.load(fh)
    except FileNotFoundError:
        return None
    return ref.get(size, {}).get(workload, {}).get(str(seed))


def check_ops(recs: List[dict], ref: Optional[Dict[str, str]]
              ) -> Tuple[int, List[str]]:
    """The operations attempted, and those that failed: raised, broke an
    invariant, produced a digest other than the reference's (or, without
    one, the first pass's), or were never issued although the reference
    has them."""
    if ref is None:
        ref = {op_id: digest for op_id, _lat, digest, _err
               in recs[0]["ops"]}
    attempted, bad = 0, []
    for rec in recs:
        issued = set()
        for op_id, _lat, digest, err in rec["ops"]:
            issued.add(op_id)
            if err:
                bad.append(f"{op_id}: {err}")
            elif ref.get(op_id) != digest:
                bad.append(f"{op_id}: digest {digest} != reference "
                           f"{ref.get(op_id)}")
        missing = sorted(set(ref) - issued)
        bad.extend(f"{op_id}: not issued" for op_id in missing)
        for op_id, _lat, _digest, err in rec.get("differential", []):
            if err:
                bad.append(f"{op_id}: {err}")
        attempted += (len(rec["ops"]) + len(missing)
                      + len(rec.get("differential", [])))
    return attempted, bad


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def tail(values: List[float]):
    """Mean of the samples beyond the highest percentile with at least
    ``TAIL_BEYOND`` samples beyond it, and that percentile.

    The mean rather than the value at the percentile: operation costs
    are spread over orders of magnitude, and when the percentile falls
    between two clusters (chip_cold's ten leaf-service calls and the
    rest) its value jumps with the smallest change of one operation."""
    s = sorted(values)
    idx = max(0, len(s) - 1 - TAIL_BEYOND)
    beyond = s[idx + 1:] or s[-1:]  # too few samples: the maximum
    return statistics.fmean(beyond), 100.0 * (idx + 1) / len(s)


def op_latencies(recs: List[dict]) -> Dict[str, float]:
    """Each operation's median latency over the run's passes.  Every pass
    issues the same operations, so each counts once however many passes
    the run fits."""
    by_op: Dict[str, List[float]] = {}
    for rec in recs:
        for op_id, lat, _digest, _err in rec["ops"]:
            by_op.setdefault(op_id, []).append(lat)
    return {op_id: statistics.median(v) for op_id, v in by_op.items()}


def end_to_end(workload: str, recs: List[dict], setup_samples: List[float],
               fill_s: float, attempted: int, failed: int
               ) -> Tuple[Dict[str, float], dict]:
    """Host times are CPU seconds at the reference host speed (see
    passes.Calibration); the passes' raw CPU and wall times are in the
    detail."""
    lat_ms = [lat * 1e3 for lat in op_latencies(recs).values()]
    tail_ms, tail_pct = tail(lat_ms)
    if workload == "fleet_chaos":
        # no instructions are simulated here: the work unit of the
        # throughput metric is a resolved request
        minst = [r["requests"] / 1e6 / r["cpu_s"] for r in recs]
    else:
        minst = [r["instructions"] / 1e6 / r["cpu_s"] for r in recs]
    errs = recs[0]["paper_errors"]
    metrics = {
        "cpu_s": statistics.median(r["cpu_s"] for r in recs),
        "sim_minst_per_s": statistics.median(minst),
        "sim_kreq_per_s": statistics.median(
            r["requests"] / 1e3 / r["cpu_s"] for r in recs),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail_ms,
        "setup_s": statistics.median(
            setup_samples + [r["setup_s"] for r in recs]) + fill_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in recs),
        "ok_frac": 1.0 - failed / attempted,
        "paper_err_pct": 100.0 * statistics.fmean(errs.values()),
    }
    detail = {
        "passes": len(recs),
        "pass_cpu_s": [r["cpu_s"] for r in recs],
        "pass_raw_cpu_s": [r["raw_cpu_s"] for r in recs],
        "pass_raw_wall_s": [r["raw_wall_s"] for r in recs],
        "pass_speed_factor": [r["speed_factor"] for r in recs],
        "op_samples": len(lat_ms),
        "op_tail_percentile": tail_pct,
        "failed_frac": failed / attempted,
        "paper_errors": errs,
        "setup_samples_s": setup_samples + [r["setup_s"] for r in recs],
        "fill_s": fill_s,
        "cache_counts": recs[0]["cache_counts"],
    }
    return metrics, detail


def per_layer(untraced: List[dict], traced: List[dict]) -> Dict[str, float]:
    names = traced[0]["layers"]
    out = {k: statistics.median(r["layers"][k] for r in traced)
           for k in names}
    out["bench.trace_overhead_pct"] = 100.0 * (
        statistics.median(r["cpu_s"] for r in traced)
        / statistics.median(r["cpu_s"] for r in untraced) - 1.0)
    return out


def environment(size: str) -> dict:
    import numpy

    env = {k: v for k, v in child_env("<per-pass store>").items()
           if k.startswith("REPRO_") or k in THREAD_ENV
           or k == "PYTHONHASHSEED"}
    return {"variables": env, "python": platform.python_version(),
            "numpy": numpy.__version__, "cpus": os.cpu_count(),
            "size": size, "jobs": 1}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str) -> dict:
    spec = load_spec()
    ref = load_reference(size, workload, seed)
    with Runner(workload, seed, size) as runner:
        t0 = time.time()
        untraced: List[dict] = []
        traced: List[dict] = []
        # start another round only if it is expected to end in time
        while not untraced or (time.time() - t0) * (
                len(untraced) + 1) / len(untraced) <= seconds:
            untraced.append(runner.run_pass())
            if trace:
                traced.append(runner.run_pass(traced=True,
                                              differential=not traced))
        fill_s, setup_samples = runner.fill_s, runner.setup_samples
    recs = untraced + traced
    attempted, bad = check_ops(recs, ref)
    metrics, detail = end_to_end(workload, untraced, setup_samples, fill_s,
                                 attempted,                                 len(bad))
    detail.update(workload=workload, seed=seed, checked_against=(
        "reference digests" if ref is not None else "first pass"),
        failures=bad[:20], environment=environment(size))
    if trace:
        values = per_layer(untraced, traced)
        section = spec["per_layer"]
        detail["differential"] = [op[0] for r in traced
                                  for op in r.get("differential", [])]
        digests = [[op[2] for op in r["ops"]] for r in recs]
        detail["traced_digests_match"] = all(d == digests[0]
                                             for d in digests)
    else:
        values = metrics
        section = spec["end_to_end"]
    result = {
        "correct": not bad,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in section},
    }
    return {"detail": detail, "result": result}


def record_reference(size: str) -> None:
    """Rewrite the reference digests of ``size`` from one pass per
    workload and reference seed."""
    try:
        with open(REFERENCE) as fh:
            ref = json.load(fh)
    except FileNotFoundError:
        ref = {}
    ref[size] = {}
    for workload in WORKLOADS:
        ref[size][workload] = {}
        for seed in REFERENCE_SEEDS:
            with Runner(workload, seed, size) as runner:
                rec = runner.run_pass()
            _attempted, bad = check_ops([rec], None)
            if bad:
                raise BenchError(f"cannot record {workload}/{seed}: {bad[0]}")
            ref[size][workload][str(seed)] = {
                op_id: digest for op_id, _l, digest, _e in rec["ops"]}
            print(f"recorded {size}/{workload}/{seed}: {len(rec['ops'])} "
                  "operations", file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="End-to-end benchmark of the SIMR simulator.")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is the smoke size of the benchmark's tests")
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite reference.json for --size and exit")
    args = ap.parse_args(argv)
    try:
        check_environment()
        if args.record_reference:
            record_reference(args.size)
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        seconds = (load_spec()["run_seconds"] if args.seconds is None
                   else args.seconds)
        out = measure(args.workload, args.seed, seconds, bool(args.trace),
                      args.size)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"simbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": out["detail"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
