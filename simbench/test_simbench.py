"""Tests of the benchmark itself, at the tiny size.

Run from the repository root with ``python -m pytest simbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

WORKLOADS = run.WORKLOADS


def clean_env(**extra) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(extra)
    return env


def bench(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, os.path.join(cwd, "simbench",
                                                       "run.py"), *args],
                          cwd=cwd, env=env or clean_env(),
                          capture_output=True, text=True, timeout=170)


def tiny_pass(tmp_path, workload, *flags, prelude=""):
    """One tiny pass in a child process; ``prelude`` runs after
    ``passes`` is imported (used to perturb the simulator's output)."""
    out = tmp_path / f"{workload}.json"
    argv = ["--workload", workload, "--seed", "1", "--size", "tiny",
            "--out", str(out), *flags]
    code = (f"import sys; sys.path.insert(0, {HERE!r}); import passes\n"
            f"{prelude}\nsys.exit(passes.main({argv!r}))")
    store = tmp_path / f"store-{workload}"
    if workload == "repeat_warm" and "--fill" not in flags:
        fill = tiny_pass(tmp_path, workload, "--fill")
        assert fill["ops"]
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=clean_env(REPRO_CACHE_DIR=str(store)),
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    with open(out) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_every_workload(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "0",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = run.load_spec()
    section = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    detail = json.loads(lines[-2])["detail"]
    assert detail["checked_against"] == "reference digests"
    if trace:
        assert detail["differential"]


def test_perturbed_output_counts_as_failed(tmp_path):
    prelude = ("orig = passes.timing_mod.run_chip\n"
               "def perturbed(*a, **k):\n"
               "    r = orig(*a, **k)\n"
               "    r.core_cycles += 1.0\n"
               "    return r\n"
               "passes.timing_mod.run_chip = perturbed")
    rec = tiny_pass(tmp_path, "chip_cold", prelude=prelude)
    ref = run.load_reference("tiny", "chip_cold", 1)
    attempted, bad = run.check_ops([rec], ref)
    assert attempted == len(rec["ops"]) and len(bad) == attempted
    metrics, detail = run.end_to_end("chip_cold", [rec], [], 0.0,
                                     attempted, len(bad))
    assert detail["failed_frac"] > 0
    assert metrics["ok_frac"] < 1.0
    clean = tiny_pass(tmp_path, "batch_fresh")
    ref = run.load_reference("tiny", "batch_fresh", 1)
    assert run.check_ops([clean], ref) == (len(clean["ops"]), [])
    # an operation a pass never issues fails too, against the reference
    # and against the run's first pass
    dropped = dict(clean, ops=clean["ops"][1:])
    attempted, bad = run.check_ops([dropped], ref)
    assert attempted == len(clean["ops"])
    assert bad == [f"{clean['ops'][0][0]}: not issued"]
    assert run.check_ops([clean, dropped], None)[1] == bad


def test_fleet_shards_that_bypass_the_hook_fail(tmp_path):
    # run_fleet no longer reaching _run_shard_cached leaves its shards
    # unchecked; every cell then counts as a failed operation
    prelude = ("import repro.system.fleet as f\n"
               "orig = f.run_fleet\n"
               "def bypass(*a, **k):\n"
               "    hook, f._run_shard_cached = f._run_shard_cached, "
               "f.run_fleet_shard\n"
               "    try:\n"
               "        return orig(*a, **k)\n"
               "    finally:\n"
               "        f._run_shard_cached = hook\n"
               "passes.run_fleet = bypass")
    rec = tiny_pass(tmp_path, "fleet_chaos", prelude=prelude)
    ref = run.load_reference("tiny", "fleet_chaos", 1)
    _attempted, bad = run.check_ops([rec], ref)
    cells = [op for op in rec["ops"] if op[0].startswith("fleet/cell")]
    assert cells and all("expected 2" in op[3] for op in cells)
    assert any(b.endswith("not issued") for b in bad)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_digests_agree(tmp_path, workload):
    (tmp_path / "u").mkdir()
    (tmp_path / "t").mkdir()
    plain = tiny_pass(tmp_path / "u", workload)
    traced = tiny_pass(tmp_path / "t", workload, "--traced",
                       "--differential")
    assert [op[:1] + op[2:] for op in plain["ops"]] == \
        [op[:1] + op[2:] for op in traced["ops"]]
    assert "layers" in traced and "layers" not in plain
    assert all(not err for *_rest, err in traced["differential"])


def test_refuses_repro_variables():
    proc = bench("--workload", "chip_cold", "--seconds", "0", "--size",
                 "tiny", env=clean_env(REPRO_MEMO="0"))
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "REPRO_MEMO" in proc.stderr


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "simbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "chip_cold", "--seconds", "0", "--size",
                 "tiny", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
