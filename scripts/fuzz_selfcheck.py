"""Mutation sanity check for the differential fuzzing oracle.

A differential oracle that never fires is indistinguishable from one
that cannot fire.  This script proves the oracle's teeth by seeding one
bug into each engine and confirming the oracle detects every one:

* fast path only: ``decode._BIN_OPS["sub"]`` compiled as ``+`` (the
  reference interpreter is untouched);
* vector engine only: ``vcodegen._BIN_OPS`` rebound to a copy with
  ``sub`` as ``+``, so the solo and sink-attached paths stay correct
  and only the no-sink batch engine is wrong.  It runs with
  ``REPRO_CACHE=0``, so the generated source cannot come from the
  store and the sanitizer's cached-source comparison cannot be what
  catches it: detection has to come from the fast-vs-reference diff;
* reference only: ``interpreter._COND["ble"]`` evaluated as ``<`` (the
  decoder compiles branch conditions from its own table);
* batching layer only: a policy that silently drops one request from
  its partition (the engines are untouched).

It also proves the ``spin_unbounded`` construct's policy restriction
is *load-bearing*: a spec built around an unbounded-retry spin lock
must run clean under its allowed policies (``solo``, ``minsp_pc``) and
must livelock-truncate under MinSP-PC when the spin-escape hatch is
disabled (``spin_k`` pushed beyond the step budget) - demonstrating
the escape hatch, not luck, is what terminates it.

Every generated program contains a fused ``sub`` and a ``ble`` loop
branch in its prologue precisely so these mutations are detectable on
any spec.  The script also exercises the shrinker and repro-file
round trip on a mutated failure.

Run with ``PYTHONPATH=src python scripts/fuzz_selfcheck.py``; exits
non-zero on any failed expectation.
"""

import contextlib
import os
import random
import sys
import tempfile

os.environ.setdefault("REPRO_SANITIZE", "1")
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import repro.engine.decode as decode
import repro.engine.interpreter as interpreter
import repro.engine.vcodegen as vcodegen
from repro.batching import policies
from repro.engine.lockstep import ExecutionError, MinSpPcExecutor
from repro.engine.memory import MemoryImage
from repro.fuzz.gen import build_program, gen_spec, spec_policies
from repro.fuzz.oracle import (_setup_threads, check_spec, shrink_spec,
                               write_repro)
from repro.sanitize import SanitizerError


def _lossy_naive(requests, batch_size):
    batches = policies.batch_naive(requests, batch_size)
    batches[-1] = batches[-1][:-1]
    return [b for b in batches if b]

N_SPECS = 8
BASE_SEED = 20_240_806


@contextlib.contextmanager
def mutated(table, key, value):
    original = table[key]
    table[key] = value
    try:
        yield
    finally:
        table[key] = original


@contextlib.contextmanager
def vector_only_sub_bug():
    """``sub`` compiled as ``+`` in the vector engine's code generator
    alone, with the persistent store off."""
    original = vcodegen._BIN_OPS
    saved_cache = os.environ.get("REPRO_CACHE")
    vcodegen._BIN_OPS = {**original, "sub": "+"}
    os.environ["REPRO_CACHE"] = "0"
    try:
        yield
    finally:
        vcodegen._BIN_OPS = original
        if saved_cache is None:
            os.environ.pop("REPRO_CACHE", None)
        else:
            os.environ["REPRO_CACHE"] = saved_cache


def main() -> int:
    rng = random.Random(BASE_SEED)
    specs = [gen_spec(rng) for _ in range(N_SPECS)]
    failures = []

    clean = [check_spec(s) for s in specs]
    dirty = [m for ms in clean for m in ms]
    if dirty:
        failures.append(f"clean campaign reported mismatches: {dirty}")
    print(f"clean campaign: {N_SPECS} specs, "
          f"{sum(map(bool, clean))} mismatching (want 0)")

    with mutated(decode._BIN_OPS, "sub", "+"):
        detected = sum(bool(check_spec(s)) for s in specs)
    print(f"fast-path mutation (sub compiled as +): detected on "
          f"{detected}/{N_SPECS} specs (want {N_SPECS})")
    if detected != N_SPECS:
        failures.append("fast-path mutation escaped the oracle")

    with vector_only_sub_bug():
        results = [check_spec(s) for s in specs]
    detected = sum(map(bool, results))
    first = next((ms[0] for ms in results if ms), "none")
    print(f"vector-only mutation (vcodegen sub compiled as +): detected "
          f"on {detected}/{N_SPECS} specs (want {N_SPECS}); first: "
          f"{first}")
    if detected != N_SPECS:
        failures.append("vector-only mutation escaped the oracle")

    with mutated(interpreter._COND, "ble", lambda a, b: a < b):
        detected = sum(bool(check_spec(s)) for s in specs)
        # shrinker + repro round trip on a known failure
        shrunk = shrink_spec(specs[0], budget=60)
        mismatches = check_spec(shrunk)
        if not mismatches:
            failures.append("shrunken spec stopped mismatching")
        if len(shrunk["constructs"]) > len(specs[0]["constructs"]):
            failures.append("shrinker grew the spec")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "repro_selfcheck.py")
            write_repro(shrunk, mismatches, path)
            scope = {}
            with open(path, encoding="utf-8") as f:
                exec(compile(f.read(), path, "exec"),
                     {"__name__": "__repro__"}, scope)
            if scope["SPEC"] != shrunk:
                failures.append("repro file does not round-trip its spec")
    print(f"reference mutation (ble evaluated as <): detected on "
          f"{detected}/{N_SPECS} specs (want {N_SPECS})")
    if detected != N_SPECS:
        failures.append("reference mutation escaped the oracle")

    # spin-escape leg: the unbounded-retry spin construct is (a)
    # restricted to the policies that can terminate it, (b) clean under
    # those policies with the escape hatch at its defaults, and (c)
    # truncated without the hatch - proving the hatch is necessary
    spin_spec = {"seed": 77, "n_threads": 6, "salt": 0,
                 "constructs": [{"kind": "spin_unbounded",
                                 "crit_ops": 2}]}
    if spec_policies(spin_spec) != ("solo", "minsp_pc"):
        failures.append(
            f"spin_unbounded not restricted to solo+minsp_pc "
            f"(got {spec_policies(spin_spec)})")
    spin_mismatches = check_spec(spin_spec)
    if spin_mismatches:
        failures.append(
            f"spin_unbounded spec mismatches under its allowed "
            f"policies: {spin_mismatches}")
    program = build_program(spin_spec)
    mem = MemoryImage(salt=spin_spec["salt"])
    threads = _setup_threads(spin_spec, mem)
    ex = MinSpPcExecutor(program, max_steps=60_000, spin_k=10**9)
    try:
        res = ex.run(threads, mem)
        livelocked = res.truncated and any(not t.halted for t in threads)
    except (ExecutionError, SanitizerError):
        livelocked = True  # step budget blown without global progress
    print(f"spin-escape leg: clean={not spin_mismatches}, "
          f"livelocks without the hatch={livelocked} (want both)")
    if not livelocked:
        failures.append(
            "unbounded spin terminated with the escape hatch disabled "
            "- the spin_unbounded construct no longer needs it")

    with mutated(policies.POLICIES, "naive", _lossy_naive):
        detected = sum(bool(check_spec(s)) for s in specs)
    print(f"batching mutation (naive drops one request): detected on "
          f"{detected}/{N_SPECS} specs (want {N_SPECS})")
    if detected != N_SPECS:
        failures.append("batching mutation escaped the oracle")

    after = [m for s in specs for m in check_spec(s)]
    if after:
        failures.append(f"mutation leaked past restore: {after}")

    for f in failures:
        print(f"SELFCHECK FAIL: {f}")
    print("selfcheck:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
