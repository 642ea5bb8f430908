"""The vectorized structure-of-arrays engine against its oracle.

The vector engine is the only no-sink batch fast path; the reference
interpreter (``fastpath=False``) is its oracle.  Bit-identity over
every service and policy lives in ``tests/test_differential_fastpath.py``;
this module pins the engine-specific edges: the sanitizer's lane/mask
invariants, step-budget truncation at every grain size, the presence
of the coarse grains, and the content-addressed generated-source cache.
"""

import dataclasses
import random

import pytest

from repro import store
from repro.core.run import prepare_threads
from repro.engine import vcodegen
from repro.engine.lockstep import make_executor
from repro.engine.memory import MemoryImage
from repro.memsys.alloc import SimrAwareAllocator
from repro.sanitize import SanitizerError
from repro.workloads.registry import get_service

#: the branchiest service (calls, divergent ifs, loops) - the one that
#: exercises superblock chains, prefix cuts and matched call/ret elision
SERVICE = "post"
N_REQUESTS = 12
REQUEST_SEED = 321


def _run(policy: str, salt: int = 0, n_requests: int = N_REQUESTS,
         max_steps: int = 4_000_000, fastpath: bool = True):
    """One full batch execution; returns every observable final state."""
    service = get_service(SERVICE)
    requests = service.generate_requests(
        n_requests, random.Random(REQUEST_SEED))
    mem = MemoryImage(salt=salt)
    threads = prepare_threads(service, requests, mem, SimrAwareAllocator())
    ex = make_executor(service.program, policy, max_steps=max_steps,
                       fastpath=fastpath)
    return {
        "result": dataclasses.asdict(ex.run(threads, mem)),
        "snapshots": [t.snapshot() for t in threads],
        "syscalls": [list(t.syscall_trace) for t in threads],
        "call_stacks": [list(t.call_stack) for t in threads],
        "memory": {a: mem.read(a) for a in sorted(mem.written_addresses())},
    }


def _assert_same(a, b):
    assert a["snapshots"] == b["snapshots"]
    assert a["syscalls"] == b["syscalls"]
    assert a["call_stacks"] == b["call_stacks"]
    assert a["memory"] == b["memory"]
    assert a["result"] == b["result"]


@pytest.mark.parametrize("policy", ["ipdom", "minsp_pc", "predicated"])
def test_sanitized_vector_run(policy, monkeypatch):
    """REPRO_SANITIZE=1 turns on the lane/mask/cache invariants; a
    clean engine must pass them and still produce identical state."""
    plain = _run(policy, salt=4)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    _assert_same(plain, _run(policy, salt=4))


@pytest.mark.parametrize("policy", ["ipdom", "minsp_pc"])
@pytest.mark.parametrize("max_steps", [50, 500, 5000])
def test_truncation_matches_scalar_fallback(policy, max_steps):
    """An exhausted step budget must stop the vector engine at exactly
    the state the scalar reference interpreter stops at: superblock
    chains may only be entered when they fit in the remaining budget."""
    vec = _run(policy, salt=5, max_steps=max_steps)
    _assert_same(vec, _run(policy, salt=5, max_steps=max_steps,
                           fastpath=False))


def test_vector_program_has_superblock_grains():
    """The compiled tables for a real service actually contain the
    coarse grains the engine schedules (chains with prefix cuts, blocks,
    ALU runs) - otherwise the other tests only cover single-stepping."""
    vp = get_service(SERVICE).program.vdecoded
    chain_lists = [c for c in vp.chains if c is not None]
    assert chain_lists, "no superblock chains compiled"
    assert any(len(c) > 1 for c in chain_lists), \
        "no entry-depth prefix cuts compiled"
    # every candidate list is longest-first so the engine can take the
    # first legal one
    for cl in chain_lists:
        lens = [c[0] for c in cl]
        assert lens == sorted(lens, reverse=True)
    assert any(b is not None for b in vp.blocks)
    assert any(r is not None for r in vp.runs)


def test_codegen_cache_roundtrip_and_tamper(monkeypatch):
    """The generated source is cached under (engine fingerprint,
    program digest); a warm hit returns identical source, and the
    sanitizer catches a poisoned cache entry."""
    program = get_service(SERVICE).program
    fresh = vcodegen.generate_source(program)
    fp = store.source_fingerprint(vcodegen._CODEGEN_MODULES)
    import sys as _sys
    key = (vcodegen._program_digest(program),
           _sys.implementation.cache_tag)
    store.record("vcode", fp, key, fresh)
    assert store.lookup("vcode", fp, key) == fresh
    # warm compile must agree with the recorded source
    assert vcodegen._cached_source(program, None) == fresh
    # poison the entry (the store is content-addressed, so publishing
    # is a no-op while the good entry exists - drop it first): a plain
    # warm hit trusts the poisoned source, the sanitizer does not
    import os as _os
    path = store.get_store()._path("vcode", store.address("vcode", fp, key))
    _os.unlink(path)
    store.record("vcode", fp, key, fresh + "\n# tampered\n")
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert vcodegen._cached_source(program, None) != fresh
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    with pytest.raises(SanitizerError):
        vcodegen._cached_source(program, None)
    # restore a good entry for any later compile in this store
    _os.unlink(path)
    store.record("vcode", fp, key, fresh)


def test_program_digest_is_content_addressed():
    """Two different programs must not share a cache key."""
    a = get_service(SERVICE).program
    b = get_service("hdsearch-leaf").program
    assert vcodegen._program_digest(a) != vcodegen._program_digest(b)
    assert vcodegen._program_digest(a) == vcodegen._program_digest(a)
