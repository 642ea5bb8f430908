"""core.run helper tests: thread preparation and batch execution."""

import dataclasses
import random

import pytest

from repro.core import run as core_run
from repro.core.run import prepare_threads, run_batch, run_solo
from repro.engine import MemoryImage
from repro.engine.events import InstructionMixSink
from repro.engine.lockstep import IpdomExecutor
from repro.memsys import SimrAwareAllocator
from repro.workloads import get_service


@pytest.fixture()
def service():
    return get_service("uniqueid")


@pytest.fixture()
def requests(service):
    return service.generate_requests(4, random.Random(0))


def test_prepare_threads_abi(service, requests):
    mem = MemoryImage()
    allocator = SimrAwareAllocator()
    threads = prepare_threads(service, requests, mem, allocator)
    assert [t.tid for t in threads] == [0, 1, 2, 3]
    for t, req in zip(threads, requests):
        assert t.regs[1] == req.api_id
        assert t.regs[2] == req.size
        assert t.regs[3] == req.key
        assert t.regs[4] != 0 and t.regs[5] != 0  # inbuf + scratch
        assert t.regs[6] == threads[0].regs[6]  # shared table
        assert t.request is req


def test_prepare_threads_input_buffer_content(service, requests):
    mem = MemoryImage()
    threads = prepare_threads(service, requests, mem, SimrAwareAllocator())
    for t, req in zip(threads, requests):
        words = mem.read_words(t.regs[4], req.size)
        assert len(words) == req.size


def test_run_batch_rejects_unknown_policy(service, requests):
    with pytest.raises(ValueError):
        run_batch(service, requests, policy="magic")


def test_run_batch_with_sink(service, requests):
    sink = InstructionMixSink()
    result = run_batch(service, requests, sink=sink)
    assert sink.total_batch == result.steps
    assert sink.total_scalar == result.scalar_instructions
    assert "syscall" in sink.scalar_by_class


def test_run_solo_with_sink_accumulates_all_threads(service, requests):
    sink = InstructionMixSink()
    steps = run_solo(service, requests, sink=sink)
    assert sink.total_scalar == sum(steps)


def test_salt_changes_background_data(service, requests):
    a = run_batch(service, requests, salt=1)
    b = run_batch(service, requests, salt=1)
    assert a.steps == b.steps  # deterministic given salt


def _prepared_run_state(service, requests, salt):
    """Set up a batch through the run_batch/run_solo set-up path, run
    it under ipdom and return every observable final state."""
    threads, mem = core_run._prepare_batch(service, requests, salt)
    result = IpdomExecutor(service.program).run(threads, mem)
    return {
        "result": dataclasses.asdict(result),
        "snapshots": [t.snapshot() for t in threads],
        "syscalls": [list(t.syscall_trace) for t in threads],
        "call_stacks": [list(t.call_stack) for t in threads],
        "memory": {a: mem.read(a) for a in sorted(mem.written_addresses())},
    }


def test_setup_cache_off_matches_default(monkeypatch):
    """A set-up copied from the template cache runs to exactly the
    state a fresh set-up (``REPRO_SETUP_CACHE=0``) does."""
    service = get_service("post")
    requests = service.generate_requests(12, random.Random(321))
    monkeypatch.delenv("REPRO_SETUP_CACHE", raising=False)
    _prepared_run_state(service, requests, salt=11)  # fills the template
    assert core_run._SETUP_TEMPLATES[service]
    cached = _prepared_run_state(service, requests, salt=11)
    monkeypatch.setenv("REPRO_SETUP_CACHE", "0")
    assert _prepared_run_state(service, requests, salt=11) == cached
