"""Trace collection: turn executor runs into event streams for timing.

Two sinks share the same executors and the same event tuple
``(pc, inst, active, tuple(addrs), tuple(outcomes) or None)``:

* :class:`ListSink` materializes a run's events (tests, fuzzing, the
  materialized reference path);
* :class:`TimingSink` times a run's events on one context of an
  in-progress :class:`~repro.timing.core.CoreRun`, optionally recording
  them for the trace cache.  Each event tuple is built at most once:
  the recording and a multi-context run's buffer are the same list.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..engine.events import LockstepResult, StepSink
from ..engine.lockstep import (IpdomExecutor, MinSpPcExecutor,
                               PredicatedExecutor, SoloExecutor)
from ..engine.memory import MemoryImage
from ..engine.thread import ThreadState
from ..memsys.alloc import BaseAllocator, SimrAwareAllocator
from ..workloads.base import Microservice, Request
from ..core.run import prepare_threads
from .core import CoreRun, Event


class ListSink(StepSink):
    """Materializes the step stream of one run as a list of events."""

    def __init__(self):
        self.events: List[Event] = []

    def on_step(self, pc, inst, active, addrs, outcomes) -> None:
        self.events.append(
            (pc, inst, active, tuple(addrs),
             tuple(outcomes) if outcomes else None)
        )


class TimingSink(ListSink):
    """Times executor steps on context ``ctx`` of one :class:`CoreRun`.

    On a single-context run the sink's ``on_step`` *is* the run's engine
    function, so every step is timed on arrival with no intermediate
    call: ``run.step`` borrows the executor's reused ``addrs`` list,
    ``run.record`` (``record=True``) first appends the event tuple to
    ``run.events``.  On a multi-context run the sink is a
    :class:`ListSink` whose ``events`` list is the context's buffer,
    timed when the run finishes; that list doubles as the recording, so
    ``record`` changes nothing.  Either way ``run.seal(ctx)`` returns
    the recording once the executor is done.
    """

    def __init__(self, run: CoreRun, ctx: int = 0, record: bool = False):
        if run.single:
            self.on_step = run.record if record else run.step
        else:
            self.events = run.buffer(ctx)


def make_batch_executor(
    service: Microservice,
    policy: str,
    sink: Optional[StepSink],
    reconv_override: Optional[Dict[int, int]],
    max_steps: int,
):
    if policy == "ipdom":
        return IpdomExecutor(service.program, sink=sink, max_steps=max_steps,
                             reconv_override=reconv_override)
    if policy == "predicated":
        return PredicatedExecutor(service.program, sink=sink,
                                  max_steps=max_steps,
                                  reconv_override=reconv_override)
    return MinSpPcExecutor(service.program, sink=sink, max_steps=max_steps)


def run_batch(
    service: Microservice,
    requests: Sequence[Request],
    sink: Optional[StepSink],
    policy: str = "minsp_pc",
    allocator: Optional[BaseAllocator] = None,
    reconv_override: Optional[Dict[int, int]] = None,
    salt: int = 0,
    max_steps: int = 4_000_000,
) -> LockstepResult:
    """Lockstep-execute one batch, driving ``sink`` with its events."""
    mem = MemoryImage(salt=salt)
    allocator = allocator if allocator is not None else SimrAwareAllocator()
    threads = prepare_threads(service, requests, mem, allocator)
    ex = make_batch_executor(service, policy, sink, reconv_override,
                             max_steps)
    return ex.run(threads, mem)


def batch_trace(
    service: Microservice,
    requests: Sequence[Request],
    policy: str = "minsp_pc",
    allocator: Optional[BaseAllocator] = None,
    reconv_override: Optional[Dict[int, int]] = None,
    salt: int = 0,
    max_steps: int = 4_000_000,
) -> Tuple[List[Event], LockstepResult]:
    """Lockstep-execute one batch and return its event trace."""
    sink = ListSink()
    result = run_batch(service, requests, sink, policy=policy,
                       allocator=allocator, reconv_override=reconv_override,
                       salt=salt, max_steps=max_steps)
    return sink.events, result


class SoloRunner:
    """Solo-executes a service's requests over one shared memory image.

    Request ``i`` is served by worker ``i % pool_size``, whose stack and
    heap arena are reused (freed and reallocated) between requests,
    giving consecutive CPU threads the warm-cache behaviour the paper
    notes.  Requests must be run in population order - the shared
    memory image and allocator make each request's trace depend on its
    predecessors.
    """

    def __init__(
        self,
        service: Microservice,
        allocator: Optional[BaseAllocator] = None,
        salt: int = 0,
        max_steps: int = 2_000_000,
        pool_size: int = 1,
    ):
        self.service = service
        self.mem = MemoryImage(salt=salt)
        self.allocator = (allocator if allocator is not None
                          else SimrAwareAllocator())
        self.shared = service.shared_setup(self.mem, self.allocator)
        self.max_steps = max_steps
        self.pool_size = pool_size

    def run_request(self, i: int, request: Request,
                    sink: Optional[StepSink]) -> None:
        worker = i % self.pool_size
        t = ThreadState(worker)
        self.service.setup_thread(t, request, self.mem, self.allocator,
                                  self.shared)
        SoloExecutor(self.service.program, sink=sink,
                     max_steps=self.max_steps).run(t, self.mem)
        self.allocator.free_all(worker)


def solo_traces(
    service: Microservice,
    requests: Sequence[Request],
    allocator: Optional[BaseAllocator] = None,
    salt: int = 0,
    max_steps: int = 2_000_000,
    pool_size: int = 1,
) -> List[List[Event]]:
    """Solo-execute each request; one event stream per request."""
    runner = SoloRunner(service, allocator=allocator, salt=salt,
                        max_steps=max_steps, pool_size=pool_size)
    traces: List[List[Event]] = []
    for i, req in enumerate(requests):
        sink = ListSink()
        runner.run_request(i, req, sink)
        traces.append(sink.events)
    return traces
