"""Batch/solo execution harness used by experiments, tests and timing.

``run_batch`` stands in for "the server launched a batch on one RPU
core"; ``run_solo`` is the MIMD CPU reference execution of the same
requests.  Both build a fresh shared memory image per batch (each batch
is an independent set of requests against the same service state).

``run_batch_tasks`` is the multiprocessing sweep driver: it fans a list
of self-describing :class:`BatchTask` items across worker processes.
Tasks carry their own seeds, so a parallel sweep is bit-identical to a
serial one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..engine.events import LockstepResult, StepSink
from ..engine.lockstep import (
    IpdomExecutor,
    MinSpPcExecutor,
    PredicatedExecutor,
    SoloExecutor,
)
from ..engine.memory import MemoryImage
from ..engine.thread import ThreadState
from ..memsys.alloc import BaseAllocator, SimrAwareAllocator
from ..workloads.base import Microservice, Request


def prepare_threads(
    service: Microservice,
    requests: Sequence[Request],
    mem: MemoryImage,
    allocator: BaseAllocator,
) -> List[ThreadState]:
    """Create and initialize one thread per request (lane order)."""
    shared = service.shared_setup(mem, allocator)
    threads = []
    for lane, req in enumerate(requests):
        t = ThreadState(lane)
        service.setup_thread(t, req, mem, allocator, shared)
        threads.append(t)
    return threads


def run_batch(
    service: Microservice,
    requests: Sequence[Request],
    policy: str = "minsp_pc",
    sink: Optional[StepSink] = None,
    allocator: Optional[BaseAllocator] = None,
    reconv_override: Optional[Dict[int, int]] = None,
    salt: int = 0,
    max_steps: int = 4_000_000,
    fastpath: bool = True,
) -> LockstepResult:
    """Execute one batch of requests in lockstep on one RPU core."""
    if allocator is None:
        allocator = SimrAwareAllocator()
    mem = MemoryImage(salt=salt)
    threads = prepare_threads(service, requests, mem, allocator)
    program = service.program
    if policy == "ipdom":
        ex = IpdomExecutor(program, sink=sink, max_steps=max_steps,
                           reconv_override=reconv_override,
                           fastpath=fastpath)
    elif policy == "minsp_pc":
        ex = MinSpPcExecutor(program, sink=sink, max_steps=max_steps,
                             fastpath=fastpath)
    elif policy == "predicated":
        ex = PredicatedExecutor(program, sink=sink, max_steps=max_steps,
                                reconv_override=reconv_override,
                                fastpath=fastpath)
    else:
        raise ValueError(f"unknown lockstep policy {policy!r}")
    return ex.run(threads, mem)


def run_solo(
    service: Microservice,
    requests: Sequence[Request],
    sink: Optional[StepSink] = None,
    allocator: Optional[BaseAllocator] = None,
    salt: int = 0,
    max_steps: int = 2_000_000,
    fastpath: bool = True,
) -> List[int]:
    """Run each request alone (MIMD CPU reference); returns step counts.

    All requests share one memory image and allocator, mirroring the
    multi-threaded service process on a CPU node.
    """
    if allocator is None:
        allocator = SimrAwareAllocator()
    mem = MemoryImage(salt=salt)
    threads = prepare_threads(service, requests, mem, allocator)
    ex = SoloExecutor(service.program, sink=sink, max_steps=max_steps,
                      fastpath=fastpath)
    return [ex.run(t, mem) for t in threads]


@dataclass(frozen=True)
class BatchTask:
    """One independent (service, batch) simulation of a parallel sweep.

    Carries the service *name* (cheap to pickle; the worker re-resolves
    it) and its own request seed, so results do not depend on which
    worker runs the task or in what order.
    """

    service: str
    n_requests: int
    seed: int
    policy: str = "minsp_pc"
    salt: int = 0
    max_steps: int = 4_000_000


def run_batch_task(task: BatchTask) -> LockstepResult:
    """Worker entry point: materialize and run one :class:`BatchTask`."""
    from ..workloads import get_service

    service = get_service(task.service)
    requests = service.generate_requests(
        task.n_requests, random.Random(task.seed))
    return run_batch(service, requests, policy=task.policy,
                     salt=task.salt, max_steps=task.max_steps)


def run_batch_tasks(tasks: Sequence[BatchTask],
                    jobs: Optional[int] = None) -> List[LockstepResult]:
    """Run independent batch simulations, optionally across processes.

    Results are returned in task order and are bit-identical for any
    ``jobs`` value (each task owns a deterministic seed and a private
    memory image).
    """
    from ..experiments.common import parallel_map

    return parallel_map(run_batch_task, list(tasks), jobs=jobs)
