"""Cross-config trace cache: execute once, time many designs.

Executor traces are a pure function of (service, request population,
schedule policy, allocator behaviour, memory salt, step budget) - the
*timing* configuration plays no part in producing them.  Different chip
designs therefore frequently re-execute identical traces: RPU and GPU
lockstep-execute the same batches under the same policy and allocator,
and solo configs with the same worker pool (CPU and the in-order CPU)
solo-execute the same requests.  CPU and CPU-SMT8 do *not* share solo
traces: the pool size (1 vs 64 workers) decides which stacks and arenas
each request reuses, so it is part of the key.  This module memoizes
traces per process so each distinct execution happens once.

Keys capture everything the trace depends on:

* ``solo``  - (service, request fingerprint, allocator signature,
  salt, max_steps, pool_size); the value is the whole population's
  per-request event streams (solo traces share one memory image and
  worker pool, so individual requests are not independently reusable);
* ``batch`` - (service, batch fingerprint, policy, allocator
  signature, reconvergence override, salt, max_steps); each batch is
  traced with a fresh memory image and allocator, so batches are
  cached independently.

The allocator signature is (type name, n_banks): allocator *behaviour*
is class-determined, so two fresh instances of the same class with the
same bank count produce identical traces.  Callers with bespoke
allocator factories must bypass the cache (``run_chip`` does).

The cache is process-local and in memory only.  Under the fork-based
experiment driver (``repro.experiments.common.parallel_map``) each
worker inherits a copy-on-write snapshot and keeps its own cache from
there - no locking, no cross-process invalidation, and the per-task
config sweeps (the hot reuse pattern) all happen within one worker.
Entries are LRU-evicted once the cache holds more than
``MAX_CACHED_EVENTS`` trace events in total.  Traces are never written
to the persistent store: a repeated ``run_chip`` is answered from its
timed entry there before any trace lookup, so a stored trace would
only serve a rerun after a timing-only source edit, at the price of
writing every trace on every cold run.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple

from .. import store as disk_store
from ..engine.events import LockstepResult
from ..memsys.alloc import BaseAllocator
from ..workloads.base import Microservice, Request

#: total events held before LRU eviction (~a few hundred MB worst case)
MAX_CACHED_EVENTS = 20_000_000


def fingerprint_requests(requests: Sequence[Request]) -> str:
    """Order-sensitive digest of a request population.

    Hashes every field of every request (dataclass repr), so any change
    to the population - count, order, sizes, keys, payloads - produces
    a different key.
    """
    h = hashlib.sha256()
    for r in requests:
        h.update(repr(r).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def allocator_signature(allocator: BaseAllocator) -> Tuple[str, object]:
    return (type(allocator).__name__, getattr(allocator, "n_banks", None))


def solo_key(service: Microservice, requests: Sequence[Request],
             allocator: BaseAllocator, salt: int, max_steps: int,
             pool_size: int) -> tuple:
    return ("solo", service.name, fingerprint_requests(requests),
            allocator_signature(allocator), salt, max_steps, pool_size)


def batch_key(service: Microservice, batch: Sequence[Request],
              policy: str, allocator: BaseAllocator,
              reconv_override: Optional[Dict[int, int]], salt: int,
              max_steps: int) -> tuple:
    reconv = (tuple(sorted(reconv_override.items()))
              if reconv_override else None)
    return ("batch", service.name, fingerprint_requests(batch), policy,
            allocator_signature(allocator), reconv, salt, max_steps)


class TraceCache:
    """LRU cache of immutable trace entries, budgeted by event count."""

    def __init__(self, max_events: int = MAX_CACHED_EVENTS):
        self.max_events = max_events
        self._store: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._sizes: Dict[tuple, int] = {}
        self._held_events = 0
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple):
        entry = self._store.get(key)
        if entry is not None:
            self._store.move_to_end(key)
            self.hits += 1
            return entry
        self.misses += 1
        return None

    def put(self, key: tuple, value: tuple, n_events: int) -> None:
        if key in self._store:
            return
        self._store[key] = value
        self._sizes[key] = n_events
        self._held_events += n_events
        while self._held_events > self.max_events and len(self._store) > 1:
            old_key, _ = self._store.popitem(last=False)
            self._held_events -= self._sizes.pop(old_key)

    def clear(self) -> None:
        self._store.clear()
        self._sizes.clear()
        self._held_events = 0

    def __len__(self) -> int:
        return len(self._store)

    @property
    def held_events(self) -> int:
        return self._held_events


#: process-wide cache instance (copy-on-write inherited by fork workers)
_GLOBAL = TraceCache()


def get_cache() -> TraceCache:
    """The process cache."""
    return _GLOBAL


def clear() -> None:
    _GLOBAL.clear()


def stats() -> Dict[str, int]:
    out = {
        "entries": len(_GLOBAL),
        "held_events": _GLOBAL.held_events,
        "hits": _GLOBAL.hits,
        "misses": _GLOBAL.misses,
        # always 0 (traces never come from disk), read only by simbench's
        # chip_cold isolation guard; drop when the benchmark drops it
        "disk_hits": 0,
    }
    for k, v in disk_store.stats().items():
        out[f"store_{k}"] = v
    return out


def copy_result(result: LockstepResult) -> LockstepResult:
    """Fresh LockstepResult a caller may mutate without corrupting the
    cached entry."""
    return dataclasses.replace(
        result, retired_per_thread=list(result.retired_per_thread))
