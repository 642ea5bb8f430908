"""Lightweight runtime invariant checks ("simulation sanitizer").

Enabled by setting ``REPRO_SANITIZE=1`` in the environment.  The hooks
live directly in the hot models - :mod:`repro.engine.lockstep`,
:mod:`repro.batching.driver`, :mod:`repro.memsys.alloc` and
:mod:`repro.system.queueing` - and verify structural invariants that no
ordinary unit assertion sees:

* lockstep: every executed group is an active-mask subset of the alive
  threads of the batch (no halted thread retires, no duplicate lanes),
  all members sit at the scheduled (depth, pc) key, and the final
  ``scalar_instructions`` counter equals the sum of per-thread retire
  deltas;
* RPU driver: ready-queue pops are time-monotonic, ``busy <= makespan``
  and every batch finishes within the makespan;
* allocators: every block stays inside its thread's arena and the
  SIMR-aware allocator really lands on the ``tid % n_banks`` bank;
* queueing simulator: no event is scheduled into the past, stations
  drain completely, every injected job completes exactly once
  (conservation of jobs), and a batched station dispatches each batch
  through exactly one completion-callback object;
* resilience layer (:mod:`repro.system.resilience`): every logical
  request resolves exactly once as completed, shed or
  deadline-violated; every launched attempt - including hedge losers
  and post-resolution stragglers - is accounted exactly once (no job
  leaks across hedge "cancellation", which is really first-wins
  draining); per-request retry/hedge counts stay within their
  configured budgets; completions never predate their arrivals;
* persistent store (:mod:`repro.store`): every freshly written entry
  is immediately read back through the full magic/CRC/unpickle
  validation path (the write path is the one place corruption could be
  *made*), and ``run_chip`` callers vouching for a custom allocator
  via ``allocator_signature`` are checked against the signature the
  factory actually constructs.

The checks are deliberately cheap (a captured local bool per run loop)
so the differential fuzzer (:mod:`repro.fuzz`) and the tier-1 test
suite can both run with the sanitizer on.  Violations raise
:class:`SanitizerError` - a bug in the simulator, never a user error.
"""

from __future__ import annotations

from .config import env_flag


class SanitizerError(AssertionError):
    """An internal simulation invariant was violated (a simulator bug)."""


def sanitizer_enabled() -> bool:
    """True when ``REPRO_SANITIZE=1`` (re-read per call, so tests and
    the fuzz CLI can toggle it without re-importing modules)."""
    return env_flag("REPRO_SANITIZE", False)


def check(cond: bool, msg: str, *args) -> None:
    """Raise :class:`SanitizerError` with ``msg % args`` unless ``cond``."""
    if not cond:
        raise SanitizerError(msg % args if args else msg)
