"""Lockstep (SIMT) and solo executors.

Two reconvergence policies from the paper are implemented:

* **ipdom** — the "ideal" stack-based policy of contemporary GPUs: on a
  divergent branch the executor pushes both sides bounded by the
  branch's immediate post-dominator (computed from the CFG) and runs
  them serially until they reconverge.  Supports *speculative
  reconvergence* overrides (paper Section III-B1, used for
  HDSearch-midtier) via ``reconv_override``.

* **minsp_pc** — the stack-less heuristic the RPU hardware uses: every
  step the hardware groups threads by (call depth, pc) and selects the
  deepest call first (MinSP), breaking ties toward the lowest pc
  (MinPC).  A spin-lock escape hatch rotates selection away from a
  group that keeps re-executing atomics without global progress,
  mirroring the paper's k-cycle / b-atomics multipath rule.

Every executor has two execution engines:

* the **reference engine** — the original, obviously-correct loops
  built on :func:`repro.engine.interpreter.execute`.  Used when
  ``fastpath=False`` is requested; it is the oracle the fast paths are
  differentially tested against.

* the **fast-path engine**, one per situation: batch executors
  without a sink run the vectorized structure-of-arrays engine
  (:mod:`repro.engine.vector`); solo execution and every executor with
  a sink attached run pre-decoded handler dispatch plus superblock
  fusion (:mod:`repro.engine.decode`), the sink variants through the
  *tracing* handlers, which record ``(tid, addr, size)`` tuples inline.
  Each is required to leave architectural state, every
  :class:`LockstepResult` counter *and* the emitted event stream
  bit-identical to the reference engine;
  ``tests/test_differential_fastpath.py`` and the fuzz oracle enforce
  this over all 15 workloads and all policies, sink present or not.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..isa.cfg import ControlFlowGraph
from ..isa.instructions import Instruction, OpClass
from ..isa.program import Program
from ..sanitize import check, sanitizer_enabled
from .decode import RK_BRANCH, RK_CALL, RK_FALL, RK_JUMP, RK_RET
from .events import LockstepResult, StepSink
from .interpreter import execute
from .memory import MemoryImage
from .thread import ThreadState


class ExecutionError(Exception):
    """Raised when lockstep invariants are violated or budgets exceeded."""


#: lazily-imported repro.engine.vector module.  The vector module
#: imports this one at load time (for ExecutionError/_san_result), so
#: the import must be deferred past this module's own initialization.
_VECTOR = None


def _vector():
    global _VECTOR
    if _VECTOR is None:
        from . import vector as _VECTOR_MOD
        _VECTOR = _VECTOR_MOD
    return _VECTOR


def _san_group(name: str, group: Sequence[ThreadState], alive: set,
               pc: int, depth: Optional[int] = None) -> None:
    """Sanitizer: an executed group is an active mask over the batch.

    It must be non-empty, duplicate-free, a subset of the batch's alive
    (non-halted) threads, tid-sorted (execution order contract) and
    every member must sit at the scheduled pc (and call depth, for the
    MinSP-PC keyed schedule).
    """
    check(len(group) > 0, "%s: empty group scheduled at pc %d", name, pc)
    prev_tid = -1
    for t in group:
        check(t.tid in alive,
              "%s: unknown thread %d in group at pc %d", name, t.tid, pc)
        check(t.tid > prev_tid,
              "%s: group not tid-sorted/duplicate tid %d at pc %d",
              name, t.tid, pc)
        prev_tid = t.tid
        check(not t.halted,
              "%s: halted thread %d scheduled at pc %d", name, t.tid, pc)
        check(t.pc == pc,
              "%s: thread %d at pc %d scheduled under pc %d",
              name, t.tid, t.pc, pc)
        if depth is not None:
            check(len(t.call_stack) == depth,
                  "%s: thread %d at depth %d scheduled under depth %d",
                  name, t.tid, len(t.call_stack), depth)


def _san_result(name: str, threads: Sequence[ThreadState], retired0: int,
                scalar: int) -> None:
    """Sanitizer: the scalar-instruction counter must equal the sum of
    per-thread retire deltas (no instruction is counted twice or lost)."""
    delta = sum(t.retired for t in threads) - retired0
    check(delta == scalar,
          "%s: scalar_instructions=%d but threads retired %d",
          name, scalar, delta)


def _tid_key(t: ThreadState) -> int:
    return t.tid


def _regroup_insert(groups: Dict, key, moved: List[ThreadState]) -> None:
    """Insert ``moved`` (tid-sorted) into ``groups[key]``, keeping the
    group list tid-sorted so execution order matches the reference
    engine (which rebuilds groups by iterating threads in tid order)."""
    cur = groups.get(key)
    if cur is None:
        groups[key] = moved
    else:
        cur.extend(moved)
        cur.sort(key=_tid_key)


class SoloExecutor:
    """Runs one thread to completion (the MIMD CPU reference)."""

    def __init__(self, program: Program, sink: Optional[StepSink] = None,
                 max_steps: int = 2_000_000, fastpath: bool = True):
        self.program = program
        self.sink = sink
        self.max_steps = max_steps
        self.fastpath = fastpath
        # run() is called once per thread (not per batch like the
        # lockstep executors), so the env lookup is captured here
        self._san = sanitizer_enabled()

    def run(self, thread: ThreadState, mem: MemoryImage) -> int:
        san = self._san
        retired0 = thread.retired if san else 0
        if not self.fastpath:
            steps = self._run_reference(thread, mem)
        elif self.sink is None:
            steps = self._run_fast(thread, mem)
        else:
            steps = self._run_fast_sink(thread, mem)
        if san:
            _san_result(self.program.name, (thread,), retired0, steps)
        return steps

    def _run_fast(self, thread: ThreadState, mem: MemoryImage) -> int:
        prog = self.program
        decoded = prog.decoded
        handlers = decoded.handlers
        blocks = decoded.solo_blocks
        max_steps = self.max_steps
        steps = 0
        # single-thread execution keeps memory ops in program order no
        # matter how they are batched, so whole basic blocks (terminator
        # included) collapse into one call each
        while not thread.halted:
            b = blocks[thread.pc]
            if b is not None and steps + b[0] <= max_steps:
                b[1](thread, mem)
                steps += b[0]
                continue
            if steps >= max_steps:
                raise ExecutionError(
                    f"{prog.name}: thread {thread.tid} exceeded "
                    f"{max_steps} steps"
                )
            handlers[thread.pc](thread, mem)
            steps += 1
        return steps

    def _run_fast_sink(self, thread: ThreadState, mem: MemoryImage) -> int:
        """Pre-decoded dispatch with per-step event emission.

        Uses the tracing handler table for address recording and the
        register-only superblocks (which produce one empty-addrs event
        per fused pc).  Whole-block solo fusion is not usable here: it
        collapses memory ops whose per-step events a sink must see.
        The ``addrs`` list is reused across steps - sinks must copy it
        (``ListSink`` already tuples it) before returning.
        """
        prog = self.program
        decoded = prog.decoded
        trace_handlers = decoded.trace_handlers
        fused = decoded.superblocks
        insts = prog.instructions
        sink = self.sink
        on_step = sink.on_step
        tid = thread.tid
        max_steps = self.max_steps
        steps = 0
        addrs: List[Tuple[int, int, int]] = []
        while not thread.halted:
            pc = thread.pc
            f = fused[pc]
            if f is not None and steps + f[0] <= max_steps:
                k = f[0]
                f[1](thread)
                del addrs[:]
                for p in range(pc, pc + k):
                    on_step(p, insts[p], 1, addrs, None)
                steps += k
                continue
            if steps >= max_steps:
                raise ExecutionError(
                    f"{prog.name}: thread {thread.tid} exceeded "
                    f"{max_steps} steps"
                )
            del addrs[:]
            taken = trace_handlers[pc](thread, mem, addrs)
            if taken is None:
                on_step(pc, insts[pc], 1, addrs, None)
            else:
                on_step(pc, insts[pc], 1, addrs, ((tid, taken),))
            steps += 1
        sink.on_done()
        return steps

    def _run_reference(self, thread: ThreadState, mem: MemoryImage) -> int:
        prog = self.program
        insts = prog.instructions
        targets = prog.targets
        sink = self.sink
        max_steps = self.max_steps
        steps = 0
        addrs: List[Tuple[int, int, int]] = []
        while not thread.halted:
            if steps >= max_steps:
                raise ExecutionError(
                    f"{prog.name}: thread {thread.tid} exceeded "
                    f"{max_steps} steps"
                )
            pc = thread.pc
            inst = insts[pc]
            addrs.clear()
            taken = execute(thread, inst, targets[pc], mem, addrs)
            if sink is not None:
                outcomes = ((thread.tid, taken),) if taken is not None else None
                sink.on_step(pc, inst, 1, addrs, outcomes)
            steps += 1
        if sink is not None:
            sink.on_done()
        return steps


class _BaseLockstep:
    def __init__(self, program: Program, sink: Optional[StepSink] = None,
                 max_steps: int = 4_000_000, fastpath: bool = True):
        self.program = program
        self.sink = sink
        self.max_steps = max_steps
        self.fastpath = fastpath

    def _emit(self, pc: int, inst: Instruction, group: Sequence[ThreadState],
              mem: MemoryImage) -> Tuple[int, bool]:
        """Execute ``inst`` for every thread in ``group``; returns
        (#active, diverged?) for branch bookkeeping."""
        target = self.program.targets[pc]
        sink = self.sink
        if sink is None:
            # no-sink fast path: no address list, no outcome tuples
            if inst.cls is OpClass.BRANCH:
                outs = [execute(t, inst, target, mem, None) for t in group]
                first = outs[0]
                return len(group), any(o != first for o in outs)
            for t in group:
                execute(t, inst, target, mem, None)
            return len(group), False
        addrs: List[Tuple[int, int, int]] = []
        outcomes: Optional[List[Tuple[int, bool]]] = None
        if inst.cls is OpClass.BRANCH:
            outcomes = []
            for t in group:
                taken = execute(t, inst, target, mem, addrs)
                outcomes.append((t.tid, taken))
        else:
            for t in group:
                execute(t, inst, target, mem, addrs)
        sink.on_step(pc, inst, len(group), addrs, outcomes)
        diverged = False
        if outcomes is not None:
            first = outcomes[0][1]
            diverged = any(o[1] != first for o in outcomes)
        return len(group), diverged


class IpdomExecutor(_BaseLockstep):
    """Stack-based reconvergence at immediate post-dominators."""

    def __init__(self, program: Program, cfg: Optional[ControlFlowGraph] = None,
                 sink: Optional[StepSink] = None, max_steps: int = 4_000_000,
                 reconv_override: Optional[Dict[int, int]] = None,
                 fastpath: bool = True):
        super().__init__(program, sink, max_steps, fastpath)
        self.cfg = cfg if cfg is not None else ControlFlowGraph(program)
        self.reconv_override = reconv_override or {}

    def run(self, threads: Sequence[ThreadState], mem: MemoryImage) -> LockstepResult:
        if not self.fastpath:
            return self._run_reference(threads, mem)
        if self.sink is None:
            return _vector().run_ipdom(self, threads, mem)
        return self._run_fast_sink(threads, mem)

    def _sink_widths(self, n_threads: int) -> Optional[List[int]]:
        """Per-pc event ``active`` width override, or ``None`` to report
        the true group size (:class:`PredicatedExecutor` overrides)."""
        return None

    def _run_fast_sink(self, threads: Sequence[ThreadState],
                       mem: MemoryImage) -> LockstepResult:
        """Pre-decoded dispatch with per-step event emission via the
        tracing handler table.  Must produce the exact event stream of
        `_run_reference` (group order gives address order; superblocks
        expand to one empty-addrs event per fused pc; a fused run may
        end exactly at the reconvergence pc but never crosses it).  The
        ``addrs`` list is reused across steps - sinks must copy what
        they keep.
        """
        prog = self.program
        decoded = prog.decoded
        trace_handlers = decoded.trace_handlers
        fused = decoded.superblocks
        is_branch = decoded.is_branch
        insts = prog.instructions
        reconv_override = self.reconv_override
        cfg = self.cfg
        max_steps = self.max_steps
        end = len(prog)
        sink = self.sink
        on_step = sink.on_step
        widths = self._sink_widths(len(threads))
        san = sanitizer_enabled()
        alive = {t.tid for t in threads} if san else None
        retired0 = sum(t.retired for t in threads) if san else 0
        stack: List[Tuple[List[ThreadState], int]] = [(list(threads), end)]
        steps = 0
        scalar = 0
        branches = 0
        divergent = 0
        truncated = False
        addrs: List[Tuple[int, int, int]] = []

        while stack:
            region, reconv = stack[-1]
            running = [t for t in region if not t.halted and t.pc != reconv]
            if not running:
                stack.pop()
                continue
            if steps >= max_steps:
                truncated = True
                break
            pc = running[0].pc
            for t in running:
                if t.pc != pc:
                    raise ExecutionError(
                        f"{prog.name}: IPDOM invariant broken at pc {pc} "
                        f"vs {t.pc} (irreducible control flow?)"
                    )
            if san:
                _san_group(prog.name, running, alive, pc)
            n = len(running)
            f = fused[pc]
            if f is not None:
                k = f[0]
                if steps + k <= max_steps and not (pc < reconv < pc + k):
                    fn = f[1]
                    for t in running:
                        fn(t)
                    del addrs[:]
                    if widths is None:
                        for p in range(pc, pc + k):
                            on_step(p, insts[p], n, addrs, None)
                    else:
                        for p in range(pc, pc + k):
                            on_step(p, insts[p], widths[p], addrs, None)
                    steps += k
                    scalar += k * n
                    continue
            h = trace_handlers[pc]
            del addrs[:]
            if is_branch[pc]:
                outs = [h(t, mem, addrs) for t in running]
                if widths is None:
                    outcomes = [
                        (t.tid, o) for t, o in zip(running, outs)
                    ]
                    on_step(pc, insts[pc], n, addrs, outcomes)
                else:  # predication: full-width issue, no outcomes
                    on_step(pc, insts[pc], widths[pc], addrs, None)
                steps += 1
                scalar += n
                branches += 1
                first = outs[0]
                diverged = False
                for o in outs:
                    if o != first:
                        diverged = True
                        break
                if diverged:
                    divergent += 1
                    rpc = reconv_override.get(pc)
                    if rpc is None:
                        rpc = cfg.reconvergence_pc(pc)
                    taken_pc = prog.target_of(pc)
                    taken = [t for t in running if t.pc == taken_pc]
                    not_taken = [t for t in running if t.pc != taken_pc]
                    # execute the lower-pc side first (MinPC-style order)
                    first_side, second = (taken, not_taken)
                    if not_taken and taken and not_taken[0].pc < taken_pc:
                        first_side, second = not_taken, taken
                    stack.append((second, rpc))
                    stack.append((first_side, rpc))
            else:
                for t in running:
                    h(t, mem, addrs)
                on_step(pc, insts[pc],
                        n if widths is None else widths[pc], addrs, None)
                steps += 1
                scalar += n

        if san:
            _san_result(prog.name, threads, retired0, scalar)
        sink.on_done()
        return LockstepResult(
            batch_size=len(threads),
            steps=steps,
            scalar_instructions=scalar,
            divergent_branches=divergent,
            branches=branches,
            retired_per_thread=[t.retired for t in threads],
            truncated=truncated,
        )

    def _run_reference(self, threads: Sequence[ThreadState],
                       mem: MemoryImage) -> LockstepResult:
        prog = self.program
        insts = prog.instructions
        end = len(prog)
        max_steps = self.max_steps
        san = sanitizer_enabled()
        alive = {t.tid for t in threads} if san else None
        retired0 = sum(t.retired for t in threads) if san else 0
        # stack entries: (threads_in_region, reconvergence_pc)
        stack: List[Tuple[List[ThreadState], int]] = [(list(threads), end)]
        steps = 0
        scalar = 0
        branches = 0
        divergent = 0
        truncated = False

        while stack:
            region, reconv = stack[-1]
            running = [t for t in region if not t.halted and t.pc != reconv]
            if not running:
                stack.pop()
                continue
            if steps >= max_steps:
                truncated = True
                break
            pc = running[0].pc
            group = running
            for t in group[1:]:
                if t.pc != pc:
                    raise ExecutionError(
                        f"{prog.name}: IPDOM invariant broken at pc {pc} "
                        f"vs {t.pc} (irreducible control flow?)"
                    )
            if san:
                _san_group(prog.name, group, alive, pc)
            inst = insts[pc]
            active, diverged = self._emit(pc, inst, group, mem)
            steps += 1
            scalar += active
            if inst.cls is OpClass.BRANCH:
                branches += 1
                if diverged:
                    divergent += 1
                    rpc = self.reconv_override.get(pc)
                    if rpc is None:
                        rpc = self.cfg.reconvergence_pc(pc)
                    taken_pc = prog.target_of(pc)
                    taken = [t for t in group if t.pc == taken_pc]
                    not_taken = [t for t in group if t.pc != taken_pc]
                    # execute the lower-pc side first (MinPC-style order)
                    first, second = (taken, not_taken)
                    if not_taken and taken and not_taken[0].pc < taken_pc:
                        first, second = not_taken, taken
                    stack.append((second, rpc))
                    stack.append((first, rpc))

        if san:
            _san_result(prog.name, threads, retired0, scalar)
        if self.sink is not None:
            self.sink.on_done()
        return LockstepResult(
            batch_size=len(threads),
            steps=steps,
            scalar_instructions=scalar,
            divergent_branches=divergent,
            branches=branches,
            retired_per_thread=[t.retired for t in threads],
            truncated=truncated,
        )


class MinSpPcExecutor(_BaseLockstep):
    """Stack-less MinSP-PC heuristic with a spin-lock escape hatch.

    If some thread has made no progress for ``spin_k`` steps while an
    atomic was decoded within the last ``spin_b`` steps (the signature
    of other threads spinning on a lock), the scheduler temporarily
    prioritizes the longest-waiting group for ``spin_t`` steps (paper
    Section III-A, SIMT-induced deadlock avoidance).
    """

    def __init__(self, program: Program, sink: Optional[StepSink] = None,
                 max_steps: int = 4_000_000, spin_k: int = 256,
                 spin_b: int = 4, spin_t: int = 32, fastpath: bool = True):
        super().__init__(program, sink, max_steps, fastpath)
        self.spin_k = spin_k
        self.spin_b = spin_b
        self.spin_t = spin_t

    def run(self, threads: Sequence[ThreadState], mem: MemoryImage) -> LockstepResult:
        if not self.fastpath:
            return self._run_reference(threads, mem)
        if self.sink is None:
            return _vector().run_minsp(self, threads, mem)
        return self._run_fast_sink(threads, mem)

    def _run_fast_sink(self, threads: Sequence[ThreadState],
                       mem: MemoryImage) -> LockstepResult:
        """Incremental-grouping fast loop with per-step events via the
        tracing handler table.

        The reference engine rebuilds the (depth, pc) group map from
        scratch every step (O(batch) per issued instruction); here only
        the threads of the executed group are re-keyed.  Group lists
        stay tid-sorted, so the per-step execution order - and
        therefore every racy memory interleaving and the address order
        in every emitted event - matches the reference engine exactly.
        The ``addrs`` list is reused across steps.

        Sinks that *mutate* the batch (append threads mid-run) are
        supported: growth is detected at the top of every scheduling
        iteration.  A thread injected while a fused superblock run is
        being emitted joins after the run completes instead of
        preempting it mid-run; recording sinks (the fuzz oracle's
        bit-identity contract) never mutate, so their event streams are
        unaffected."""
        prog = self.program
        decoded = prog.decoded
        trace_handlers = decoded.trace_handlers
        fused = decoded.superblocks
        rekey = decoded.rekey
        is_atomic = decoded.is_atomic
        insts = prog.instructions
        max_steps = self.max_steps
        spin_k = self.spin_k
        spin_b = self.spin_b
        spin_t = self.spin_t
        sink = self.sink
        on_step = sink.on_step
        san = sanitizer_enabled()
        alive = {t.tid for t in threads} if san else None
        retired0 = sum(t.retired for t in threads) if san else 0

        steps = 0
        scalar = 0
        branches = 0
        divergent = 0
        truncated = False
        addrs: List[Tuple[int, int, int]] = []

        last_atomic_step = -(10**9)
        boost_remaining = 0
        last_executed: Dict[int, int] = {t.tid: 0 for t in threads}

        groups: Dict[Tuple[int, int], List[ThreadState]] = {}
        n_seen = len(threads)
        for t in threads:  # tid order -> tid-sorted group lists
            if not t.halted:
                groups.setdefault((-len(t.call_stack), t.pc), []).append(t)

        while True:
            # a sink may append new threads to the batch mid-run (the
            # reference loop picks them up by rebuilding its group map
            # from ``threads`` every step)
            if len(threads) != n_seen:
                for t in threads[n_seen:]:
                    last_executed.setdefault(t.tid, 0)
                    if san:
                        alive.add(t.tid)
                    if not t.halted:
                        _regroup_insert(
                            groups, (-len(t.call_stack), t.pc), [t])
                n_seen = len(threads)
            if not groups:
                break
            if steps >= max_steps:
                truncated = True
                break

            if boost_remaining > 0 and len(groups) > 1:
                boost_remaining -= 1
                # oldest-waiter first; ties resolve to the lowest-tid
                # group, matching the reference engine's insertion order
                key = min(
                    groups,
                    key=lambda k: (
                        min(last_executed[t.tid] for t in groups[k]),
                        groups[k][0].tid,
                    ),
                )
            else:
                key = min(groups)  # deepest call, then lowest pc

            group = groups.pop(key)
            pc = key[1]
            if san:
                _san_group(prog.name, group, alive, pc, depth=-key[0])

            n = len(group)
            f = fused[pc]
            if (f is not None
                    and steps + f[0] <= max_steps
                    and steps + 1 - last_atomic_step > spin_b
                    and (boost_remaining == 0 or not groups)):
                k = f[0]
                fusable = True
                if groups:
                    depth = key[0]
                    hi = pc + k
                    for d2, p2 in groups:
                        if d2 == depth and pc < p2 < hi:
                            fusable = False
                            break
                if fusable:
                    fn = f[1]
                    for t in group:
                        fn(t)
                    del addrs[:]
                    for p in range(pc, pc + k):
                        on_step(p, insts[p], n, addrs, None)
                    steps += k
                    scalar += k * n
                    for t in group:
                        last_executed[t.tid] = steps
                    _regroup_insert(groups, (key[0], pc + k), group)
                    continue

            h = trace_handlers[pc]
            rk = rekey[pc]
            kind = rk[0]
            outs = None
            uniform = True
            del addrs[:]
            if kind == RK_BRANCH:
                outs = [h(t, mem, addrs) for t in group]
                on_step(pc, insts[pc], n, addrs,
                        [(t.tid, o) for t, o in zip(group, outs)])
                branches += 1
                first = outs[0]
                for o in outs:
                    if o != first:
                        uniform = False
                        divergent += 1
                        break
            else:
                for t in group:
                    h(t, mem, addrs)
                on_step(pc, insts[pc], n, addrs, None)
            steps += 1
            scalar += n
            for t in group:
                last_executed[t.tid] = steps
            if is_atomic[pc]:
                last_atomic_step = steps

            # Spin-lock escape (see _run_reference); the popped group
            # counts toward the reference's len(groups) > 1 condition,
            # so the remaining map only needs to be non-empty.  The
            # cheap atomics-window test goes first: computing the
            # oldest waiter is O(batch).
            if (boost_remaining == 0 and groups
                    and steps - last_atomic_step <= spin_b):
                oldest = min(
                    last_executed[t.tid] for t in threads if not t.halted
                )
                if steps - oldest >= spin_k:
                    boost_remaining = spin_t

            if kind == RK_FALL:
                _regroup_insert(groups, (key[0], pc + 1), group)
            elif kind == RK_BRANCH:
                if uniform:
                    npc = rk[1] if outs[0] else pc + 1
                    _regroup_insert(groups, (key[0], npc), group)
                else:
                    taken = [t for t, o in zip(group, outs) if o]
                    fell = [t for t, o in zip(group, outs) if not o]
                    _regroup_insert(groups, (key[0], rk[1]), taken)
                    _regroup_insert(groups, (key[0], pc + 1), fell)
            elif kind == RK_JUMP:
                _regroup_insert(groups, (key[0], rk[1]), group)
            elif kind == RK_CALL:
                _regroup_insert(groups, (key[0] - 1, rk[1]), group)
            elif kind == RK_RET:
                d2 = key[0] + 1
                buckets: Dict[int, List[ThreadState]] = {}
                for t in group:
                    buckets.setdefault(t.pc, []).append(t)
                for p2, moved in buckets.items():
                    _regroup_insert(groups, (d2, p2), moved)
            # RK_HALT: the whole group halted and leaves the schedule

        if san:
            _san_result(prog.name, threads, retired0, scalar)
        sink.on_done()
        return LockstepResult(
            batch_size=len(threads),
            steps=steps,
            scalar_instructions=scalar,
            divergent_branches=divergent,
            branches=branches,
            retired_per_thread=[t.retired for t in threads],
            truncated=truncated,
        )

    def _run_reference(self, threads: Sequence[ThreadState],
                       mem: MemoryImage) -> LockstepResult:
        prog = self.program
        insts = prog.instructions
        max_steps = self.max_steps
        san = sanitizer_enabled()
        retired0 = sum(t.retired for t in threads) if san else 0
        steps = 0
        scalar = 0
        branches = 0
        divergent = 0
        truncated = False

        last_atomic_step = -(10**9)
        boost_remaining = 0
        # lazily keyed: threads may join mid-run (e.g. a sink spawning
        # work), so unknown tids default to "never executed"
        last_executed: Dict[int, int] = {t.tid: 0 for t in threads}

        while True:
            groups: Dict[Tuple[int, int], List[ThreadState]] = {}
            for t in threads:
                if not t.halted:
                    groups.setdefault((-t.depth, t.pc), []).append(t)
            if not groups:
                break
            if steps >= max_steps:
                truncated = True
                break

            if boost_remaining > 0 and len(groups) > 1:
                boost_remaining -= 1
                key = min(
                    groups,
                    key=lambda k: min(
                        last_executed.get(t.tid, 0) for t in groups[k]
                    ),
                )
            else:
                key = min(groups)  # deepest call, then lowest pc

            group = groups[key]
            pc = group[0].pc
            if san:
                # alive set recomputed per step: a sink may inject new
                # threads into the batch mid-run
                _san_group(prog.name, group, {t.tid for t in threads},
                           pc, depth=-key[0])
            inst = insts[pc]
            active, diverged = self._emit(pc, inst, group, mem)
            steps += 1
            scalar += active
            for t in group:
                last_executed[t.tid] = steps
            if inst.cls is OpClass.BRANCH:
                branches += 1
                if diverged:
                    divergent += 1

            # Spin-lock escape: if some thread has not made progress for
            # spin_k steps while atomics keep being decoded (somebody is
            # spinning on a lock), temporarily prioritize the waiter.
            if inst.cls is OpClass.ATOMIC:
                last_atomic_step = steps
            if boost_remaining == 0 and len(groups) > 1:
                oldest = min(
                    last_executed.get(t.tid, 0)
                    for t in threads if not t.halted
                )
                if (
                    steps - oldest >= self.spin_k
                    and steps - last_atomic_step <= self.spin_b
                ):
                    boost_remaining = self.spin_t

        if san:
            _san_result(prog.name, threads, retired0, scalar)
        if self.sink is not None:
            self.sink.on_done()
        return LockstepResult(
            batch_size=len(threads),
            steps=steps,
            scalar_instructions=scalar,
            divergent_branches=divergent,
            branches=branches,
            retired_per_thread=[t.retired for t in threads],
            truncated=truncated,
        )


class PredicatedExecutor(IpdomExecutor):
    """SPMD-on-SIMD (ISPC-style) execution model (paper Section VI-A).

    Control flow is handled by *predication*: the vector unit issues
    every instruction with all lanes occupied and masks off inactive
    ones, so (a) a step consumes full-batch issue/energy regardless of
    the active mask, and (b) conditional branches become predicate
    computations that never consult the branch predictor.  The
    architectural semantics are identical to IPDOM reconvergence; only
    the event stream the timing/energy models see differs.

    Instructions without a vector equivalent (atomics, system calls,
    call/ret bookkeeping, integer division - the paper counts only 27%
    of scalar x86 ops as vectorizable) are *emulated*: serialized per
    lane with unpack/repack overhead, modelled by inflating their issue
    occupancy by ``emulation_factor``.
    """

    EMULATED_CLASSES = frozenset(
        {OpClass.ATOMIC, OpClass.SYSCALL, OpClass.CALL, OpClass.RET}
    )
    EMULATED_OPS = frozenset({"div", "rem"})

    def __init__(self, *args, emulation_factor: int = 4, **kwargs):
        super().__init__(*args, **kwargs)
        self.emulation_factor = emulation_factor

    def run(self, threads, mem):
        self._full = len(threads)
        return super().run(threads, mem)

    def _sink_widths(self, n_threads):
        # per-pc event width: full-batch issue, inflated for emulated
        # ops (matches _emit; div/rem may sit inside fused superblocks,
        # so the fast path needs the width per pc, not per step)
        factor = self.emulation_factor
        emc = self.EMULATED_CLASSES
        emo = self.EMULATED_OPS
        return [
            n_threads * factor
            if (i.cls in emc or i.op in emo) else n_threads
            for i in self.program.instructions
        ]

    def _emit(self, pc, inst, group, mem):
        target = self.program.targets[pc]
        sink = self.sink
        if sink is None:
            # architecturally identical to the base no-sink path
            if inst.cls is OpClass.BRANCH:
                outs = [execute(t, inst, target, mem, None) for t in group]
                first = outs[0]
                return len(group), any(o != first for o in outs)
            for t in group:
                execute(t, inst, target, mem, None)
            return len(group), False
        addrs = []
        diverged = False
        if inst.cls is OpClass.BRANCH:
            outs = [execute(t, inst, target, mem, addrs) for t in group]
            first = outs[0]
            diverged = any(o != first for o in outs)
        else:
            for t in group:
                execute(t, inst, target, mem, addrs)
        width = self._full
        if (inst.cls in self.EMULATED_CLASSES
                or inst.op in self.EMULATED_OPS):
            width *= self.emulation_factor
        # full-width issue, no branch outcomes (predication)
        sink.on_step(pc, inst, width, addrs, None)
        return len(group), diverged


def make_executor(program: Program, policy: str = "minsp_pc",
                  sink: Optional[StepSink] = None, **kwargs):
    """Factory over the two reconvergence policies (and ``solo``)."""
    if policy == "ipdom":
        return IpdomExecutor(program, sink=sink, **kwargs)
    if policy == "minsp_pc":
        return MinSpPcExecutor(program, sink=sink, **kwargs)
    if policy == "predicated":
        return PredicatedExecutor(program, sink=sink, **kwargs)
    if policy == "solo":
        return SoloExecutor(program, sink=sink, **kwargs)
    raise ValueError(f"unknown policy {policy!r}")
