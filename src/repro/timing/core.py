"""Approximate OoO/in-order scoreboard core model.

One :class:`CoreModel` simulates one core processing one or more
*streams* of trace events (a stream = one hardware context: a CPU
thread, one SMT thread, one RPU batch, or one GPU warp).  The model is
an interval-style approximation of Accel-Sim's extended pipeline:

* the frontend issues ``issue_width`` micro-ops per cycle, shared by
  all contexts (SMT partitioning falls out of round-robin fetch);
* out-of-order contexts start an op when its operands are ready,
  bounded by a per-context ROB window; in-order contexts additionally
  respect program order (GPU);
* a batch op with ``a`` active lanes on ``m`` SIMT lanes occupies
  ``ceil(a/m)`` issue slots (sub-batch interleaving, Fig. 8a);
* branch mispredictions bubble that context's fetch; syscalls
  serialize it; loads go through the full memory hierarchy model.

Two entry points share one event-processing engine:

* :meth:`CoreModel.run` consumes fully materialized event streams
  round-robin (tests, differential checks);
* :meth:`CoreModel.begin` returns a :class:`CoreRun` that accepts
  events *incrementally*, which is how ``run_chip`` streams executor
  events straight into the timing model.  Single-context runs process
  each event as it arrives (the engine function is the executor sink's
  ``on_step`` itself).  Multi-context runs only append events to
  per-context buffers; :meth:`CoreRun.finish` drains them once in
  strict round-robin sweep order - one event per live context per
  sweep - so the issue interleaving, and therefore every cycle and
  counter, is identical to materialize-then-``run`` by construction.

The engine is generated source (the ``decode.py`` idiom): one template
rendered per (config, batched, single-context) with every config
constant folded in, an ``is`` ladder with one branch per
:class:`OpClass`, and - for single-context runs - the context state in
closure cells instead of object attributes.

Counter discipline: every counter the engine touches is run-local.
Integer counters (instruction/slot/RF event counts, scalar instructions
keyed by the class's counter name) are flushed to :class:`Counters`
once per run.  The three cycle-stack float counters accumulate in
locals *seeded from the current Counters value* and are written back
at :meth:`CoreRun.finish`: that is the same addition sequence as
adding to the dict per event, so the sums stay bit-identical (a
reassociated sum - a fresh local added once at the end - would not
be).  Only keys some event touched are written back, in the order the
per-event additions would have created them.  One core runs one
:class:`CoreRun` at a time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..isa.instructions import NUM_REGS, Instruction, OpClass
from .bpred import (
    GsharePredictor,
    MajorityVotePredictor,
    PerThreadVotePredictor,
)
from .config import CoreConfig
from .memhier import Counters, MemoryHierarchy

#: trace event: (pc, inst, active, addrs, outcomes)
Event = Tuple[int, Instruction, int, Sequence, Optional[Sequence]]

#: the per-class scalar-instruction counter names; the engine counts
#: under these keys directly, so folding them into Counters is a copy
_SCALAR_KEY = {cls: f"scalar_{cls.value}" for cls in OpClass}
_MEM_CLASSES = (OpClass.LOAD, OpClass.STORE, OpClass.ATOMIC)
_MEM_SCALAR_KEYS = frozenset(_SCALAR_KEY[c] for c in _MEM_CLASSES)

#: order of the engine's ``cls is X`` tests, commonest first; the order
#: only affects speed (the last class takes the ``else``)
_LADDER = (OpClass.ALU, OpClass.LOAD, OpClass.STORE, OpClass.BRANCH,
           OpClass.CALL, OpClass.RET, OpClass.JUMP, OpClass.MUL,
           OpClass.SIMD, OpClass.ATOMIC, OpClass.SYSCALL, OpClass.FENCE,
           OpClass.NOP, OpClass.HALT)
assert set(_LADDER) == set(OpClass)


@dataclass
class StreamResult:
    start: float
    finish: float
    events: int

    @property
    def cycles(self) -> float:
        return self.finish - self.start


@dataclass
class CoreRunResult:
    start: float
    finish: float
    streams: List[StreamResult]

    @property
    def cycles(self) -> float:
        return self.finish - self.start


class _Context:
    """Per-context pipeline state of a multi-context run."""

    __slots__ = ("reg_ready", "fetch_time", "last_start", "rob",
                 "finish", "events", "icache_credit")

    def __init__(self, now: float):
        self.reg_ready = [now] * NUM_REGS
        self.fetch_time = now
        self.last_start = now
        self.rob: deque = deque()
        self.finish = now
        self.events = 0
        self.icache_credit = 0.0


# ----------------------------------------------------------------------
# engine source
# ----------------------------------------------------------------------

#: names of the per-context state in the template, bound to closure
#: cells (single-context) or ``_Context`` attributes (multi-context)
_SINGLE_STATE = {"credit": "icache_credit", "fetch_time": "fetch_time",
                 "last_start": "last_start", "ctx_finish": "ctx_finish",
                 "observe": "pred_observe", "rob_popleft": "rob_popleft",
                 "rob_append": "rob_append"}
_MULTI_STATE = {"credit": "ctx.icache_credit", "fetch_time": "ctx.fetch_time",
                "last_start": "ctx.last_start", "ctx_finish": "ctx.finish",
                "observe": "pred.observe", "rob_popleft": "rob.popleft",
                "rob_append": "rob.append"}


def _class_branch(cls: OpClass, cfg: CoreConfig, batched: bool) -> List[str]:
    """Execute-stage lines for one op class: set ``finish``, attribute
    its service time to the cycle stack and count its scalar ops."""
    extra = " + (slots - 1)" if batched else ""
    mem = f"mem_access(inst, addrs, start_t, {batched})"
    if cls is OpClass.ALU:
        out = [f"finish = start_t + {cfg.alu_latency}{extra}"]
    elif cls in _MEM_CLASSES:
        out = [f"finish = {mem}"]
    elif cls is OpClass.BRANCH:
        out = [f"finish = start_t + {cfg.alu_latency}{extra}",
               "if outcomes:"]
        if cfg.in_order:
            # no speculation: fetch waits for resolution
            out += ["    {observe}(pc, outcomes)",
                    "    {fetch_time} = finish"]
        else:
            out += ["    if {observe}(pc, outcomes):",
                    f"        bubble = finish + {cfg.branch_penalty}",
                    "        if bubble > {fetch_time}:",
                    "            {fetch_time} = bubble"]
    elif cls is OpClass.MUL:
        out = [f"finish = start_t + {cfg.mul_latency}{extra}"]
    elif cls is OpClass.SIMD:
        out = [f"finish = start_t + {cfg.simd_latency}{extra}"]
    elif cls is OpClass.SYSCALL:
        out = [f"finish = start_t + {cfg.syscall_overhead}",
               "{fetch_time} = finish",  # serializing transition
               "n_syscalls += active"]
    elif cls is OpClass.FENCE:
        out = ["fence_drain = max(rob) if rob else start_t",
               "finish = max(start_t, fence_drain)",
               "{fetch_time} = finish"]
    elif cls is OpClass.CALL or cls is OpClass.RET:
        # return-address push/pop is a stack memory access
        out = ["if addrs:", f"    finish = {mem}",
               "else:", "    finish = start_t + 1"]
    else:  # JUMP / NOP / HALT
        out = ["finish = start_t + 1"]
    # cycle-stack attribution (paper: data center CPUs retire only ~20%
    # of cycles; the rest are stalls)
    stack = "mem_service" if cls in _MEM_CLASSES else "exec_service"
    key = _SCALAR_KEY[cls]
    return out + [f"{stack} += finish - start_t",
                  f"by_cls[{key!r}] = by_cls_get({key!r}, 0) + active"]


def _event_body(cfg: CoreConfig, batched: bool) -> List[str]:
    """Per-event lines (unindented, state names as ``{placeholders}``).

    Config values are folded in as literals (``repr`` round-trips a
    float exactly) and every float operation keeps its operands and
    their order, so folding changes no cycle.
    """
    lanes = cfg.lanes
    issue_step = repr(1.0 / cfg.issue_width)
    out = [
        # instruction-supply stalls (amortized over the batch)
        f"credit = {{credit}} + {cfg.icache_mpki / 1000.0!r}",
        "if credit >= 1.0:",
        "    {credit} = credit - 1.0",
        f"    {{fetch_time}} += {float(cfg.icache_penalty)!r}",
        "    n_icache_stalls += 1",
        "else:",
        "    {credit} = credit",
        "fetch = issue_time",
        "if {fetch_time} > fetch:",
        "    fetch = {fetch_time}",
    ]
    if batched:
        out += [f"slots = 1 if active <= {lanes} else -(-active // {lanes})",
                f"issue_time = fetch + {issue_step} * slots",
                "n_slots += slots"]
    else:  # one slot per op: ``issue_step * 1`` is exact
        out += [f"issue_time = fetch + {issue_step}"]
    out += [
        f"if len(rob) >= {cfg.rob_entries}:",
        "    head = {rob_popleft}()",
        "    if head > fetch:",
        "        fetch = head",
        "srcs = inst.srcs",
        "start_t = fetch",
        "for s in srcs:",
        "    r = dep[s]",
        "    if r > start_t:",
        "        start_t = r",
    ]
    if cfg.in_order:
        out += ["if {last_start} > start_t:",
                "    start_t = {last_start}",
                "{last_start} = start_t"]
    out.append("cls = inst.cls")
    for n, cls in enumerate(_LADDER):
        if n == 0:
            out.append("if cls is ALU:")
        elif n < len(_LADDER) - 1:
            out.append(f"elif cls is {cls.name}:")
        else:
            out.append(f"else:  # {cls.name}")
        out += ["    " + line for line in _class_branch(cls, cfg, batched)]
    out += [
        "dep_wait += start_t - fetch",
        "dst = inst.dst",
        "if dst:",
        "    dep[dst] = finish",
        "    n_rf_writes += active",
        "{rob_append}(finish)",
        "if finish > {ctx_finish}:",
        "    {ctx_finish} = finish",
        "if srcs:",
        "    n_rf_reads += len(srcs) * active",
    ]
    return out


def _engine_source(cfg: CoreConfig, batched: bool, single: bool) -> str:
    """Source of ``_make(start, preds, mem_access, events, dep_wait,
    exec_service, mem_service)``, which returns the run's
    ``(step, record, drain, snapshot)`` closures.

    * ``step(pc, inst, active, addrs, outcomes)`` times one event with
      borrowed ``addrs``/``outcomes`` (single-context only);
    * ``record(...)`` first builds the event tuple and appends it to
      ``events``, then times it (single-context only);
    * ``drain(events)`` times a whole stream (single-context) or
      ``drain(bufs)`` every context's buffer in round-robin sweep order
      (multi-context);
    * ``snapshot()`` returns the run-local accumulators.
    """
    state = _SINGLE_STATE if single else _MULTI_STATE
    body = [line.format(**state) for line in _event_body(cfg, batched)]
    cells = ["issue_time", "n_events", "n_rf_reads", "n_rf_writes",
             "n_icache_stalls", "n_syscalls", "dep_wait", "exec_service",
             "mem_service"]
    if batched:
        cells.append("n_slots")
    if single:
        cells += ["icache_credit", "fetch_time", "ctx_finish"]
        if cfg.in_order:
            cells.append("last_start")
    nonlocal_line = "nonlocal " + ", ".join(cells)

    def indent(lines, n):
        return [" " * n + line for line in lines]

    def snapshot(streams):
        slots = "n_slots" if batched else "n_events"
        return ["", "    def snapshot():",
                f"        return (issue_time, n_events, {slots}, n_rf_reads,"
                " n_rf_writes, n_icache_stalls, n_syscalls, dep_wait,"
                f" exec_service, mem_service, by_cls, {streams})", ""]

    out = [
        "def _make(start, preds, mem_access, events, dep_wait,"
        " exec_service, mem_service):",
        "    issue_time = start",
        "    n_events = n_slots = n_rf_reads = n_rf_writes = 0",
        "    n_icache_stalls = n_syscalls = 0",
        "    by_cls = {}",
        "    by_cls_get = by_cls.get",
    ]
    if single:
        out += [
            "    dep = [start] * NUM_REGS",
            "    rob = deque()",
            "    rob_popleft = rob.popleft",
            "    rob_append = rob.append",
            "    pred_observe = preds[0].observe",
            "    events_append = events.append",
            "    icache_credit = 0.0",
            "    fetch_time = last_start = ctx_finish = start",
            "",
            "    def step(pc, inst, active, addrs, outcomes):",
            "        " + nonlocal_line,
            "        n_events += 1",
            *indent(body, 8),
            "",
            "    def record(pc, inst, active, addrs, outcomes):",
            "        " + nonlocal_line,
            "        addrs = tuple(addrs)",
            "        outcomes = tuple(outcomes) if outcomes else None",
            "        events_append((pc, inst, active, addrs, outcomes))",
            "        n_events += 1",
            *indent(body, 8),
            "",
            "    def drain(stream):",
            "        " + nonlocal_line,
            "        n_events += len(stream)",
            "        for pc, inst, active, addrs, outcomes in stream:",
            *indent(body, 12),
            *snapshot("[(ctx_finish, n_events)]"),
            "    return step, record, drain, snapshot",
        ]
    else:
        out += [
            "    contexts = [_Context(start) for _ in preds]",
            "",
            "    def drain(bufs):",
            "        " + nonlocal_line,
            "        live = []",
            "        for ctx, pred, buf in zip(contexts, preds, bufs):",
            "            if buf:",
            "                ctx.events = len(buf)",
            "                live.append((ctx, pred, buf, ctx.reg_ready,"
            " ctx.rob))",
            "        n_events += sum(len(buf) for buf in bufs)",
            "        done = 0",
            "        for limit in sorted({len(lane[2]) for lane in live}):",
            "            for k in range(done, limit):",
            "                for ctx, pred, buf, dep, rob in live:",
            "                    pc, inst, active, addrs, outcomes = buf[k]",
            *indent(body, 20),
            "            live = [lane for lane in live"
            " if len(lane[2]) > limit]",
            "            done = limit",
            *snapshot("[(c.finish, c.events) for c in contexts]"),
            "    return None, None, drain, snapshot",
        ]
    return "\n".join(out) + "\n"


#: compiled ``_make`` factories per (config, batched, single-context)
_ENGINES: Dict[Tuple[CoreConfig, bool, bool], Callable] = {}


def _engine(cfg: CoreConfig, batched: bool, single: bool) -> Callable:
    key = (cfg, batched, single)
    make = _ENGINES.get(key)
    if make is None:
        namespace = {
            "NUM_REGS": NUM_REGS, "deque": deque, "_Context": _Context,
            **{cls.name: cls for cls in OpClass},
        }
        kind = ("batched" if batched else "scalar",
                "single" if single else "multi")
        code = compile(_engine_source(cfg, batched, single),
                       f"<timing:{cfg.name}:{':'.join(kind)}>", "exec")
        exec(code, namespace)
        make = _ENGINES[key] = namespace["_make"]
    return make


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------

class CoreRun:
    """One in-progress core run fed events incrementally.

    Produced by :meth:`CoreModel.begin`.  Events reach context ``ctx``
    through :meth:`feed` (one event), :meth:`replay` (a recorded
    stream) or a :class:`~repro.timing.streams.TimingSink`;
    :meth:`finish` processes whatever is still buffered, updates the
    core clock and counters and returns the :class:`CoreRunResult`.

    Single-context runs time each event on arrival: ``step`` borrows
    ``addrs``/``outcomes`` for the duration of the call, ``record``
    first appends the event tuple to :attr:`events`.  Multi-context
    runs keep one buffer per context and time nothing before
    :meth:`finish`.
    """

    __slots__ = ("core", "start", "single", "events", "step", "record",
                 "_cnt", "_bufs", "_drain", "_snapshot", "_finished")

    def __init__(self, core: "CoreModel", n_contexts: int, batched: bool):
        self.core = core
        start = core.now
        self.start = start
        single = n_contexts == 1
        self.single = single
        #: single-context recording: one tuple per ``record`` call
        self.events: Optional[List[Event]] = [] if single else None
        self._bufs: Optional[List[Sequence[Event]]] = (
            None if single else [[] for _ in range(n_contexts)])
        # core.counters is stable for the whole run (resets only ever
        # happen between runs); the float accumulators start from it
        cnt = core.counters
        self._cnt = cnt
        preds = [core._predictor(i) for i in range(n_contexts)]
        make = _engine(core.cfg, batched, single)
        self.step, self.record, self._drain, self._snapshot = make(
            start, preds, core.mem.access, self.events,
            cnt.get("stack_dep_wait", 0), cnt.get("stack_exec_service", 0),
            cnt.get("stack_mem_service", 0))
        self._finished = False

    # ------------------------------------------------------------------
    def feed(self, ctx: int, pc, inst, active, addrs, outcomes) -> None:
        """Submit one event for context ``ctx`` (in stream order)."""
        if self.single:
            self.step(pc, inst, active, addrs, outcomes)
        else:
            self._bufs[ctx].append(
                (pc, inst, active, tuple(addrs),
                 tuple(outcomes) if outcomes else None))

    def replay(self, ctx: int, events: Sequence[Event]) -> None:
        """Submit context ``ctx``'s whole stream as one recorded sequence.

        A multi-context run keeps ``events`` itself as the context's
        buffer (no copy), so it must not change before :meth:`finish`;
        the context must not have been fed already.
        """
        if self.single:
            self._drain(events)
        elif self._bufs[ctx]:
            raise ValueError(f"context {ctx} already has buffered events")
        else:
            self._bufs[ctx] = events

    def buffer(self, ctx: int) -> List[Event]:
        """Context ``ctx``'s event buffer (multi-context runs only)."""
        return self._bufs[ctx]

    def seal(self, ctx: int) -> Tuple[Event, ...]:
        """Context ``ctx``'s recorded events as a tuple, the trace
        cache's form, once its executor is done.

        The recording list is emptied (a multi-context run keeps the
        tuple as the context's buffer), so its memory is freed now
        rather than when the run ends.
        """
        if self.single:
            events = tuple(self.events)
            self.events.clear()
        else:
            events = self._bufs[ctx] = tuple(self._bufs[ctx])
        return events

    def finish(self) -> CoreRunResult:
        """Drain buffered events, flush counters, advance the clock."""
        if self._finished:
            raise RuntimeError("CoreRun.finish() called twice")
        self._finished = True
        if not self.single:
            self._drain(self._bufs)
            self._bufs = None
        (issue_time, n_events, n_slots, n_rf_reads, n_rf_writes,
         n_icache_stalls, n_syscalls, dep_wait, exec_service, mem_service,
         by_cls, streams) = self._snapshot()
        start = self.start
        finish_all = max((f for f, _n in streams), default=start)
        if issue_time > finish_all:
            finish_all = issue_time
        self.core.now = finish_all

        cnt = self._cnt
        if n_events:
            # write back the touched float counters in the order the
            # per-event additions would have created them: the dep-wait
            # stack first, then the first event's service stack
            cnt["stack_dep_wait"] = dep_wait
            n_mem = sum(1 for k in by_cls if k in _MEM_SCALAR_KEYS)
            service = []
            if n_mem:
                service.append(("stack_mem_service", mem_service))
            if n_mem < len(by_cls):
                service.append(("stack_exec_service", exec_service))
            if next(iter(by_cls)) not in _MEM_SCALAR_KEYS:
                service.reverse()
            for key, value in service:
                cnt[key] = value
        inc = cnt.inc
        if n_icache_stalls:
            inc("icache_stalls", n_icache_stalls)
        if n_syscalls:
            inc("syscalls", n_syscalls)
        if n_events:
            inc("batch_instructions", n_events)
            inc("scalar_instructions", sum(by_cls.values()))
            inc("issue_slots", n_slots)
        for key, v in by_cls.items():
            inc(key, v)
        if n_rf_reads:
            inc("rf_reads", n_rf_reads)
        if n_rf_writes:
            inc("rf_writes", n_rf_writes)

        return CoreRunResult(
            start=start,
            finish=finish_all,
            streams=[StreamResult(start=start, finish=f, events=n)
                     for f, n in streams],
        )


class CoreModel:
    """A reusable core: caches and predictors persist across runs."""

    def __init__(self, config: CoreConfig,
                 mem: Optional[MemoryHierarchy] = None):
        self.cfg = config
        self.mem = mem if mem is not None else MemoryHierarchy(config)
        self.counters = Counters()
        self.now = 0.0
        self._preds: Dict[int, GsharePredictor] = {}

    def _predictor(self, ctx_id: int) -> GsharePredictor:
        if ctx_id not in self._preds:
            if self.cfg.majority_vote_bp:
                self._preds[ctx_id] = MajorityVotePredictor()
            elif self.cfg.batch_size > 1:
                self._preds[ctx_id] = PerThreadVotePredictor()
            else:
                self._preds[ctx_id] = GsharePredictor()
        return self._preds[ctx_id]

    # ------------------------------------------------------------------
    def begin(self, n_contexts: int, batched: bool = False) -> CoreRun:
        """Start an incremental run over ``n_contexts`` event streams."""
        return CoreRun(self, n_contexts, batched)

    def run(self, streams: Sequence[Sequence[Event]],
            batched: bool = False) -> CoreRunResult:
        """Process materialized event streams round-robin.

        ``batched`` marks RPU/GPU-style streams whose events carry a
        whole batch per step (enables the MCU and lane accounting).
        Implemented on the same engine as :meth:`begin`, so both paths
        are identical by construction.
        """
        run = CoreRun(self, len(streams), batched)
        for i, stream in enumerate(streams):
            run.replay(i, stream)
        return run.finish()

    # ------------------------------------------------------------------
    def reset_measurement(self) -> None:
        """Clear counters/statistics while keeping warm microarchitectural
        state (caches, TLBs, predictor tables, current cycle)."""
        from .bpred import BpredStats

        self.counters = Counters()
        self.mem.reset_counters()
        for p in self._preds.values():
            p.stats = BpredStats()

    def bpred_stats(self):
        lookups = sum(p.stats.lookups for p in self._preds.values())
        mis = sum(p.stats.mispredicts for p in self._preds.values())
        flushes = sum(p.stats.minority_flushes for p in self._preds.values())
        return lookups, mis, flushes

    def all_counters(self) -> Counters:
        total = Counters()
        total.merge(self.counters)
        total.merge(self.mem.counters)
        lookups, mis, flushes = self.bpred_stats()
        total.inc("bp_lookups", lookups)
        total.inc("bp_mispredicts", mis)
        total.inc("bp_minority_flushes", flushes)
        return total
