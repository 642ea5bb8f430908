"""Pre-decoded instruction handlers and superblock fusion.

The interpretation hot path used to re-discover everything about an
instruction on every dynamic step: an ``OpClass`` if-chain, ``_ALU`` /
``_COND`` dict lookups, operand-tuple indexing and immediate selection
(:func:`repro.engine.interpreter.execute`).  This module moves all of
that work to *decode time*: each :class:`~repro.isa.instructions.
Instruction` of a :class:`~repro.isa.program.Program` is compiled once
into a specialized Python function with its operands, immediate, ALU
expression and resolved branch target baked in as literals.  The
executors then dispatch through a flat per-pc handler table.

On top of the handler table, straight-line *superblocks* are fused: a
maximal run of branch-free ALU/MUL instructions inside one basic block
(found with the existing :mod:`repro.isa.cfg` analysis) becomes a single
composite function that retires the whole run for one thread without
re-entering the dispatch loop.  Fused blocks are register-only, so they
produce no memory events and no branch outcomes: a sink sees one
empty-addrs event per fused pc, and every per-event counter
(``steps``, ``scalar_instructions``, ``retired``) is accounted exactly
as if the run had been stepped one instruction at a time.

The correctness contract is *bit-identical equivalence* with the
reference interpreter: for any program and any batch, the fast path must
leave registers, memory, call stacks, syscall traces and every
``LockstepResult`` counter exactly equal to
:func:`repro.engine.interpreter.execute`-based execution.  This is
enforced by ``tests/test_differential_fastpath.py`` over all 15
workloads and all execution policies.

Handler calling convention::

    handler(thread, mem) -> Optional[bool]        # True/False for branches
    trace_handler(thread, mem, addrs) -> ...      # also records (tid, addr, size)
    fused(thread)                                 # register-only superblock

``trace_handlers`` mirror the plain handlers but additionally append
``(tid, vaddr, size)`` tuples to a caller-supplied list with exactly the
semantics of :func:`repro.engine.interpreter.execute`'s ``addrs_out``
(loads/stores/atomics record their effective address, calls the pushed
return-address slot, rets the popped one).  They are what lets the
executors keep the pre-decoded fast path when a :class:`~repro.engine.
events.StepSink` is attached.

Batch executors without a sink run the vectorized structure-of-arrays
engine instead (:mod:`repro.engine.vector` /
:mod:`repro.engine.vcodegen`); this per-thread fast path is the
``solo`` policy's engine and the sink-attached engine.  The ``RK_*``
re-key codes defined here are shared vocabulary with the vector
engine's compiled dispatch tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..isa.instructions import SP, Instruction, OpClass
from .interpreter import _MASK64, _hash_mix

#: binary ALU mnemonics that map 1:1 onto a Python infix operator
_BIN_OPS = {
    "add": "+",
    "addi": "+",
    "sub": "-",
    "and": "&",
    "andi": "&",
    "or": "|",
    "ori": "|",
    "xor": "^",
    "xori": "^",
    "mul": "*",
    "muli": "*",
}

#: branch mnemonics -> Python comparison operator
_CMP_OPS = {
    "beq": "==",
    "bne": "!=",
    "blt": "<",
    "bge": ">=",
    "ble": "<=",
    "bgt": ">",
}

#: op classes eligible for superblock fusion (register-only, no control
#: flow, no memory traffic, cannot halt and cannot change call depth)
_FUSABLE = (OpClass.ALU, OpClass.MUL)


#: rekey table codes: how a whole group moves after executing the op at
#: a pc (used by the MinSP-PC fast loop to re-key groups in O(1) instead
#: of re-bucketing thread by thread)
RK_FALL = 0    # pc+1, same depth (ALU/MUL/LOAD/STORE/ATOMIC/SYSCALL/...)
RK_JUMP = 1    # target, same depth
RK_CALL = 2    # target, depth+1
RK_HALT = 3    # group leaves the schedule
RK_BRANCH = 4  # target or pc+1 per outcome, same depth
RK_RET = 5     # per-thread return pcs, depth-1


@dataclass(frozen=True)
class DecodedProgram:
    """Flat per-pc dispatch tables produced by :func:`compile_program`.

    ``superblocks[pc]`` is ``None`` or ``(length, fused_fn)`` where
    ``fused_fn(thread)`` executes the ``length`` ALU/MUL instructions
    starting at ``pc`` for one thread (suffix entries exist for every
    interior pc of a run, so a group that enters mid-run still fuses
    the remainder).

    ``solo_blocks[pc]`` is ``None`` or ``(steps, block_fn)`` fusing an
    entire basic block - memory ops and terminator included - into one
    ``block_fn(thread, mem)`` call.  Only valid for single-thread
    execution: fusing memory ops across a *batch* would reorder the
    per-step thread interleaving the reference engine defines.

    ``rekey[pc]`` is ``(RK_* code, branch/jump/call target or 0)``.
    """

    handlers: Tuple
    trace_handlers: Tuple
    superblocks: Tuple
    solo_blocks: Tuple
    rekey: Tuple
    is_branch: Tuple[bool, ...]
    is_atomic: Tuple[bool, ...]


def _alu_expr(inst: Instruction) -> str:
    """Python expression computing the ALU result, operands inlined.

    Mirrors :func:`repro.engine.interpreter.execute` exactly:
    ``a = regs[srcs[0]]`` (0 when there are no sources) and
    ``b = regs[srcs[1]]`` (the immediate when there is no second source).
    """
    srcs = inst.srcs
    a = f"regs[{srcs[0]}]" if srcs else "0"
    b = f"regs[{srcs[1]}]" if len(srcs) > 1 else f"({inst.imm})"
    op = inst.op
    if op in _BIN_OPS:
        return f"{a} {_BIN_OPS[op]} {b}"
    if op in ("shl", "shli"):
        return f"({a} << ({b} & 63)) & {_MASK64}"
    if op in ("shr", "shri"):
        return f"{a} >> ({b} & 63)"
    if op in ("min", "max"):
        return f"{op}({a}, {b})"
    if op in ("slt", "slti"):
        return f"(1 if {a} < {b} else 0)"
    if op == "li":
        return b
    if op == "mov":
        return a
    if op == "hash":
        return f"_hash_mix({a}, {b})"
    if op == "div":
        return f"({a} // {b} if {b} else 0)"
    if op == "rem":
        return f"({a} % {b} if {b} else 0)"
    raise ValueError(f"unknown ALU/MUL mnemonic: {op!r}")


def _handler_source(pc: int, inst: Instruction, target: Optional[int],
                    trace: bool = False) -> List[str]:
    """Source lines of the specialized handler for the op at ``pc``.

    With ``trace=True`` the handler takes a third ``addrs`` argument and
    appends ``(tid, addr, size)`` tuples exactly where the reference
    :func:`repro.engine.interpreter.execute` appends to ``addrs_out``.
    """
    cls = inst.cls
    if trace:
        out = [f"def _t{pc}(t, mem, addrs):"]
    else:
        out = [f"def _h{pc}(t, mem):"]

    if cls is OpClass.ALU or cls is OpClass.MUL:
        if inst.dst:  # r0 writes are dropped (and the ALU not evaluated)
            out.append("    regs = t.regs")
            out.append(f"    regs[{inst.dst}] = {_alu_expr(inst)}")
        out += ["    t.retired += 1", "    t.pc += 1"]
        return out

    if cls is OpClass.LOAD:
        if trace:
            out += [
                "    regs = t.regs",
                f"    addr = regs[{inst.srcs[0]}] + ({inst.imm})",
                f"    addrs.append((t.tid, addr, {inst.size}))",
            ]
            if inst.dst:
                out.append(f"    regs[{inst.dst}] = mem.read(addr)")
        elif inst.dst:
            out.append("    regs = t.regs")
            out.append(
                f"    regs[{inst.dst}] = "
                f"mem.read(regs[{inst.srcs[0]}] + ({inst.imm}))"
            )
        out += ["    t.retired += 1", "    t.pc += 1"]
        return out

    if cls is OpClass.STORE:
        out.append("    regs = t.regs")
        if trace:
            out += [
                f"    addr = regs[{inst.srcs[0]}] + ({inst.imm})",
                f"    addrs.append((t.tid, addr, {inst.size}))",
                f"    mem.write(addr, regs[{inst.srcs[1]}])",
            ]
        else:
            out.append(
                f"    mem.write(regs[{inst.srcs[0]}] + ({inst.imm}), "
                f"regs[{inst.srcs[1]}])"
            )
        out += ["    t.retired += 1", "    t.pc += 1"]
        return out

    if cls is OpClass.BRANCH:
        sym = _CMP_OPS[inst.op]
        out += [
            "    t.retired += 1",
            "    regs = t.regs",
            f"    if regs[{inst.srcs[0]}] {sym} regs[{inst.srcs[1]}]:",
            f"        t.pc = {target}",
            "        return True",
            "    t.pc += 1",
            "    return False",
        ]
        return out

    if cls is OpClass.JUMP:
        out += ["    t.retired += 1", f"    t.pc = {target}"]
        return out

    if cls is OpClass.CALL:
        frame = inst.imm
        out += [
            "    t.retired += 1",
            "    regs = t.regs",
            "    ra = t.pc + 1",
            f"    t.call_stack.append((ra, {frame}))",
            f"    sp = regs[{SP}] - ({frame})",
            f"    regs[{SP}] = sp",
            "    mem.write(sp, ra)",
        ]
        if trace:  # execute() records the slot the return address hit
            out.append("    addrs.append((t.tid, sp, 8))")
        out.append(f"    t.pc = {target}")
        return out

    if cls is OpClass.RET:
        out += [
            "    t.retired += 1",
            "    ret_pc, frame = t.call_stack.pop()",
        ]
        if trace:  # pre-increment SP: where the return address sits
            out.append(f"    addrs.append((t.tid, t.regs[{SP}], 8))")
        out += [
            f"    t.regs[{SP}] += frame",
            "    t.pc = ret_pc",
        ]
        return out

    if cls is OpClass.ATOMIC:
        s0, s1 = inst.srcs[0], inst.srcs[1]
        new = f"old + regs[{s1}]" if inst.op == "amoadd" else f"regs[{s1}]"
        out += [
            "    t.retired += 1",
            "    regs = t.regs",
            f"    addr = regs[{s0}] + ({inst.imm})",
        ]
        if trace:
            out.append(f"    addrs.append((t.tid, addr, {inst.size}))")
        out += [
            "    old = mem.read(addr)",
            f"    mem.write(addr, {new})",
        ]
        if inst.dst:
            out.append(f"    regs[{inst.dst}] = old")
        out.append("    t.pc += 1")
        return out

    if cls is OpClass.SYSCALL:
        out += [
            "    t.retired += 1",
            f"    t.syscall_trace.append((t.pc, {inst.syscall.value!r}))",
            "    t.pc += 1",
        ]
        return out

    if cls is OpClass.HALT:
        out += ["    t.retired += 1", "    t.halted = True"]
        return out

    # FENCE / NOP / SIMD: retire and fall through
    out += ["    t.retired += 1", "    t.pc += 1"]
    return out


def _fused_source(entry: int, insts: List[Instruction], k: int) -> List[str]:
    """Source of the composite handler for the run starting at ``entry``."""
    body = []
    for inst in insts:
        if inst.dst:
            body.append(f"    regs[{inst.dst}] = {_alu_expr(inst)}")
    out = [f"def _f{entry}(t):"]
    if body:
        out.append("    regs = t.regs")
        out += body
    out += [f"    t.retired += {k}", f"    t.pc += {k}"]
    return out


def _inline_body(pc: int, inst: Instruction,
                 target: Optional[int]) -> List[str]:
    """Body lines (no retired/pc bookkeeping) for one instruction of a
    whole-block solo fusion.  Assumes ``regs = t.regs`` is in scope and
    that execution is single-threaded, so memory ops stay in program
    order by construction."""
    cls = inst.cls
    if cls is OpClass.ALU or cls is OpClass.MUL:
        if inst.dst:
            return [f"    regs[{inst.dst}] = {_alu_expr(inst)}"]
        return []
    if cls is OpClass.LOAD:
        if inst.dst:
            return [
                f"    regs[{inst.dst}] = "
                f"mem.read(regs[{inst.srcs[0]}] + ({inst.imm}))"
            ]
        return []
    if cls is OpClass.STORE:
        return [
            f"    mem.write(regs[{inst.srcs[0]}] + ({inst.imm}), "
            f"regs[{inst.srcs[1]}])"
        ]
    if cls is OpClass.ATOMIC:
        s0, s1 = inst.srcs[0], inst.srcs[1]
        new = f"old + regs[{s1}]" if inst.op == "amoadd" else f"regs[{s1}]"
        out = [
            f"    addr = regs[{s0}] + ({inst.imm})",
            "    old = mem.read(addr)",
            f"    mem.write(addr, {new})",
        ]
        if inst.dst:
            out.append(f"    regs[{inst.dst}] = old")
        return out
    if cls is OpClass.SYSCALL:
        # the trace records the *instruction's* pc, baked as a literal
        return [
            f"    t.syscall_trace.append(({pc}, {inst.syscall.value!r}))"
        ]
    if cls in (OpClass.FENCE, OpClass.NOP, OpClass.SIMD):
        return []
    raise ValueError(f"not inlineable mid-block: {inst.op!r}")


#: terminators that end a solo chain (a jump or fallthrough threads
#: straight into the next block instead)
_CHAIN_STOPS = (OpClass.BRANCH, OpClass.CALL, OpClass.RET, OpClass.HALT)

#: instruction budget per chained solo handler (bounds code bloat from
#: shared suffix blocks being duplicated into several chains)
_CHAIN_CAP = 96


def _solo_chain(start_block, block_at, insts,
                targets) -> Tuple[List, Optional[int]]:
    """Blocks reachable from ``start_block`` by jump/fallthrough threading.

    Returns ``(segments, cont_pc)``: the chain's basic blocks in
    execution order and, when the chain was cut short (cycle or budget)
    rather than ended by a branch/call/ret/halt terminator, the pc the
    handler must continue at.
    """
    segments = []
    seen = set()
    total = 0
    cur = start_block
    while True:
        seen.add(cur.start)
        segments.append(cur)
        total += cur.end - cur.start + 1
        last = insts[cur.end]
        if last.cls in _CHAIN_STOPS:
            return segments, None
        nxt = targets[cur.end] if last.cls is OpClass.JUMP else cur.end + 1
        if nxt in seen or nxt not in block_at or total >= _CHAIN_CAP:
            return segments, nxt
        cur = block_at[nxt]


def _chain_source(segments, cont_pc: Optional[int],
                  insts, targets) -> List[str]:
    """Source of the fused solo handler ``_b{entry}(t, mem)``.

    Executes every instruction of every segment - memory ops, syscalls
    and mid-chain jumps included (a jump's only effect is the pc, which
    threading resolves statically) - then performs the final terminator
    or parks the thread at ``cont_pc``.  Single-thread execution keeps
    all of it in program order, so state is bit-identical to stepping.
    """
    entry = segments[0].start
    k = sum(b.end - b.start + 1 for b in segments)
    final = segments[-1]
    last = insts[final.end]
    cls = last.cls
    ends_chain = cont_pc is None

    out = [f"def _b{entry}(t, mem):", "    regs = t.regs"]
    for seg in segments:
        stop = seg.end if (seg is final and ends_chain) else seg.end + 1
        for pc in range(seg.start, stop):
            if insts[pc].cls is not OpClass.JUMP:  # threaded away
                out += _inline_body(pc, insts[pc], targets[pc])
    out.append(f"    t.retired += {k}")

    if not ends_chain:
        out.append(f"    t.pc = {cont_pc}")
        return out
    target = targets[final.end]
    if cls is OpClass.BRANCH:
        sym = _CMP_OPS[last.op]
        out.append(
            f"    t.pc = {target} if regs[{last.srcs[0]}] {sym} "
            f"regs[{last.srcs[1]}] else {final.end + 1}"
        )
    elif cls is OpClass.CALL:
        out += [
            f"    t.call_stack.append(({final.end + 1}, {last.imm}))",
            f"    sp = regs[{SP}] - ({last.imm})",
            f"    regs[{SP}] = sp",
            f"    mem.write(sp, {final.end + 1})",
            f"    t.pc = {target}",
        ]
    elif cls is OpClass.RET:
        out += [
            "    ret_pc, frame = t.call_stack.pop()",
            f"    regs[{SP}] += frame",
            "    t.pc = ret_pc",
        ]
    else:  # HALT: pc stays at the halt instruction
        out += [f"    t.pc = {final.end}", "    t.halted = True"]
    return out


def _rekey_entry(inst: Instruction, target: Optional[int]) -> Tuple[int, int]:
    cls = inst.cls
    if cls is OpClass.BRANCH:
        return (RK_BRANCH, target)
    if cls is OpClass.JUMP:
        return (RK_JUMP, target)
    if cls is OpClass.CALL:
        return (RK_CALL, target)
    if cls is OpClass.RET:
        return (RK_RET, 0)
    if cls is OpClass.HALT:
        return (RK_HALT, 0)
    return (RK_FALL, 0)


def _alu_runs(program, cfg) -> List[Tuple[int, int]]:
    """Maximal straight-line ALU/MUL runs ``(first_pc, last_pc)``.

    Runs never span basic-block boundaries (computed with the existing
    :class:`repro.isa.cfg.ControlFlowGraph`), so no pc strictly inside a
    run is a branch/jump/call target: the only way to be mid-run is to
    have stepped through its prefix.
    """
    insts = program.instructions
    runs: List[Tuple[int, int]] = []
    for block in cfg.blocks:
        p = block.start
        while p <= block.end:
            if insts[p].cls in _FUSABLE:
                q = p
                while q + 1 <= block.end and insts[q + 1].cls in _FUSABLE:
                    q += 1
                if q > p:  # only runs of >= 2 are worth a composite
                    runs.append((p, q))
                p = q + 1
            else:
                p += 1
    return runs


def compile_program(program) -> DecodedProgram:
    """Compile ``program`` into flat dispatch tables (one ``exec``)."""
    from ..isa.cfg import ControlFlowGraph

    insts = program.instructions
    targets = program.targets
    n = len(insts)
    cfg = ControlFlowGraph(program)

    lines: List[str] = []
    for pc in range(n):
        lines += _handler_source(pc, insts[pc], targets[pc])
        lines += _handler_source(pc, insts[pc], targets[pc], trace=True)

    fused_meta: List[Tuple[int, int]] = []
    for first, last in _alu_runs(program, cfg):
        for p in range(first, last):  # suffix from every interior entry
            k = last - p + 1
            lines += _fused_source(p, insts[p:last + 1], k)
            fused_meta.append((p, k))

    block_at = {b.start: b for b in cfg.blocks}
    block_meta: List[Tuple[int, int]] = []
    for block in cfg.blocks:
        segments, cont_pc = _solo_chain(block, block_at, insts, targets)
        k = sum(b.end - b.start + 1 for b in segments)
        if k >= 2:  # a 1-op chain is just its handler
            lines += _chain_source(segments, cont_pc, insts, targets)
            block_meta.append((block.start, k))

    namespace = {
        "_hash_mix": _hash_mix,
        "min": min,
        "max": max,
        "__builtins__": {},
    }
    code = compile("\n".join(lines), f"<decoded:{program.name}>", "exec")
    exec(code, namespace)

    handlers = tuple(namespace[f"_h{pc}"] for pc in range(n))
    trace_handlers = tuple(namespace[f"_t{pc}"] for pc in range(n))
    superblocks: List[Optional[Tuple[int, object]]] = [None] * n
    for p, k in fused_meta:
        superblocks[p] = (k, namespace[f"_f{p}"])
    solo_blocks: List[Optional[Tuple[int, object]]] = [None] * n
    for p, k in block_meta:
        solo_blocks[p] = (k, namespace[f"_b{p}"])
    return DecodedProgram(
        handlers=handlers,
        trace_handlers=trace_handlers,
        superblocks=tuple(superblocks),
        solo_blocks=tuple(solo_blocks),
        rekey=tuple(
            _rekey_entry(insts[pc], targets[pc]) for pc in range(n)
        ),
        is_branch=tuple(i.cls is OpClass.BRANCH for i in insts),
        is_atomic=tuple(i.cls is OpClass.ATOMIC for i in insts),
    )
