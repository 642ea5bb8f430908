"""Scoreboard core-model tests: dependencies, ROB, in-order, lanes."""

import pytest

from repro.isa import Instruction, OpClass, Segment, SyscallKind
from repro.timing import CoreModel
from repro.timing.config import CPU_CONFIG, GPU_CONFIG, RPU_CONFIG, CoreConfig
from dataclasses import replace

QUIET = dict(icache_mpki=0.0)


def alu(dst, *srcs):
    return (0, Instruction(op="add", cls=OpClass.ALU, dst=dst, srcs=srcs),
            1, (), None)


def load(dst, addr, tid=0):
    inst = Instruction(op="ld", cls=OpClass.LOAD, dst=dst, srcs=(2,),
                       segment=Segment.HEAP)
    return (0, inst, 1, ((tid, addr, 8),), None)


def branch(taken):
    inst = Instruction(op="beq", cls=OpClass.BRANCH, srcs=(1, 2))
    return (4, inst, 1, (), ((0, taken),))


def cfg(**kw):
    merged = {**QUIET, **kw}
    return replace(CPU_CONFIG, **merged)


def test_independent_alus_pipeline_at_issue_width():
    core = CoreModel(cfg())
    stream = [alu(i % 8 + 1) for i in range(80)]
    res = core.run([stream])
    # 80 ops at 8-wide ~ 10 cycles + latency tail
    assert res.cycles < 20


def test_dependent_chain_serializes_at_alu_latency():
    core = CoreModel(cfg())
    stream = [alu(1, 1) for _ in range(50)]  # r1 <- r1 chain
    res = core.run([stream])
    assert res.cycles >= 50 * CPU_CONFIG.alu_latency


def test_rpu_alu_chain_is_4x_cpu():
    chain = [alu(1, 1) for _ in range(50)]
    t_cpu = CoreModel(cfg()).run([chain]).cycles
    t_rpu = CoreModel(replace(RPU_CONFIG, **QUIET)).run(
        [[(pc, i, 32, a, o) for pc, i, _n, a, o in chain]],
        batched=True).cycles
    assert t_rpu > 3 * t_cpu


def test_rob_limits_inflight_window():
    small = cfg(rob_entries=4)
    big = cfg(rob_entries=256)
    # long-latency loads followed by independent work
    stream = []
    for i in range(32):
        stream.append(load(1, 0x4000_0000 + 4096 * i))
    t_small = CoreModel(small).run([stream]).cycles
    t_big = CoreModel(big).run([stream]).cycles
    assert t_small > t_big


def test_in_order_blocks_on_dependency():
    ooo = cfg()
    ino = cfg(in_order=True)
    # a slow load then independent ALU work: OoO overlaps, in-order not
    stream = [load(1, 0x4000_0000)] + [alu(2, 3) for _ in range(20)]
    t_ooo = CoreModel(ooo).run([stream]).cycles
    t_ino = CoreModel(ino).run([stream]).cycles
    assert t_ino >= t_ooo


def test_branch_mispredict_bubbles_fetch():
    # alternating outcomes defeat the predictor early on
    stream = [branch(bool(i % 2)) for i in range(40)]
    res = CoreModel(cfg()).run([stream])
    core2 = CoreModel(cfg())
    steady = [branch(True) for _ in range(40)]
    res2 = core2.run([steady])
    assert res.cycles > res2.cycles


def test_syscall_serializes_stream():
    sc = Instruction(op="syscall", cls=OpClass.SYSCALL,
                     syscall=SyscallKind.NETWORK)
    stream = [(0, sc, 1, (), None), alu(1)]
    res = CoreModel(cfg()).run([stream])
    assert res.cycles >= CPU_CONFIG.syscall_overhead


def test_sub_batch_interleaving_slots():
    """A 32-active batch op on 8 lanes occupies 4 issue slots."""
    config = replace(RPU_CONFIG, **QUIET)
    core = CoreModel(config)
    inst = Instruction(op="add", cls=OpClass.ALU, dst=1, srcs=(2,))
    stream = [(0, inst, 32, (), None) for _ in range(64)]
    core.run([stream], batched=True)
    assert core.counters["issue_slots"] == 64 * 4


def test_smt_streams_share_frontend():
    config = cfg()
    one = [alu(i % 8 + 1) for i in range(64)]
    t_single = CoreModel(config).run([one]).cycles
    t_eight = CoreModel(config).run([list(one) for _ in range(8)]).cycles
    assert t_eight > t_single * 4  # bandwidth shared across contexts


def test_counters_track_mix():
    core = CoreModel(cfg())
    stream = [alu(1), load(2, 0x4000_0000), branch(True)]
    core.run([stream])
    c = core.all_counters()
    assert c["scalar_alu"] == 1
    assert c["scalar_load"] == 1
    assert c["scalar_branch"] == 1
    assert c["batch_instructions"] == 3
    assert c["rf_writes"] == 2
    assert c["bp_lookups"] == 1


def test_icache_stalls_accumulate():
    config = cfg(icache_mpki=100.0, icache_penalty=30)
    core = CoreModel(config)
    stream = [alu(i % 8 + 1) for i in range(100)]
    res = core.run([stream])
    assert core.counters["icache_stalls"] in (9, 10)  # fp credit
    assert res.cycles >= 9 * 30


def test_reset_measurement_keeps_time_clears_counters():
    core = CoreModel(cfg())
    core.run([[alu(1)] * 10])
    now = core.now
    core.reset_measurement()
    assert core.now == now
    assert core.all_counters()["scalar_instructions"] == 0


def test_time_accumulates_across_runs():
    core = CoreModel(cfg())
    r1 = core.run([[alu(1)] * 10])
    r2 = core.run([[alu(1)] * 10])
    assert r2.start >= r1.finish - 1e-9


def _observables(core, res):
    return (res.start, res.finish,
            [(s.start, s.finish, s.events) for s in res.streams],
            list(core.all_counters().items()))


def _mixed_stream(n, base):
    out = []
    for i in range(n):
        out.append(alu(i % 5 + 1, (i + 1) % 5 + 1))
        out.append(load(6, base + 64 * i))
        out.append(branch(bool(i % 3)))
    return out


def test_multi_context_drains_round_robin():
    """One event per live context per sweep: on a 1-wide frontend the
    short context's only op issues second, between the long one's."""
    core = CoreModel(cfg(issue_width=1))
    long_, short = [alu(1), alu(2), alu(3)], [alu(4)]
    res = core.run([long_, short])
    assert [s.finish for s in res.streams] == [4.0, 2.0]
    assert [s.events for s in res.streams] == [3, 1]


def test_feed_order_across_contexts_is_irrelevant():
    """Multi-context runs only buffer on feed; finish() drains in sweep
    order, so feeding context 1 before context 0 changes nothing."""
    streams = [_mixed_stream(12, 0x4000_0000), _mixed_stream(5, 0x4100_0000),
               [], _mixed_stream(9, 0x4200_0000)]
    ref_core = CoreModel(cfg())
    ref = _observables(ref_core, ref_core.run(streams))
    core = CoreModel(cfg())
    run = core.begin(len(streams))
    for ctx in reversed(range(len(streams))):
        for ev in streams[ctx]:
            run.feed(ctx, *ev)
    assert _observables(core, run.finish()) == ref


@pytest.mark.parametrize("config", [cfg(), replace(GPU_CONFIG, **QUIET)],
                         ids=["ooo", "in_order"])
def test_step_record_and_replay_agree(config):
    """The three single-context entry points run one engine: stepping
    borrowed events, recording them, and replaying a recorded stream
    give identical timing, and the recording is the event stream."""
    stream = _mixed_stream(20, 0x4000_0000)
    results = []
    for mode in ("step", "record", "replay"):
        core = CoreModel(config)
        run = core.begin(1)
        if mode == "replay":
            run.replay(0, stream)
        else:
            fn = run.step if mode == "step" else run.record
            for pc, inst, active, addrs, outcomes in stream:
                fn(pc, inst, active, list(addrs),
                   list(outcomes) if outcomes else None)
        results.append(_observables(core, run.finish()))
        if mode == "record":
            assert run.events == stream
    assert results[0] == results[1] == results[2]


def test_float_stacks_continue_across_runs():
    """Cycle-stack floats accumulate in run-local sums seeded from the
    counters; keys no event touched are never created."""
    core = CoreModel(cfg())
    core.run([[alu(1, 1)] * 7])
    assert "stack_mem_service" not in core.counters
    after_one = core.counters["stack_exec_service"]
    core.run([[load(2, 0x4000_0000)]])
    assert core.counters["stack_exec_service"] == after_one
    assert core.counters["stack_mem_service"] > 0
