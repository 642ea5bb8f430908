"""Per-core memory hierarchy: MCU -> banked L1+TLB -> L2 -> NoC -> L3
slice -> DRAM slice.

Latency composition follows the paper: the RPU pays a higher L1 hit
latency (8 vs 3 cycles) and bank-conflict serialization, but the MCU
collapses batch accesses into few line requests, and the lighter
traffic plus single-hop crossbar reduce queueing downstream - the
balance quantified in Fig. 21.

Under ``REPRO_SANITIZE=1`` every access additionally verifies the
memory-system bookkeeping: per-level cache accesses must decompose
exactly into hits + misses (+ L3 atomic RMWs), and the MCU may never
emit more line requests than its coalescing pattern permits (at most
one per active lane, except stack interleaving, which is bounded by
the per-lane word count - a single 8-byte stack access legitimately
touches two interleaved physical words 128 bytes apart).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..isa.instructions import Instruction, OpClass, Segment
from ..memsys.cache import SetAssociativeCache
from ..memsys.dram import DramModel
from ..memsys.interconnect import CrossbarInterconnect, MeshInterconnect
from ..memsys.mcu import (CoalescingResult, MemoryCoalescingUnit,
                          scalar_accesses)
from ..memsys.stackmap import StackInterleaver
from ..memsys.tlb import PAGE_SIZE, BankedTlb, Tlb
from ..sanitize import check, sanitizer_enabled
from .config import CoreConfig

_ATOMIC = OpClass.ATOMIC
_STORE = OpClass.STORE
_STACK = Segment.STACK


class Counters(dict):
    """String-keyed event counters; missing keys read as 0."""

    def __missing__(self, key):
        return 0

    def inc(self, key: str, n: float = 1) -> None:
        self[key] = self.get(key, 0) + n

    def merge(self, other: "Counters") -> "Counters":
        for k, v in other.items():
            self.inc(k, v)
        return self


class MemoryHierarchy:
    """One core's view of the memory system."""

    def __init__(self, config: CoreConfig):
        self.cfg = config
        c = config
        self.l1 = SetAssociativeCache("L1D", c.l1_size, c.l1_assoc,
                                      c.line_size, n_banks=c.l1_banks)
        self.l2 = SetAssociativeCache("L2", c.l2_size, c.l2_assoc,
                                      c.line_size)
        self.l3 = SetAssociativeCache("L3-slice", c.l3_slice_size,
                                      c.l3_assoc, c.line_size)
        self.dram = DramModel(c.dram_bw_core_gbps, c.dram_latency,
                              c.freq_ghz, c.line_size)
        # each core owns a 1/n_cores share of the chip bisection; the
        # crossbar's bisection is far higher than the mesh's (paper
        # Table II), and the mesh additionally carries coherence
        # traffic, so its effective data bisection is modest
        if c.interconnect == "crossbar":
            self.noc = CrossbarInterconnect(
                ports=c.n_cores, bytes_per_cycle=1280.0 / c.n_cores)
        else:
            self.noc = MeshInterconnect(
                k=c.mesh_k, bytes_per_cycle=120.0 / c.n_cores)
        if c.tlb_banks > 1:
            self.tlb = BankedTlb(c.tlb_entries, c.tlb_banks, c.line_size)
        else:
            self.tlb = Tlb(c.tlb_entries)
        interleaver = (
            StackInterleaver(c.threads_per_core // c.hw_contexts)
            if c.stack_interleave
            else None
        )
        self.mcu = MemoryCoalescingUnit(c.line_size, interleaver)
        self.counters = Counters()
        #: MSHR file: line -> absolute completion time of the in-flight
        #: fill.  Accesses to a line already being fetched merge into
        #: the outstanding miss instead of issuing a duplicate request
        #: (the MSHR-merge filtering the paper credits SMT designs with)
        self._mshr: Dict[int, float] = {}
        # config constants of the per-access paths
        self._line_size = c.line_size
        self._l1_latency = c.l1_latency
        #: the penalty ``_translate`` charges for one missing page
        self._tlb_penalty = max(0.0, float(c.tlb_miss_penalty))
        self._san = sanitizer_enabled()
        # sanitizer shadow tallies: per-level hit counts plus L3 atomic
        # RMWs, kept outside Counters so sanitized runs stay
        # bit-identical to unsanitized ones
        self._san_hits = [0, 0, 0]
        self._san_atomic_l3 = 0

    # ------------------------------------------------------------------
    def _line_latency(self, line_addr: int, now: float, write: bool) -> float:
        """Latency of one line request entering the L1."""
        cnt = self.counters
        cnt["l1_accesses"] += 1
        if self.l1.access(line_addr, write):
            if self._san:
                self._san_hits[0] += 1
            # a "hit" on a line whose fill is still in flight merges
            # into the outstanding miss (MSHR) and waits for the fill
            pending = self._mshr.get(line_addr // self._line_size)
            if pending is not None and pending > now:
                cnt["mshr_merges"] += 1
                return pending - now
            return self._l1_latency
        return self._l1_miss(line_addr, now, write)

    def _l1_miss(self, line_addr: int, now: float, write: bool) -> float:
        """Latency of a line request that missed the L1 (already counted
        as an L1 access)."""
        cnt = self.counters
        cfg = self.cfg
        cnt["l1_misses"] += 1
        cnt["l2_accesses"] += 1
        if self.l2.access(line_addr, write):
            if self._san:
                self._san_hits[1] += 1
            return cfg.l1_latency + cfg.l2_latency
        cnt["l2_misses"] += 1
        cnt["noc_traversals"] += 1
        arrival = self.noc.traverse(now + cfg.l1_latency + cfg.l2_latency)
        cnt["l3_accesses"] += 1
        if self.l3.access(line_addr, write):
            if self._san:
                self._san_hits[2] += 1
            return arrival - now + cfg.l3_latency
        cnt["l3_misses"] += 1
        cnt["dram_accesses"] += 1
        done = self.dram.access(arrival + cfg.l3_latency)
        self._mshr[line_addr // cfg.line_size] = done
        if len(self._mshr) > 256:  # prune completed entries
            self._mshr = {k: v for k, v in self._mshr.items() if v > done}
        return done - now

    def _translate(self, addrs: Sequence[int], now: float) -> float:
        """TLB lookups for the pages of the line addresses."""
        cnt = self.counters
        penalty = 0.0
        for page_addr in {a // PAGE_SIZE for a in addrs}:
            cnt["tlb_accesses"] += 1
            if not self.tlb.access(page_addr * PAGE_SIZE):
                cnt["tlb_misses"] += 1
                penalty = max(penalty, float(self.cfg.tlb_miss_penalty))
        return penalty

    def _check_accounting(self, cnt: Counters) -> None:
        """Sanitizer: cache traffic must decompose exactly - for every
        level, accesses == hits + misses (+ atomic RMWs at the L3)."""
        h1, h2, h3 = self._san_hits
        check(cnt["l1_accesses"] == h1 + cnt["l1_misses"],
              "L1 accounting broken: %d accesses != %d hits + %d misses",
              cnt["l1_accesses"], h1, cnt["l1_misses"])
        check(cnt["l2_accesses"] == h2 + cnt["l2_misses"],
              "L2 accounting broken: %d accesses != %d hits + %d misses",
              cnt["l2_accesses"], h2, cnt["l2_misses"])
        check(cnt["l3_accesses"]
              == h3 + cnt["l3_misses"] + self._san_atomic_l3,
              "L3 accounting broken: %d accesses != %d hits + %d misses "
              "+ %d atomic RMWs",
              cnt["l3_accesses"], h3, cnt["l3_misses"], self._san_atomic_l3)

    def _check_mcu(self, res, addrs) -> None:
        """Sanitizer: the coalescer may not fabricate line requests.

        Non-stack patterns emit at most one request per active lane
        (``divergent``/``scalar`` exactly one; ``same_word`` and
        ``consecutive`` merge, so never more).  Stack interleaving maps
        every 4-byte word separately, so its bound is the per-lane word
        count: one 8-byte access touches two physical words (128 bytes
        apart), possibly on two lines.
        """
        n_lines = len(res.line_addrs)
        if res.pattern == "stack":
            bound = sum(max(1, s // 4) for _t, _a, s in addrs)
            check(n_lines <= bound,
                  "MCU stack pattern emitted %d lines for %d words",
                  n_lines, bound)
        else:
            check(n_lines <= len(addrs),
                  "MCU %s pattern emitted %d lines for %d lanes",
                  res.pattern, n_lines, len(addrs))
        check(len(set(res.line_addrs)) == n_lines
              or res.pattern in ("divergent", "scalar"),
              "MCU %s pattern emitted duplicate lines", res.pattern)

    # ------------------------------------------------------------------
    def access(
        self,
        inst: Instruction,
        addrs: Sequence[Tuple[int, int, int]],
        now: float,
        batched: bool,
    ) -> float:
        """Perform one (possibly batched) memory instruction.

        Returns the completion cycle of the slowest generated access.
        """
        cls = inst.cls
        if cls is _ATOMIC:
            return self._atomic(addrs, now, batched)
        cfg = self.cfg
        cnt = self.counters
        write = cls is _STORE

        if len(addrs) == 1 and not (batched and cfg.mcu_enabled):
            # direct single-line path (every CPU/SMT access): what the
            # general path below computes for one scalar line request -
            # one translation, no bank conflict, one L1 lookup
            line = addrs[0][1] // self._line_size * self._line_size
            if self._san:
                self._check_mcu(CoalescingResult([line], "scalar"), addrs)
            if inst.segment is _STACK:
                cnt["stack_line_accesses"] += 1
            else:
                cnt["data_line_accesses"] += 1
            cnt["tlb_accesses"] += 1
            if self.tlb.access(line // PAGE_SIZE * PAGE_SIZE):
                start = now + 0.0
            else:
                cnt["tlb_misses"] += 1
                start = now + self._tlb_penalty
            cnt["l1_bank_conflict_cycles"] += 0
            worst = 0.0
            lat = self._line_latency(line, start, write)
            if lat > worst:
                worst = lat
        else:
            if batched and cfg.mcu_enabled:
                cnt["mcu_ops"] += 1
                res = self.mcu.coalesce(inst.segment, addrs)
            else:
                res = scalar_accesses(addrs, cfg.line_size)
            lines = res.line_addrs
            if self._san:
                self._check_mcu(res, addrs)
            if not lines:
                return now

            if inst.segment is _STACK:
                cnt["stack_line_accesses"] += len(lines)
            else:
                cnt["data_line_accesses"] += len(lines)

            # Stack interleaving needs a single translation (thread-0
            # base override); everything else translates per page
            # touched.
            if res.pattern == "stack":
                cnt["tlb_accesses"] += 1
                tlb_penalty = 0.0
                if not self.tlb.access(lines[0]):
                    cnt["tlb_misses"] += 1
                    tlb_penalty = float(cfg.tlb_miss_penalty)
            else:
                tlb_penalty = self._translate(lines, now)

            serial = (self.l1.bank_conflicts(lines) if cfg.l1_banks > 1
                      else len(lines))
            if serial > 1:
                cnt["l1_bank_conflict_cycles"] += serial - 1
                start = now + tlb_penalty + (serial - 1)
            else:
                cnt["l1_bank_conflict_cycles"] += 0
                start = now + tlb_penalty
            # the L1-hit case of _line_latency, inlined per line
            l1_access = self.l1.access
            line_size = self._line_size
            l1_latency = self._l1_latency
            worst = 0.0
            for line in lines:
                cnt["l1_accesses"] += 1
                if l1_access(line, write):
                    if self._san:
                        self._san_hits[0] += 1
                    pending = self._mshr.get(line // line_size)
                    if pending is not None and pending > start:
                        cnt["mshr_merges"] += 1
                        lat = pending - start
                    else:
                        lat = l1_latency
                else:
                    lat = self._l1_miss(line, start, write)
                if lat > worst:
                    worst = lat
        if self._san:
            self._check_accounting(cnt)
        if write:
            # stores drain through the store queue off the critical path
            return start + 1
        # fig. 21 metrics: average load-to-use latency, plus the
        # latency of loads that left the L1 (the queueing-sensitive
        # part the paper's Fig. 21 reports)
        cnt["load_latency_sum"] += start + worst - now
        cnt["load_count"] += 1
        if worst > cfg.l1_latency:
            cnt["miss_latency_sum"] += start + worst - now
            cnt["miss_count"] += 1
        return start + worst

    def _atomic(self, addrs: Sequence[Tuple[int, int, int]], now: float,
                batched: bool) -> float:
        cfg = self.cfg
        cnt = self.counters
        n = len(addrs)
        if cfg.atomics_at_l3:
            # bypass private caches; serialize RMWs at the L3 slice
            cnt["atomics_at_l3"] += n
            cnt["noc_traversals"] += 1
            arrival = self.noc.traverse(now)
            cnt["l3_accesses"] += n
            for _tid, a, _s in addrs:
                self.l3.access(a)
            if self._san:
                self._san_atomic_l3 += n
                self._check_accounting(cnt)
            return arrival + cfg.l3_latency + n  # one RMW slot per lane
        # CPU baseline: idealized - atomics behave like private-cache
        # loads with zero coherence traffic (paper Section IV)
        cnt["atomics_in_l1"] += n
        worst = 0.0
        for _tid, a, _s in addrs:
            line = a // cfg.line_size * cfg.line_size
            lat = self._line_latency(line, now, True)
            if lat > worst:
                worst = lat
        if self._san:
            self._check_accounting(cnt)
        return now + worst

    def reset_counters(self) -> None:
        """Swap in fresh counters (measurement boundary), keeping warm
        caches, TLBs and MSHRs - and resync the sanitizer shadows."""
        self.counters = Counters()
        self._san_hits = [0, 0, 0]
        self._san_atomic_l3 = 0

    def reset_stats(self) -> None:
        self.reset_counters()
        self._mshr.clear()
        self.l1.reset_stats()
        self.l2.reset_stats()
        self.l3.reset_stats()
