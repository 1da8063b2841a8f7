"""Core timing models: in-order single-issue (Table 1) and a modest
out-of-order core with a small reorder buffer (Section 6.3.1, Figure 13).

Both models consume a :class:`repro.sim.trace.Trace` and charge:

* one cycle per instruction,
* for the in-order core, a full stall for every cycle of memory latency
  beyond the L1 hit latency,
* for the out-of-order core, misses retire out of a small window: the core
  keeps executing younger instructions until the reorder buffer fills (or an
  outstanding-miss limit is hit), which hides part of the latency — the
  first-order behaviour of the Silvermont-class core the paper models.

The run loop is the hottest code in the whole simulator, so it works
directly on the trace's integer columns (see :mod:`repro.sim.trace`):
entries are dispatched on their opcode and column references are hoisted
into locals.  Counts the trace already knows (instructions, memory
references, loads, stores, references per kind) are not counted at all:
:meth:`InOrderCore.finish` takes them from the trace's summary.  The
in-order loop keeps the remaining counters (L1 hits and misses, latency
and stall sums) in generator locals and writes them back once, when the
trace is exhausted; :meth:`finish` flushes them into
:class:`repro.sim.stats.CoreStats`.

Latency and stall cycles are accumulated as floats and rounded once at
:meth:`finish`; the original per-access ``int()`` truncation silently
dropped up to one cycle per reference from the latency/stall statistics.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.sim.config import SystemConfig
from repro.sim.stats import CoreStats
from repro.sim.trace import (
    KIND_BY_CODE,
    NUM_KINDS,
    OP_COMPUTE,
    OP_LOAD,
    OP_SW_PREFETCH,
    Trace,
)


class InOrderCore:
    """Single-issue in-order core: blocks on every memory access."""

    __slots__ = ("core_id", "trace", "memsys", "stats", "config", "time",
                 "_position", "_op", "_pc", "_addr", "_size", "_aux",
                 "_lead", "_length", "_access", "_l1_hits", "_l1_misses",
                 "_misses_by_kind", "_mem_latency", "_stall_cycles",
                 "_stalls_by_kind", "_l1", "_notify_on_hit", "_prefetcher",
                 "_pf_ctx", "_pf_attach", "_issue_requests",
                 "_pf_skip_resident")

    def __init__(self, core_id: int, trace: Trace, memsys, stats: CoreStats,
                 config: SystemConfig) -> None:
        self.core_id = core_id
        self.trace = trace
        self.memsys = memsys
        self.stats = stats
        self.config = config
        self.time: float = 0.0
        self._position = 0
        # Trace columns, bound once.  ``_length`` counts storage rows (a
        # row may encode leading compute ops plus its own instruction).
        self._op = trace.op
        self._pc = trace.pc
        self._addr = trace.addr
        self._size = trace.size
        self._aux = trace.aux
        self._lead = trace.lead
        self._length = len(trace.op)
        self._access = memsys.access_fast
        # When the L1 supports inlined probing (power-of-two, non-sectored,
        # real memory) and carries at most one prefetcher, an L1 *hit* is
        # handled entirely inside the run loop — its only possible effect
        # outside this core is the prefetch requests the L1 attachment's
        # hit notification may produce, and those are issued under this
        # core's scheduling turn (see _drive).  Attachments at deeper
        # levels never see an L1 hit; prefetchers that never observe hits
        # (the "none" baseline, the classic GHB) skip the notification
        # entirely.  Everything else goes through MemorySystem.access_fast.
        # (Must mirror Cache.access_fast's hit path exactly.)
        self._l1 = None
        self._notify_on_hit = False
        self._prefetcher = None
        self._pf_ctx = None
        self._pf_attach = None
        self._issue_requests = None
        self._pf_skip_resident = False
        attaches = getattr(memsys, "_attaches", None)
        l1 = memsys.l1[core_id] if attaches is not None else None
        l1_attaches = [attach for attach in attaches or ()
                       if attach.level_index == 0]
        if (l1 is not None and l1._tag_shift is not None
                and not l1.sector_size and len(l1_attaches) <= 1
                and not config.ideal_memory):
            self._l1 = l1
            if l1_attaches and l1_attaches[0].notify_hits[core_id]:
                attach = l1_attaches[0]
                self._notify_on_hit = True
                self._prefetcher = attach.prefetchers[core_id]
                self._pf_ctx = memsys._ctx
                self._pf_attach = attach
                self._issue_requests = memsys._issue_bank_requests
                self._pf_skip_resident = not attach.has_on_fill[core_id]
        # Statistic accumulators, flushed into ``stats`` by finish().
        self._l1_hits = 0
        self._l1_misses = 0
        self._misses_by_kind = [0] * NUM_KINDS
        self._mem_latency = 0.0
        self._stall_cycles = 0.0
        self._stalls_by_kind = [0.0] * NUM_KINDS

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self._position >= self._length

    def _drive(self):
        """Generator body of the run loop.

        Scheduling protocol (bit-identical to the one-yield-per-access
        scheduler this replaces): every *shared* operation — an access that
        misses the L1, a hit notification that produces prefetch requests,
        a software prefetch — executes under a scheduling turn granted by
        the scheduler, ordered by ``(turn_time, core_id)`` where
        ``turn_time`` is this core's clock right after its previous memory
        access.  That key is exactly the time the old scheduler re-queued
        the core with after each access, so the global order of shared
        operations is unchanged; what disappears is the scheduler
        round-trip for every core-local step in between:

        * plain L1 hits (and their prefetcher notifications — prefetcher
          state is per-core) update nothing another core can observe and
          run back-to-back without yielding,
        * when a hit notification *does* return prefetch requests, the
          requests are issued under the turn the hit would have been
          scheduled with (yield first if this turn already performed a
          shared operation),
        * software prefetches execute under an unused turn without
          consuming it (the old scheduler ran them in the turn of the
          access that follows them).

        ``self.time`` is flushed with ``turn_time`` at every yield (the
        scheduler sorts on it).  The hit, miss, latency and stall counters
        live in generator locals and are written back when the trace is
        exhausted, as are the inline hits the L1's own counters are owed:
        nothing reads them mid-run, because :meth:`finish` runs only after
        the generator has returned.  The float sums still accumulate one
        access at a time, in trace order.
        """
        pos = self._position
        length = self._length
        op_col = self._op
        aux_col = self._aux
        lead_col = self._lead
        addr_col = self._addr
        pc_col = self._pc
        size_col = self._size
        access = self._access
        core_id = self.core_id
        time = self.time
        l1_hits = self._l1_hits
        l1_misses = self._l1_misses
        mem_latency = self._mem_latency
        stall_cycles = self._stall_cycles
        misses_by_kind = self._misses_by_kind
        stalls_by_kind = self._stalls_by_kind
        inline_hits = 0
        l1 = self._l1
        if l1 is not None:
            # Flat-column L1 state (see repro.memory.cache): the per-set
            # {tag: way} index and the metadata columns.
            l1_index = l1._index
            l1_ready = l1._ready
            l1_last_use = l1._last_use
            l1_flags = l1._flags
            l1_line_shift = l1._line_shift
            l1_set_mask = l1._set_mask
            l1_tag_shift = l1._tag_shift
            # A float, so the hit path's sums stay float-only (the values
            # are the same: a configured latency is a small integer).
            hit_latency = float(self.memsys._hit_latency)
            notify_on_hit = self._notify_on_hit
            prefetcher = self._prefetcher
            pf_ctx = self._pf_ctx
            pf_attach = self._pf_attach
            issue_requests = self._issue_requests
            pf_skip_resident = self._pf_skip_resident
        #: Scheduling key of this core's next shared operation: its clock
        #: just after the previous memory access.
        turn_time = time
        #: True once the current turn's key has gone stale — a shared
        #: operation was performed, or any access advanced the key past
        #: the time this turn was granted at.
        turn_used = False
        while pos < length:
            op = op_col[pos]
            if op == OP_COMPUTE:
                time += aux_col[pos]
                pos += 1
            elif op == OP_SW_PREFETCH:
                if turn_used:
                    # A software prefetch runs under an unused turn (and
                    # does not consume it): the old scheduler executed it
                    # in the turn of the access that follows.
                    self._position = pos
                    self.time = turn_time
                    yield
                    turn_used = False
                time += lead_col[pos] + 1 + aux_col[pos]
                addr = addr_col[pos]
                pos += 1
                self.memsys.software_prefetch(core_id, addr, time)
            else:
                addr = addr_col[pos]
                way = None
                if l1 is not None:
                    way = l1_index[
                        (addr >> l1_line_shift) & l1_set_mask
                    ].get(addr >> l1_tag_shift)
                if way is not None:
                    lead = lead_col[pos]
                    if lead:
                        time += lead
                    is_write = op != OP_LOAD
                    # L1 hit, handled entirely in the run loop (mirrors
                    # Cache.access_fast's hit path; the flags are written
                    # back only when they change).
                    l1_last_use[way] = time
                    flags = l1_flags[way]
                    late = l1_ready[way] - time
                    if flags & 2 and not flags & 4:  # unreferenced prefetch
                        # FLAG_PREFETCH_REFERENCED, and FLAG_DIRTY on a write.
                        l1_flags[way] = flags | (5 if is_write else 4)
                        stats = self.stats
                        stats.prefetch_covered_misses += 1
                        stats.prefetches_useful += 1
                        if late > 0.0:
                            stats.prefetch_late_cycles += int(late)
                    elif is_write and not flags & 1:
                        l1_flags[way] = flags | 1      # FLAG_DIRTY
                    latency = (hit_latency + late if late > 0.0
                               else hit_latency)
                    if notify_on_hit:
                        # The L1 attachment's prefetcher observes the hit
                        # now (its state is core-local); any prefetch
                        # requests it returns are shared work and wait for
                        # this core's turn below.
                        pf_ctx.core_id = core_id
                        pf_ctx.pc = pc_col[pos]
                        pf_ctx.addr = addr
                        pf_ctx.size = size_col[pos]
                        pf_ctx.is_write = is_write
                        pf_ctx.hit = True
                        pf_ctx.now = time
                        requests = prefetcher.on_access(pf_ctx)
                        if requests:
                            # Requests whose line is already resident in
                            # this (non-sectored) L1 are no-ops in
                            # issue_prefetch; a batch of only those has no
                            # shared effect and needs no scheduling turn.
                            # No other core can change this L1's contents,
                            # so the check cannot go stale across a yield.
                            # (Disabled for prefetchers with an on_fill
                            # chaining hook, which observes every request.)
                            all_resident = False
                            if pf_skip_resident:
                                all_resident = True
                                for request in requests:
                                    target = request.addr
                                    if l1_index[
                                        (target >> l1_line_shift)
                                        & l1_set_mask
                                    ].get(target >> l1_tag_shift) is None:
                                        all_resident = False
                                        break
                            if not all_resident:
                                if turn_used:
                                    self._position = pos
                                    self.time = turn_time
                                    yield
                                issue_requests(pf_attach, core_id, requests,
                                               time)
                                turn_used = True
                    inline_hits += 1
                    mem_latency += latency
                    stall = latency - 1.0
                    if stall > 0.0:
                        stall_cycles += stall
                        stalls_by_kind[aux_col[pos]] += stall
                        time += 1.0 + stall
                    else:
                        time += 1.0
                    pos += 1
                    # The turn's scheduling key is stale once any access
                    # has been processed: the next shared operation must be
                    # re-granted at the advanced key.
                    turn_time = time
                    turn_used = True
                    continue
                if turn_used:
                    # Shared access, but this turn already performed a
                    # shared operation: yield so cores with earlier clocks
                    # take their turns first.  (The probe above is
                    # side-effect-free, and no other core can mutate this
                    # core's private L1, so the access is simply processed
                    # on resumption.)
                    self._position = pos
                    self.time = turn_time
                    yield
                lead = lead_col[pos]
                if lead:
                    time += lead
                kind_code = aux_col[pos]
                # access_fast returns a 5-tuple (a test double may return
                # less); only latency and the L1-hit flag matter here.
                result = access(core_id, pc_col[pos], addr, size_col[pos],
                                op != OP_LOAD, time)
                latency = result[0]
                pos += 1
                mem_latency += latency
                if result[1]:
                    l1_hits += 1
                else:
                    l1_misses += 1
                    misses_by_kind[kind_code] += 1
                stall = latency - 1.0
                if stall > 0.0:
                    stall_cycles += stall
                    stalls_by_kind[kind_code] += stall
                    time += 1.0 + stall
                else:
                    time += 1.0
                turn_time = time
                turn_used = True
        self._position = pos
        self.time = time
        self._l1_hits = l1_hits + inline_hits
        self._l1_misses = l1_misses
        self._mem_latency = mem_latency
        self._stall_cycles = stall_cycles
        if inline_hits:
            l1.accesses += inline_hits
            l1.hits += inline_hits

    def finish(self) -> None:
        """Called once the trace is exhausted; fills :class:`CoreStats`
        from the trace's summary counts and the accumulated counters
        (idempotent — safe to call repeatedly)."""
        stats = self.stats
        trace = self.trace
        stats.cycles = int(self.time)
        stats.instructions = trace.instruction_count
        stats.mem_accesses = trace.memory_reference_count
        stats.loads = trace.memory_reference_count - trace.store_count
        stats.stores = trace.store_count
        stats.l1_hits = self._l1_hits
        stats.l1_misses = self._l1_misses
        stats.total_mem_latency = int(round(self._mem_latency))
        stats.total_stall_cycles = int(round(self._stall_cycles))
        stats.accesses_by_kind.update(trace.count_by_kind())
        for code, kind in enumerate(KIND_BY_CODE):
            stats.misses_by_kind[kind] = self._misses_by_kind[code]
            stats.stall_cycles_by_kind[kind] = int(round(
                self._stalls_by_kind[code]))

    # ------------------------------------------------------------------
    def _record_stall(self, kind_code: int, stall: float) -> None:
        if stall <= 0:
            return
        self._stall_cycles += stall
        self._stalls_by_kind[kind_code] += stall


class OutOfOrderCore(InOrderCore):
    """Bounded-window out-of-order core (ROB of ``config.rob_size``).

    Misses enter a pending queue; the core keeps issuing younger instructions
    until the distance to the oldest pending miss exceeds the ROB size, at
    which point time jumps to that miss's completion (it must retire before
    the window can move).  A small outstanding-miss limit models the MSHRs.
    """

    #: A Silvermont-class core has a handful of L1 miss-status registers; this
    #: bounds the memory-level parallelism the window can expose.
    MAX_OUTSTANDING_MISSES = 4

    __slots__ = ("_inst_seq", "_pending")

    def __init__(self, core_id: int, trace: Trace, memsys, stats: CoreStats,
                 config: SystemConfig) -> None:
        super().__init__(core_id, trace, memsys, stats, config)
        self._inst_seq = 0
        self._pending: Deque[Tuple[int, float, int]] = deque()

    def _drive(self):
        """Generator body of the run loop: one scheduling turn per memory
        reference.

        Non-memory ops and software prefetches run in the turn of the
        access that follows them; the generator yields after each load or
        store that is not the trace's last.
        """
        pos = self._position
        length = self._length
        op_col = self._op
        aux_col = self._aux
        lead_col = self._lead
        while pos < length:
            op = op_col[pos]
            if op == OP_COMPUTE:
                self._execute_compute(aux_col[pos])
                pos += 1
            elif op == OP_SW_PREFETCH:
                lead = lead_col[pos]
                if lead:
                    self._execute_compute(lead)
                overhead = aux_col[pos]
                addr = self._addr[pos]
                pos += 1
                self._inst_seq += 1 + overhead
                self._drain_window()
                self.time += 1 + overhead
                self.memsys.software_prefetch(self.core_id, addr, self.time)
            else:
                lead = lead_col[pos]
                if lead:
                    self._execute_compute(lead)
                pos += 1
                self._position = pos
                self._execute_mem_ref(op, self._pc[pos - 1],
                                      self._addr[pos - 1],
                                      self._size[pos - 1], aux_col[pos - 1])
                if pos < length:
                    yield
        self._position = pos

    def _drain_window(self, required_space: int = 0) -> None:
        pending = self._pending
        while pending:
            oldest_seq, completion, kind_code = pending[0]
            window_full = (self._inst_seq - oldest_seq) >= self.config.rob_size
            too_many = len(pending) >= self.MAX_OUTSTANDING_MISSES - required_space
            if not window_full and not too_many:
                break
            pending.popleft()
            if completion > self.time:
                stall = completion - self.time
                self._record_stall(kind_code, stall)
                self.time = completion

    def _execute_compute(self, ops: int) -> None:
        # Independent compute retires from the window as it executes; an
        # outstanding miss only forces a stall once the distance to it
        # exceeds the ROB size, and by then part of the block has already
        # overlapped with the miss latency.
        remaining = ops
        pending = self._pending
        while pending and remaining > 0:
            oldest_seq, completion, kind_code = pending[0]
            space = self.config.rob_size - (self._inst_seq - oldest_seq)
            if space > remaining:
                break
            run = max(0, space)
            self.time += run
            self._inst_seq += run
            remaining -= run
            pending.popleft()
            if completion > self.time:
                self._record_stall(kind_code, completion - self.time)
                self.time = completion
        self.time += remaining
        self._inst_seq += remaining

    def _execute_mem_ref(self, op: int, pc: int, addr: int, size: int,
                         kind_code: int) -> None:
        self._inst_seq += 1
        self._drain_window(required_space=1)
        is_write = op != OP_LOAD
        result = self._access(self.core_id, pc, addr, size, is_write,
                              self.time)
        latency = result[0]
        self._mem_latency += latency
        if result[1]:
            self._l1_hits += 1
        else:
            self._l1_misses += 1
            self._misses_by_kind[kind_code] += 1
        if latency <= self.config.l1d.hit_latency:
            self.time += 1.0
            return
        completion = self.time + latency
        self._pending.append((self._inst_seq, completion, kind_code))
        self.time += 1.0

    def finish(self) -> None:
        while self._pending:
            _, completion, kind_code = self._pending.popleft()
            if completion > self.time:
                self._record_stall(kind_code, completion - self.time)
                self.time = completion
        super().finish()


def make_core(config: SystemConfig, core_id: int, trace: Trace,
              memsys, stats: CoreStats) -> InOrderCore:
    """Instantiate the core model selected by ``config.core_model``."""
    if config.core_model == "ooo":
        return OutOfOrderCore(core_id, trace, memsys, stats, config)
    return InOrderCore(core_id, trace, memsys, stats, config)
