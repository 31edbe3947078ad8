"""The EBOX: the 11/780's microcoded execution engine.

The EBOX owns the architectural state (general registers, per-mode stack
pointers, PSL) and the micro-level accounting: every cycle it consumes is
charged to a control-store address on the histogram board, stall cycles
are charged to the stalling microinstruction (read/write stalls) or to the
per-context insufficient-bytes dispatch address (IB stalls), and TB misses
microtrap into the miss-service flow exactly as §2.1 describes.

Executors (the per-family execute flows in :mod:`repro.cpu.executors`)
drive the EBOX through a small primitive vocabulary:

* :meth:`cycle` — an autonomous compute microcycle,
* :meth:`read` / :meth:`write` — D-stream references through TB, cache and
  write buffer, with stall accounting,
* :meth:`store` — result store into an evaluated operand (charged to the
  operand's specifier row, as the paper attributes it),
* :meth:`take_branch` — branch-displacement processing plus IB redirect.
"""

from __future__ import annotations

from repro.arch.datatypes import MASKS, SIGN_BITS, is_negative, sign_extend
from repro.arch.opcodes import OperandKind
from repro.arch.registers import PC, SP, KERNEL, PSL
from repro.arch.specifiers import AddressingMode
from repro.cpu.faults import IllegalOperand, PageFaultTrap, SimulatorError
from repro.cpu.ibuffer import InstructionBuffer
from repro.cpu.tracer import Tracer
from repro.ucode import costs
from repro.ucode.map import MicrocodeMap
from repro.ucode.rows import Row
from repro.vm.address import PAGE_BYTES, PAGE_SHIFT
from repro.vm.pagetable import PTE_VALID, PFN_MASK, TranslationNotMapped

_M = AddressingMode
_PAGE_MASK = PAGE_BYTES - 1
_WORD = 0xFFFFFFFF


class OperandRef:
    """An evaluated operand specifier.

    ``kind`` is ``"value"`` (datum already in hand: literal, immediate,
    read result, or a computed address for address-access operands),
    ``"reg"`` (register operand) or ``"mem"`` (memory operand carrying its
    effective address and, for modify access, the datum already read).
    """

    __slots__ = ("kind", "value", "reg", "addr", "size", "write_upc")

    def __init__(self, kind, value=0, reg=0, addr=0, size=4,
                 write_upc=None) -> None:
        self.kind = kind
        self.value = value
        self.reg = reg
        self.addr = addr
        self.size = size
        self.write_upc = write_upc


def expand_short_literal(literal: int, kind: OperandKind) -> int:
    """Expand a 6-bit short literal per the operand's data type."""
    if kind.dtype in ("f", "d"):
        # Floating short literal: 3 exponent bits, 3 fraction bits.
        pattern = ((128 + (literal >> 3)) << 23) | ((literal & 7) << 20)
        return pattern
    return literal


class EBox:
    """Microcode execution engine plus architectural state."""

    def __init__(self, params, mem, tb, translator, umap: MicrocodeMap,
                 board, tracer: Tracer) -> None:
        self.params = params
        self.mem = mem
        self.tb = tb
        self.translator = translator
        self.u = umap
        self.board = board
        self.tracer = tracer
        self.ib = InstructionBuffer(mem, tb, translator, params)
        #: With I-stream prefetch disabled (no-IB machines) decoded
        #: bytes cost nothing per byte: the fetch time is folded into
        #: the per-group execute cycles (params.exec_extra_cycles).
        self._ib_free = not params.ib_prefetch

        #: Hot-loop bindings.  Every one of these objects is created once
        #: and then mutated in place for the life of the machine (the
        #: stats objects reset via ``__init__`` on the same instance, the
        #: maps and sets are cleared in place), so holding direct
        #: references is safe and saves an attribute chain per microcycle.
        self._tb_maps = tb._maps
        self._tb_stats = tb.stats
        self._cache_read = mem.cache.read
        self._cache_stats = mem.cache.stats
        self._cache_resident = mem.cache._resident
        self._cache_block_shift = mem.cache._block_shift
        self._sbi_read = mem.sbi.read_transaction
        self._read_data = mem.read_data
        self._write_data = mem.write_data
        self._cache_write = mem.cache.write
        self._wb_issue = mem.write_buffer.issue
        self._mem_read = mem.memory.read
        self._mem_write = mem.memory.write

        self.registers = [0] * 16
        self.psl = PSL()
        #: Per-access-mode stack pointers (the architectural KSP..USP).
        self.mode_sps = [0, 0, 0, 0]
        self.pc = 0
        self.now = 0
        #: Process control block base (physical), set via MTPR PCBB.
        self.pcb_base = 0
        #: System control block base (physical), set via MTPR SCBB.
        self.scb_base = 0

        self._fused_upc = None
        #: PC to restart at if the current instruction faults.
        self.restart_pc = 0
        #: hooks the machine installs for MTPR/MFPR side effects and the
        #: LDPCTX address-space switch.
        self.mtpr_hook = None
        self.mfpr_hook = None
        self.ldpctx_hook = None

    # ------------------------------------------------------------------
    # time and cycle accounting
    # ------------------------------------------------------------------

    def tick(self, cycles: int, port_free: bool = True) -> None:
        """Advance simulated time; the I-Fetch engine runs in parallel.

        Equivalent, cycle for cycle, to :meth:`tick_reference` — but
        windows where the fill engine is provably idle are fast-forwarded
        in one step instead of being walked a cycle at a time.  The
        engine is idle for a whole window when no fill is in flight and
        none can start (port busy, IB full, or filling blocked on an
        I-stream TB miss), or while an in-flight fill's data has not
        arrived yet.  On such cycles the per-cycle engine does nothing,
        so skipping them cannot change any count.

        The fill engine itself (:meth:`InstructionBuffer.tick`) is
        inlined here: it runs several times per instruction, and the
        call plus re-resolved attribute chains were the single largest
        interpreter cost in the simulator.
        """
        ib = self.ib
        now = self.now
        pending = ib.pending
        # Whole-window idle preamble: no loop setup for the two most
        # common cases (engine blocked, or a fill not ready until after
        # the window).
        if pending is None:
            if (not port_free or ib.count >= ib.capacity
                    or ib.tb_miss_va is not None):
                self.now = now + cycles
                return
        elif pending[0] - now - 1 >= cycles:
            self.now = now + cycles
            return
        while cycles > 0:
            if pending is None:
                if (not port_free or ib.count >= ib.capacity
                        or ib.tb_miss_va is not None):
                    now += cycles
                    break
                # The engine issues a reference this cycle.
                now += 1
                cycles -= 1
                va = ib.prefetch_va
                pfn = self._tb_maps[va >> 31].get(va >> 9)
                tbs = self._tb_stats
                if pfn is None:
                    tbs.misses += 1
                    tbs.i_misses += 1
                    ib.tb_miss_va = va
                    # Filling is now blocked for the rest of the window.
                    now += cycles
                    break
                tbs.hits += 1
                pa4 = ((pfn << PAGE_SHIFT) | (va & _PAGE_MASK)) & ~3
                if (pa4 >> self._cache_block_shift) in self._cache_resident:
                    self._cache_stats.read_hits["i"] += 1
                    ib.references += 1
                    if cycles > 0:
                        # Cache hit: the data arrives next cycle, which
                        # is still inside this window — fuse the issue
                        # and delivery cycles into one iteration.
                        now += 1
                        cycles -= 1
                        take = 4 - (va & 3)
                        room = ib.capacity - ib.count
                        if take > room:
                            take = room
                        ib.count += take
                        ib.bytes_delivered += take
                        ib.prefetch_va = (va + take) & _WORD
                    else:
                        pending = ib.pending = (now + 1, va)
                else:
                    self._cache_read(pa4, "i")
                    ib.references += 1
                    pending = ib.pending = (self._sbi_read(now), va)
            else:
                wait = pending[0] - now - 1
                if wait >= cycles:
                    now += cycles
                    break
                if wait > 0:
                    now += wait
                    cycles -= wait
                # Delivery cycle: the data arrives and the IB accepts as
                # many bytes as it has room for.
                now += 1
                cycles -= 1
                va = pending[1]
                take = 4 - (va & 3)
                room = ib.capacity - ib.count
                if take > room:
                    take = room
                ib.count += take
                ib.bytes_delivered += take
                ib.prefetch_va = (va + take) & _WORD
                pending = ib.pending = None
        self.now = now

    def tick_reference(self, cycles: int, port_free: bool = True) -> None:
        """The per-cycle reference loop :meth:`tick` must match.

        Kept as the executable specification of the timing model; the
        fast-forward regression tests run whole programs under both
        implementations and require bit-identical histograms.
        """
        ib_tick = self.ib.tick
        for _ in range(cycles):
            self.now += 1
            ib_tick(self.now, port_free)

    def _cycle_raw(self, upc: int, n: int = 1) -> None:
        """Charge ``n`` compute cycles at ``upc`` (no fusing).

        The histogram increment and :meth:`tick`'s idle-window fast path
        are inlined: this runs several times per instruction and the two
        extra calls were pure interpreter overhead.
        """
        board = self.board
        if board.enabled:
            board.nonstalled[upc] += n
        ib = self.ib
        pending = ib.pending
        now = self.now
        if pending is None:
            if ib.count >= ib.capacity or ib.tb_miss_va is not None:
                self.now = now + n
                return
            if n == 1:
                # Single active cycle: the fill engine's issue step,
                # inline (matches tick()'s issue branch with cycles=1).
                self.now = now + 1
                va = ib.prefetch_va
                pfn = self._tb_maps[va >> 31].get(va >> 9)
                tbs = self._tb_stats
                if pfn is None:
                    tbs.misses += 1
                    tbs.i_misses += 1
                    ib.tb_miss_va = va
                    return
                tbs.hits += 1
                pa4 = ((pfn << PAGE_SHIFT) | (va & _PAGE_MASK)) & ~3
                ib.references += 1
                if (pa4 >> self._cache_block_shift) in self._cache_resident:
                    self._cache_stats.read_hits["i"] += 1
                    ib.pending = (now + 2, va)
                else:
                    self._cache_read(pa4, "i")
                    ib.pending = (self._sbi_read(now + 1), va)
                return
        elif pending[0] - now - 1 >= n:
            self.now = now + n
            return
        elif n == 1:
            # Single cycle with the fill's data due: the delivery step,
            # inline (matches tick()'s delivery branch with cycles=1).
            self.now = now + 1
            va = pending[1]
            take = 4 - (va & 3)
            room = ib.capacity - ib.count
            if take > room:
                take = room
            ib.count += take
            ib.bytes_delivered += take
            ib.prefetch_va = (va + take) & _WORD
            ib.pending = None
            return
        self.tick(n)

    def cycle(self, upc: int, n: int = 1) -> None:
        """Charge execute-flow compute cycles.

        If the literal/register operand optimisation armed a fused cycle,
        the first cycle is charged to the specifier row instead (§5,
        Table 8 remarks).
        """
        if self._fused_upc is not None and n > 0:
            self.board.count(self._fused_upc)
            self._fused_upc = None
            self.tick(1)
            n -= 1
        if n > 0:
            self._cycle_raw(upc, n)

    def disarm_fused_cycle(self) -> None:
        """Cancel an unconsumed fused-cycle credit (end of instruction)."""
        self._fused_upc = None

    # ------------------------------------------------------------------
    # translation and the TB-miss microtrap
    # ------------------------------------------------------------------

    def translate(self, va: int, stream: str = "d") -> int:
        """TB-translate ``va``, servicing misses via the microtrap flow."""
        va &= _WORD
        # TB hit (the overwhelmingly common case): the flat VPN map is
        # exactly the associative lookup, counted identically.
        pfn = self._tb_maps[va >> 31].get(va >> 9)
        if pfn is not None:
            self._tb_stats.hits += 1
            return (pfn << PAGE_SHIFT) | (va & _PAGE_MASK)
        while True:
            pfn = self.tb.lookup(va, stream)
            if pfn is not None:
                return (pfn << PAGE_SHIFT) | (va & _PAGE_MASK)
            self.service_tb_miss(va, stream)

    def service_tb_miss(self, va: int, stream: str) -> None:
        """The TB-miss service micro-routine (§4.2).

        One abort cycle (Row.ABORTS) for the microtrap, then the walk,
        a PTE read through the cache (whose stalls are the paper's 3.5
        cycles), and the insert — all in Row.MEM_MGMT.
        """
        u = self.u
        start = self.now
        self._cycle_raw(u.trap_abort)
        self._cycle_raw(u.tbm_entry)
        self._cycle_raw(u.tbm_compute, costs.TBM_WALK_CYCLES)
        try:
            pte_addr = self.translator.pte_address(va)
        except TranslationNotMapped as exc:
            raise SimulatorError(
                f"TB miss on unmapped address {va:#010x}") from exc
        result = self.mem.read_data(pte_addr, 4, self.now)
        self.board.count(u.tbm_pte_read)
        self.tick(1, port_free=False)
        stall = result.stall_cycles
        if stall:
            self.board.count_stall(u.tbm_pte_read, stall)
            self.tick(stall, port_free=False)
        pte = result.value
        if not pte & PTE_VALID:
            self._cycle_raw(u.tbm_insert, 2)
            self.tracer.page_faults += 1
            self.tracer.tb_miss_faults += 1
            raise PageFaultTrap(va, self.restart_pc)
        self.tb.insert(va, pte & PFN_MASK)
        self._cycle_raw(u.tbm_insert, costs.TBM_INSERT_CYCLES)
        self.tracer.note_tb_miss(stream, self.now - start, stall)

    # ------------------------------------------------------------------
    # D-stream references
    # ------------------------------------------------------------------

    def _chunks(self, va: int, size: int):
        """Split an access at page boundaries (frames may not be adjacent)."""
        va &= _WORD
        first = PAGE_BYTES - (va & _PAGE_MASK)
        if size <= first:
            return ((va, size),)
        return ((va, first), ((va + first) & _WORD, size - first))

    def read(self, va: int, size: int, upc: int) -> int:
        """D-stream read of 1-4 bytes, charged at ``upc``."""
        va &= _WORD
        if (va & _PAGE_MASK) + size <= PAGE_BYTES:
            # Single-page access (the overwhelmingly common case).
            pfn = self._tb_maps[va >> 31].get(va >> 9)
            if pfn is not None:
                self._tb_stats.hits += 1
                pa = (pfn << PAGE_SHIFT) | (va & _PAGE_MASK)
            else:
                pa = self.translate(va)
            if (pa + size - 1) >> 2 == pa >> 2:
                # Aligned within one longword: same sequencing as
                # MemorySubsystem.read_data, with no result object.
                board = self.board
                board.count(upc)
                now = self.now
                pending = self.ib.pending
                if self._cache_read(pa & ~3, "d"):
                    # The engine can only deliver during the reference
                    # window (the EBOX holds the port): absorb the whole
                    # window unless a fill's data is due inside it.
                    if pending is None or pending[0] - now >= 2:
                        self.now = now + 1
                    else:
                        self.tick(1, port_free=False)
                    return self._mem_read(pa, size)
                stall = self._sbi_read(now) - now
                if pending is None or pending[0] - now - 1 >= 1 + stall:
                    self.now = now + 1 + stall
                    if stall:
                        board.count_stall(upc, stall)
                else:
                    self.tick(1, port_free=False)
                    if stall:
                        board.count_stall(upc, stall)
                        self.tick(stall, port_free=False)
                return self._mem_read(pa, size)
            result = self._read_data(pa, size, self.now)
            board = self.board
            board.count(upc)
            stall = result.stall_cycles
            if self.ib.pending is None:
                self.now += 1 + stall
                if stall:
                    board.count_stall(upc, stall)
            else:
                self.tick(1, port_free=False)
                if stall:
                    board.count_stall(upc, stall)
                    self.tick(stall, port_free=False)
            if result.physical_refs > 1:
                # Alignment microcode (Row.MEM_MGMT).
                self._cycle_raw(self.u.unaligned_calc,
                                result.physical_refs - 1)
            return result.value
        value = 0
        shift = 0
        for i, (chunk_va, chunk_size) in enumerate(self._chunks(va, size)):
            pa = self.translate(chunk_va, "d")
            result = self._read_data(pa, chunk_size, self.now)
            self.board.count(upc)
            self.tick(1, port_free=False)
            if result.stall_cycles:
                self.board.count_stall(upc, result.stall_cycles)
                self.tick(result.stall_cycles, port_free=False)
            extra_refs = result.physical_refs - 1 + (1 if i else 0)
            if extra_refs:
                self._cycle_raw(self.u.unaligned_calc, extra_refs)
            value |= result.value << shift
            shift += 8 * chunk_size
        return value

    def write(self, va: int, value: int, size: int, upc: int) -> None:
        """D-stream write of 1-4 bytes through the write buffer."""
        va &= _WORD
        if (va & _PAGE_MASK) + size <= PAGE_BYTES:
            pfn = self._tb_maps[va >> 31].get(va >> 9)
            if pfn is not None:
                self._tb_stats.hits += 1
                pa = (pfn << PAGE_SHIFT) | (va & _PAGE_MASK)
            else:
                pa = self.translate(va)
            if (pa + size - 1) >> 2 == pa >> 2:
                # Aligned within one longword: same sequencing as
                # MemorySubsystem.write_data, with no result object.
                self._cache_write(pa & ~3)
                now = self.now
                stall = self._wb_issue(now)
                self._mem_write(pa, value & MASKS[size], size)
                board = self.board
                board.count(upc)
                pending = self.ib.pending
                if pending is None or pending[0] - now - 1 >= 1 + stall:
                    self.now = now + 1 + stall
                    if stall:
                        board.count_stall(upc, stall)
                else:
                    self.tick(1, port_free=False)
                    if stall:
                        board.count_stall(upc, stall)
                        self.tick(stall, port_free=False)
                return
            result = self._write_data(pa, value & MASKS[size], size,
                                      self.now)
            board = self.board
            board.count(upc)
            stall = result.stall_cycles
            if self.ib.pending is None:
                self.now += 1 + stall
                if stall:
                    board.count_stall(upc, stall)
            else:
                self.tick(1, port_free=False)
                if stall:
                    board.count_stall(upc, stall)
                    self.tick(stall, port_free=False)
            if result.physical_refs > 1:
                self._cycle_raw(self.u.unaligned_calc,
                                result.physical_refs - 1)
            return
        shift = 0
        for i, (chunk_va, chunk_size) in enumerate(self._chunks(va, size)):
            pa = self.translate(chunk_va, "d")
            chunk = (value >> shift) & MASKS[chunk_size]
            result = self._write_data(pa, chunk, chunk_size, self.now)
            self.board.count(upc)
            self.tick(1, port_free=False)
            if result.stall_cycles:
                self.board.count_stall(upc, result.stall_cycles)
                self.tick(result.stall_cycles, port_free=False)
            extra_refs = result.physical_refs - 1 + (1 if i else 0)
            if extra_refs:
                self._cycle_raw(self.u.unaligned_calc, extra_refs)
            shift += 8 * chunk_size

    def read_phys(self, pa: int, size: int, upc: int) -> int:
        """Physical read (SCB vectors, PCB) — no translation."""
        result = self.mem.read_data(pa, size, self.now)
        self.board.count(upc)
        self.tick(1, port_free=False)
        if result.stall_cycles:
            self.board.count_stall(upc, result.stall_cycles)
            self.tick(result.stall_cycles, port_free=False)
        return result.value

    def write_phys(self, pa: int, value: int, size: int, upc: int) -> None:
        """Physical write — no translation."""
        result = self.mem.write_data(pa, value, size, self.now)
        self.board.count(upc)
        self.tick(1, port_free=False)
        if result.stall_cycles:
            self.board.count_stall(upc, result.stall_cycles)
            self.tick(result.stall_cycles, port_free=False)

    # ------------------------------------------------------------------
    # instruction buffer consumption
    # ------------------------------------------------------------------

    def ib_take(self, nbytes: int, stall_upc: int) -> None:
        """Consume decoded I-stream bytes, stalling at ``stall_upc``.

        Each stalled cycle executes the per-context insufficient-bytes
        dispatch microinstruction — its execution count *is* the IB-stall
        cycle count (§4.3).

        Stall cycles are charged in batches: while a fill is in flight
        the number of dispatch re-executions until its data arrives is
        known up front, so the histogram increment and the time advance
        are done once per fill rather than once per cycle.  The counts
        are identical to :meth:`ib_take_reference`'s per-cycle loop.
        """
        ib = self.ib
        if ib.count >= nbytes:
            ib.count -= nbytes
            return
        if self._ib_free:
            return
        count = self.board.count
        guard = 0
        while ib.count < nbytes:
            if ib.tb_miss_va is not None:
                va = ib.tb_miss_va
                self.service_tb_miss(va, "i")
                ib.clear_tb_miss()
                continue
            pending = ib.pending
            n = 1
            if pending is not None:
                wait = pending[0] - self.now
                if wait > 1:
                    n = wait
            count(stall_upc, n)
            self.tick(n, port_free=True)
            guard += n
            if guard > 100000:
                raise SimulatorError(
                    f"IB stall livelock waiting for {nbytes} bytes at "
                    f"pc={self.pc:#010x}")
        ib.count -= nbytes

    def ib_take_reference(self, nbytes: int, stall_upc: int) -> None:
        """Per-cycle reference for :meth:`ib_take` (executable spec)."""
        ib = self.ib
        if self._ib_free and ib.count < nbytes:
            return
        guard = 0
        while ib.count < nbytes:
            if ib.tb_miss_va is not None:
                va = ib.tb_miss_va
                self.service_tb_miss(va, "i")
                ib.clear_tb_miss()
                continue
            self.board.count(stall_upc)
            self.tick_reference(1, port_free=True)
            guard += 1
            if guard > 100000:
                raise SimulatorError(
                    f"IB stall livelock waiting for {nbytes} bytes at "
                    f"pc={self.pc:#010x}")
        ib.take(nbytes)

    # ------------------------------------------------------------------
    # operand specifier evaluation
    # ------------------------------------------------------------------

    def _reg_read(self, n: int, size: int, spec, inst) -> int:
        """Read a general register (PC reads yield the updated PC)."""
        if n == PC:
            return (inst.address + spec.end_offset) & _WORD
        if size <= 4:
            return self.registers[n] & MASKS[size]
        return (self.registers[n] & _WORD) | \
            ((self.registers[(n + 1) & 0xF] & _WORD) << 32)

    def reg_write(self, n: int, value: int, size: int) -> None:
        """Write a general register (sub-longword writes merge)."""
        if size >= 8:
            self.registers[n] = value & _WORD
            self.registers[(n + 1) & 0xF] = (value >> 32) & _WORD
        elif size == 4:
            self.registers[n] = value & _WORD
        else:
            mask = MASKS[size]
            self.registers[n] = (self.registers[n] & ~mask & _WORD) | \
                (value & mask)

    def evaluate_specifiers(self, inst) -> list:
        """Evaluate all operand specifiers of ``inst`` in order.

        Charges specifier-row cycles, reads read/modify operands, and
        returns one :class:`OperandRef` per specifier operand.

        The per-specifier work is driven by a compiled *plan* cached on
        the (decode-cached, re-executed) instruction: one closure per
        specifier with the mode/access dispatch, the µPC constants and
        any static addresses resolved at compile time.  Each plan step
        performs exactly the operations of :meth:`_evaluate_one` — the
        executable reference, still used directly for the rare modes —
        so counts and state updates are identical.
        """
        plan = inst.eval_plan
        if plan is None:
            plan = self._compile_plan(inst)
        ib = self.ib
        refs = []
        for nbytes, stall_upc, step in plan:
            if ib.count >= nbytes:
                ib.count -= nbytes
            else:
                self.ib_take(nbytes, stall_upc)
            refs.append(step())
        return refs

    def _compile_plan(self, inst):
        """Compile the per-specifier evaluation plan for ``inst``."""
        plan = []
        kinds = inst.info.specifier_operands
        for position, (spec, kind) in enumerate(zip(inst.specifiers,
                                                    kinds)):
            row = Row.SPEC1 if position == 0 else Row.SPEC26
            plan.append((spec.length, self.u.spec_stall[row],
                         self._compile_one(inst, spec, kind, row)))
        plan = tuple(plan)
        inst.eval_plan = plan
        return plan

    def _compile_one(self, inst, spec, kind, row):
        """One specifier's plan step: a closure matching _evaluate_one.

        Specifier evaluation is the simulator's hottest dispatch: the
        closures bake in the addressing-mode branch, the operand access
        type and size, the specifier-flow µPCs, and — for literals,
        immediates and PC-relative operands — the fully constant result.
        Constant OperandRefs are shared across executions; nothing in
        the execute flows mutates an evaluated operand.  Anything
        unusual (illegal combinations, unknown modes) falls back to the
        reference evaluator so errors surface exactly where they did.
        """
        mode = spec.mode
        access = kind.access
        size = kind.size
        registers = self.registers
        cycle_raw = self._cycle_raw
        read = self.read

        def generic():
            return self._evaluate_one(inst, spec, kind, row)

        if mode is _M.SHORT_LITERAL:
            if access not in ("r", "v"):
                return generic
            ref = OperandRef("value",
                             expand_short_literal(spec.value, kind),
                             0, 0, size)
            return lambda: ref

        if mode is _M.REGISTER:
            if access == "a":
                return generic
            reg = spec.register
            if access == "r":
                if reg == PC:
                    ref = OperandRef(
                        "value", (inst.address + spec.end_offset) & _WORD,
                        0, 0, size)
                    return lambda: ref
                if size <= 4:
                    msk = MASKS[size]

                    def step():
                        return OperandRef("value", registers[reg] & msk,
                                          0, 0, size)
                    return step
                reg2 = (reg + 1) & 0xF

                def step():
                    return OperandRef(
                        "value", (registers[reg] & _WORD)
                        | ((registers[reg2] & _WORD) << 32), 0, 0, size)
                return step
            if access == "m":
                if reg != PC and size <= 4:
                    msk = MASKS[size]

                    def step():
                        return OperandRef("reg", registers[reg] & msk,
                                          reg, 0, size)
                    return step
                return generic

            # Write-only register refs carry no execution-dependent
            # state; share one constant ref like literals.
            ref = OperandRef("reg", 0, reg, 0, size)
            return lambda: ref

        flows = self.u.spec_flows[row]

        if mode is _M.IMMEDIATE:
            if access not in ("r", "v") or mode not in flows:
                return generic
            imm_upc = flows[mode].imm
            ncyc = 1 if size <= 4 else 2
            val = spec.value

            def step():
                cycle_raw(imm_upc, ncyc)
                return OperandRef("value", val, 0, 0, size)
            return step

        if mode not in flows:
            return generic
        flow = flows[mode]

        # -- effective-address closure per mode ---------------------------
        if mode is _M.REGISTER_DEFERRED:
            reg = spec.register

            def addr_fn():
                return registers[reg]
        elif mode is _M.AUTOINCREMENT:
            reg = spec.register

            def addr_fn():
                addr = registers[reg]
                registers[reg] = (addr + size) & _WORD
                return addr
        elif mode is _M.AUTODECREMENT:
            reg = spec.register
            update_upc = flow.update

            def addr_fn():
                addr = (registers[reg] - size) & _WORD
                registers[reg] = addr
                cycle_raw(update_upc)
                return addr
        elif mode is _M.AUTOINC_DEFERRED:
            reg = spec.register
            ptr_upc = flow.ptr

            def addr_fn():
                ptr = registers[reg]
                registers[reg] = (ptr + 4) & _WORD
                return read(ptr, 4, ptr_upc)
        elif mode is _M.ABSOLUTE:
            imm_upc = flow.imm
            const_addr = spec.value

            def addr_fn():
                cycle_raw(imm_upc)
                return const_addr
        elif mode is _M.DISPLACEMENT:
            reg = spec.register
            disp = spec.displacement
            if spec.disp_size > 1:
                calc_upc = flow.calc

                def addr_fn():
                    cycle_raw(calc_upc)
                    return (registers[reg] + disp) & _WORD
            else:
                def addr_fn():
                    return (registers[reg] + disp) & _WORD
        elif mode is _M.DISP_DEFERRED:
            reg = spec.register
            disp = spec.displacement
            need_calc = spec.disp_size > 1
            calc_upc = flow.calc
            update_upc = flow.update
            ptr_upc = flow.ptr

            def addr_fn():
                if need_calc:
                    cycle_raw(calc_upc)
                ptr = (registers[reg] + disp) & _WORD
                cycle_raw(update_upc)  # indirect pointer staging
                return read(ptr, 4, ptr_upc)
        elif mode is _M.RELATIVE:
            const_addr = (inst.address + spec.end_offset
                          + spec.displacement) & _WORD
            if spec.disp_size > 1:
                calc_upc = flow.calc

                def addr_fn():
                    cycle_raw(calc_upc)
                    return const_addr
            else:
                def addr_fn():
                    return const_addr
        elif mode is _M.RELATIVE_DEFERRED:
            const_ptr = (inst.address + spec.end_offset
                         + spec.displacement) & _WORD
            need_calc = spec.disp_size > 1
            calc_upc = flow.calc
            update_upc = flow.update
            ptr_upc = flow.ptr

            def addr_fn():
                if need_calc:
                    cycle_raw(calc_upc)
                cycle_raw(update_upc)
                return read(const_ptr, 4, ptr_upc)
        else:
            return generic

        if spec.indexed:
            base_fn = addr_fn
            xreg = spec.index_register
            index_upc = self.u.index_calc

            def addr_fn():
                addr = base_fn()
                addr = (addr + sign_extend(registers[xreg], 4) * size) \
                    & _WORD
                cycle_raw(index_upc)
                return addr

        # -- access-type closure ------------------------------------------
        if access == "r":
            read_upc = flow.read
            if size <= 4:
                def step():
                    return OperandRef("value",
                                      read(addr_fn(), size, read_upc),
                                      0, 0, size)
            else:
                def step():
                    addr = addr_fn()
                    value = read(addr, 4, read_upc)
                    value |= read((addr + 4) & _WORD, 4, read_upc) << 32
                    return OperandRef("value", value, 0, 0, size)
            return step
        if access == "m":
            read_upc = flow.read
            write_upc = flow.write
            if size <= 4:
                def step():
                    addr = addr_fn()
                    return OperandRef("mem", read(addr, size, read_upc),
                                      0, addr, size, write_upc)
            else:
                def step():
                    addr = addr_fn()
                    value = read(addr, 4, read_upc)
                    value |= read((addr + 4) & _WORD, 4, read_upc) << 32
                    return OperandRef("mem", value, 0, addr, size,
                                      write_upc)
            return step
        if access == "w":
            write_upc = flow.write

            def step():
                return OperandRef("mem", 0, 0, addr_fn(), size, write_upc)
            return step
        if access in ("a", "v"):
            # Address formation for non-scalar data is specifier work
            # (§3.2); deferred modes already paid their pointer read.
            need_calc = mode in (_M.REGISTER_DEFERRED, _M.AUTOINCREMENT,
                                 _M.AUTODECREMENT, _M.DISPLACEMENT,
                                 _M.RELATIVE, _M.ABSOLUTE)
            calc_upc = flow.calc
            if access == "a":
                def step():
                    addr = addr_fn()
                    if need_calc:
                        cycle_raw(calc_upc)
                    return OperandRef("value", addr, 0, 0, size)
                return step
            write_upc = flow.write

            def step():
                addr = addr_fn()
                if need_calc:
                    cycle_raw(calc_upc)
                return OperandRef("mem", 0, 0, addr, size, write_upc)
            return step
        return generic

    def _evaluate_one(self, inst, spec, kind, row) -> OperandRef:
        mode = spec.mode
        access = kind.access
        size = kind.size

        if mode is _M.SHORT_LITERAL:
            if access not in ("r", "v"):
                raise IllegalOperand(
                    f"short literal with access '{access}' in "
                    f"{inst.mnemonic}")
            return OperandRef("value",
                              value=expand_short_literal(spec.value, kind),
                              size=size)

        if mode is _M.REGISTER:
            if access == "a":
                raise IllegalOperand(
                    f"register operand needs an address in {inst.mnemonic}")
            value = 0
            if access in ("r", "m"):
                value = self._reg_read(spec.register, size, spec, inst)
            if access == "r":
                return OperandRef("value", value=value, size=size)
            return OperandRef("reg", value=value, reg=spec.register,
                              size=size)

        flows = self.u.spec_flows[row]

        if mode is _M.IMMEDIATE:
            if access not in ("r", "v"):
                raise IllegalOperand(
                    f"immediate with access '{access}' in {inst.mnemonic}")
            flow = flows[mode]
            self._cycle_raw(flow.imm, 1 if size <= 4 else 2)
            return OperandRef("value", value=spec.value, size=size)

        # -- memory modes: form the effective address ---------------------
        flow = flows[mode]
        if mode is _M.REGISTER_DEFERRED:
            addr = self.registers[spec.register]
        elif mode is _M.AUTOINCREMENT:
            addr = self.registers[spec.register]
            self.registers[spec.register] = (addr + size) & _WORD
        elif mode is _M.AUTODECREMENT:
            addr = (self.registers[spec.register] - size) & _WORD
            self.registers[spec.register] = addr
            self._cycle_raw(flow.update)
        elif mode is _M.AUTOINC_DEFERRED:
            ptr = self.registers[spec.register]
            self.registers[spec.register] = (ptr + 4) & _WORD
            addr = self.read(ptr, 4, flow.ptr)
        elif mode is _M.ABSOLUTE:
            self._cycle_raw(flow.imm)
            addr = spec.value
        elif mode is _M.DISPLACEMENT:
            # Byte displacements fold into the access cycle; word and
            # longword displacements need an assembly cycle first.
            if spec.disp_size > 1:
                self._cycle_raw(flow.calc)
            addr = (self.registers[spec.register] + spec.displacement) \
                & _WORD
        elif mode is _M.DISP_DEFERRED:
            if spec.disp_size > 1:
                self._cycle_raw(flow.calc)
            ptr = (self.registers[spec.register] + spec.displacement) \
                & _WORD
            self._cycle_raw(flow.update)  # indirect pointer staging
            addr = self.read(ptr, 4, flow.ptr)
        elif mode is _M.RELATIVE:
            if spec.disp_size > 1:
                self._cycle_raw(flow.calc)
            addr = (inst.address + spec.end_offset + spec.displacement) \
                & _WORD
        elif mode is _M.RELATIVE_DEFERRED:
            if spec.disp_size > 1:
                self._cycle_raw(flow.calc)
            ptr = (inst.address + spec.end_offset + spec.displacement) \
                & _WORD
            self._cycle_raw(flow.update)
            addr = self.read(ptr, 4, flow.ptr)
        else:
            raise IllegalOperand(f"unhandled mode {mode} in {inst.mnemonic}")

        if spec.indexed:
            # Microcode sharing: index base calculation always reported in
            # SPEC2-6 (paper, Table 8 remarks).
            index = self.registers[spec.index_register]
            addr = (addr + sign_extend(index, 4) * size) & _WORD
            self._cycle_raw(self.u.index_calc)

        if access == "r":
            if size <= 4:
                value = self.read(addr, size, flow.read)
            else:
                value = self.read(addr, 4, flow.read)
                value |= self.read((addr + 4) & _WORD, 4, flow.read) << 32
            return OperandRef("value", value=value, size=size)
        if access == "m":
            value = self.read(addr, min(size, 4), flow.read)
            if size > 4:
                value |= self.read((addr + 4) & _WORD, 4, flow.read) << 32
            return OperandRef("mem", value=value, addr=addr, size=size,
                              write_upc=flow.write)
        if access == "w":
            return OperandRef("mem", addr=addr, size=size,
                              write_upc=flow.write)
        if access in ("a", "v"):
            # Address formation for non-scalar data is specifier work
            # (§3.2); deferred modes already paid their pointer read.
            if mode in (_M.REGISTER_DEFERRED, _M.AUTOINCREMENT,
                        _M.AUTODECREMENT, _M.DISPLACEMENT, _M.RELATIVE,
                        _M.ABSOLUTE):
                self._cycle_raw(flow.calc)
            if access == "a":
                return OperandRef("value", value=addr, size=size)
            return OperandRef("mem", addr=addr, size=size,
                              write_upc=flow.write)
        raise IllegalOperand(f"access '{access}' in {inst.mnemonic}")

    def store(self, ref: OperandRef, value: int) -> None:
        """Store an instruction result into an evaluated operand.

        Register stores are folded into the final execute cycle (no
        charge); memory stores are the specifier-row write the paper
        attributes to operand processing.
        """
        kind = ref.kind
        if kind == "reg":
            if ref.size == 4:
                self.registers[ref.reg] = value & _WORD
            else:
                self.reg_write(ref.reg, value, ref.size)
        elif kind == "mem":
            if ref.size <= 4:
                self.write(ref.addr, value, ref.size, ref.write_upc)
            else:
                self.write(ref.addr, value & _WORD, 4, ref.write_upc)
                self.write((ref.addr + 4) & _WORD, (value >> 32) & _WORD,
                           4, ref.write_upc)
        else:
            raise IllegalOperand("store into a read-only operand")

    # ------------------------------------------------------------------
    # branches
    # ------------------------------------------------------------------

    def take_branch(self, inst, redirect_upc: int) -> int:
        """Branch-taken path: B-DISP target calc + execute-phase redirect.

        Returns the target PC; the IB is flushed and will refill from the
        target (the refill latency surfaces as the next instruction's
        decode IB-stall, which is where the paper says most IB stall
        lives).
        """
        self._cycle_raw(self.u.bdisp_calc)
        self._cycle_raw(redirect_upc)
        target = inst.branch_target()
        self.ib.flush(target)
        return target

    def redirect(self, target: int, redirect_upc: int) -> int:
        """IB redirect without a branch displacement (JMP, RET, CASE...)."""
        self._cycle_raw(redirect_upc)
        target &= _WORD
        self.ib.flush(target)
        return target

    # ------------------------------------------------------------------
    # mode switching and stacks
    # ------------------------------------------------------------------

    def set_mode(self, new_mode: int) -> None:
        """Switch access mode, banking the per-mode stack pointers."""
        current = self.psl.current_mode
        if new_mode == current:
            return
        self.mode_sps[current] = self.registers[SP]
        self.registers[SP] = self.mode_sps[new_mode]
        self.psl.current_mode = new_mode

    def push(self, value: int, upc: int) -> None:
        """Push a longword on the current stack."""
        sp = (self.registers[SP] - 4) & _WORD
        self.registers[SP] = sp
        self.write(sp, value, 4, upc)

    def pop(self, upc: int) -> int:
        """Pop a longword from the current stack."""
        sp = self.registers[SP]
        value = self.read(sp, 4, upc)
        self.registers[SP] = (sp + 4) & _WORD
        return value

    # ------------------------------------------------------------------
    # condition codes
    # ------------------------------------------------------------------

    def set_nz(self, value: int, size: int, v: bool = False,
               keep_c: bool = True) -> None:
        """The common N/Z update (C preserved unless ``keep_c`` is False)."""
        cc = self.psl.cc
        value &= MASKS[size]
        cc.n = (value & SIGN_BITS[size]) != 0
        cc.z = value == 0
        cc.v = v
        if not keep_c:
            cc.c = False
