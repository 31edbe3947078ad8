"""The VAX-11/780 machine model: Figure 1 of the paper, wired together.

A :class:`VAX780` owns the CPU pipeline (I-Fetch + IB, I-Decode, EBOX),
the memory subsystem (TB, cache, write buffer, SBI, memory), the µPC
histogram board, the ground-truth tracer, and the devices/interrupt
machinery the executive hangs off.

The per-instruction loop in :meth:`VAX780.step` follows §2.1: one
non-overlapped I-Decode cycle dispatched through the family's IRD address,
operand specifier processing, branch-displacement handling, then the
execute flow — with interrupt delivery checked at instruction boundaries
and page faults unwinding to the architectural exception flow.
"""

from __future__ import annotations

from repro.arch.decode import decode_instruction
from repro.arch.groups import OpcodeGroup
from repro.arch.registers import KERNEL, SP
from repro.arch.specifiers import AddressingMode
from repro.cpu import prs
from repro.cpu.ebox import EBox
from repro.cpu.executors import listing
from repro.cpu.faults import (MachineHalt, PageFaultTrap, SimulatorError,
                              UnsupportedInstructionError)
from repro.cpu.tracer import Tracer
from repro.mem.subsystem import MemorySubsystem
from repro.monitor.histogram import HistogramBoard
from repro.params import MachineParams, VAX780 as VAX780_PARAMS
from repro.ucode import costs
from repro.ucode.registry import EXECUTORS
from repro.ucode.rows import Row
from repro.vm.address import PAGE_SHIFT, S0, S0_BASE, is_system_space, make_va
from repro.vm.pagetable import (PageFault, RegionTable, Translator,
                                pte_run)
from repro.vm.tb import TranslationBuffer

_WORD = 0xFFFFFFFF

#: SCB offsets (subset of the architectural system control block).
SCB_MACHINE_CHECK = 0x04
SCB_PAGE_FAULT = 0x24
SCB_CHMK = 0x40
SCB_SOFTWARE_BASE = 0x80   # software interrupt level n vectors at 0x80+4n
SCB_CLOCK = 0xC0
SCB_TERMINAL = 0xF8

#: Families eligible for the literal/register-operand first-cycle fusion
#: (paper, Table 8 remarks: SIMPLE and FIELD groups only, and only the
#: short register-to-register style flows).
_FUSABLE_FAMILIES = frozenset({
    "MOV", "MOVZ", "MCOM", "MNEG", "CVT_INT", "ADDSUB", "INCDEC",
    "LOGICAL", "BIT", "CMP", "TST", "EXT",
})

_REG_OR_LITERAL = (AddressingMode.REGISTER, AddressingMode.SHORT_LITERAL)


def s0_table_base(memory_bytes: int) -> int:
    """Physical base of the S0 page table: one PTE per physical page, at
    the top of memory (see DESIGN.md on the single-level model)."""
    return memory_bytes - 4 * (memory_bytes >> PAGE_SHIFT)


def _refuse_step(machine) -> None:
    """Boundary hook of a released machine (see :meth:`VAX780.release`)."""
    raise SimulatorError(f"machine {machine.name!r} was released and "
                         "cannot step")


class PendingInterrupt:
    """One posted hardware interrupt.

    The machine keeps posted interrupts sorted by ascending IPL (ties in
    posting order), so selection reads the tail instead of scanning and
    delivery deletes by index instead of ``list.remove``.
    """

    __slots__ = ("ipl", "scb_offset")

    def __init__(self, ipl: int, scb_offset: int) -> None:
        self.ipl = ipl
        self.scb_offset = scb_offset


class VAX780:
    """The complete simulated machine.

    ``ebox`` is the EBOX class to build; the differential harness
    passes its per-cycle reference spec.
    """

    def __init__(self, params: MachineParams = VAX780_PARAMS,
                 name: str = "vax780", ebox=EBox) -> None:
        self.params = params
        #: Registry name of the machine backend these params model (the
        #: timing policy is entirely params-driven; the name labels
        #: reports and unsupported-instruction errors).
        self.name = name
        _, self.umap = listing()
        self.mem = MemorySubsystem(params)
        self.tb = TranslationBuffer(params.tb_entries, params.tb_ways)
        self.board = HistogramBoard()
        self.tracer = Tracer()

        self.s0_table_pa = s0_table_base(params.memory_bytes)
        self.s0_table = RegionTable(self.s0_table_pa,
                                    params.memory_bytes >> PAGE_SHIFT)
        self.translator = Translator(self.mem.memory, self.s0_table)

        self.ebox = ebox(params, self.mem, self.tb, self.translator,
                         self.umap, self.board, self.tracer)
        self.ebox.mtpr_hook = self._mtpr
        self.ebox.mfpr_hook = self._mfpr
        self.ebox.ldpctx_hook = self._ldpctx

        #: Bound (executor function, slot map) per family — the hot path
        #: avoids registry lookups.
        self._dispatch = {
            family: (spec.func, self.umap.exec_flows[family])
            for family, spec in EXECUTORS.items()
        }
        self._decode_cache = {}
        self._patched_families = frozenset(params.patched_families)
        self._overlapped_decode = params.overlapped_decode
        for family in params.unsupported_families:
            if family not in EXECUTORS:
                raise ValueError(
                    f"unsupported_families names unknown executor "
                    f"family {family!r}")
        self._unsupported = frozenset(params.unsupported_families)
        for group_name, _ in params.exec_extra_cycles:
            if group_name not in OpcodeGroup.__members__:
                raise ValueError(
                    f"exec_extra_cycles names unknown opcode group "
                    f"{group_name!r}; choose from "
                    f"{', '.join(OpcodeGroup.__members__)}")
        self._exec_extra_by_group = dict(params.exec_extra_cycles)
        self._ird_stall = self.umap.ird_stall
        self._bdisp_stall = self.umap.bdisp_stall
        #: True when the previous instruction changed the PC (pipeline
        #: restart: the decode cycle cannot be hidden).
        self._pc_changed = True

        self.scb_base = 0
        self.iccs = 0
        self.sisr = 0          # software interrupt summary register
        self._hw_pending = []  # posted hardware interrupts
        self.devices = []      # objects with poll(machine)
        #: earliest cycle any device could be due; polls are skipped
        #: until then (devices expose ``next_fire``; one without it is
        #: simply polled every step).
        self._device_due = 0
        self._spaces_by_pcb = {}
        self.halted = False
        #: optional executive hook called at every instruction boundary.
        self.boundary_hook = None
        #: pluggable processor-register handlers (the executive installs
        #: its scheduler interface here): regnum -> callable.
        self.pr_mtpr_hooks = {}
        self.pr_mfpr_hooks = {}

    # ------------------------------------------------------------------
    # configuration helpers
    # ------------------------------------------------------------------

    @property
    def cycles(self) -> int:
        """Total elapsed EBOX cycles (200 ns each)."""
        return self.ebox.now

    def map_s0_identity(self, npages=None) -> None:
        """Identity-map the first ``npages`` of S0 onto physical frames."""
        if npages is None:
            npages = self.params.memory_bytes >> PAGE_SHIFT
        self.mem.load_image(self.s0_table.base_pa, pte_run(0, npages))

    def register_address_space(self, pcb_base: int, space) -> None:
        """Associate a PCB physical base with a process address space."""
        self._spaces_by_pcb[pcb_base] = space

    def load_s0_image(self, image) -> None:
        """Load an image assembled in S0 space (identity physical layout)."""
        if not is_system_space(image.base):
            raise SimulatorError(
                f"image base {image.base:#x} is not in S0 space")
        self.mem.load_image(image.base - S0_BASE, image.data)

    def boot(self, image, stack_va: int = None) -> None:
        """Map S0, load a kernel-mode image, and point the PC at its entry.

        Suitable for bare-metal style tests and examples; the executive in
        :mod:`repro.osim` performs a richer boot on top of this.
        """
        self.map_s0_identity()
        self.load_s0_image(image)
        self.ebox.psl.current_mode = KERNEL
        if stack_va is None:
            stack_va = image.base - 0x100
        self.ebox.registers[SP] = stack_va
        self.ebox.pc = image.entry
        self.ebox.ib.flush(image.entry)

    # ------------------------------------------------------------------
    # instruction decode (architectural; timing flows through the IB)
    # ------------------------------------------------------------------

    def _decode(self, va: int):
        if va & 0x80000000:  # is_system_space, inlined for the hot path
            key = va
        else:
            space = self.translator.current_space
            key = (va, space.asid if space is not None else -1)
        inst = self._decode_cache.get(key)
        if inst is not None:
            return inst
        translate = self.translator.translate
        read_byte = self.mem.memory.read_byte

        def fetch(addr):
            return read_byte(translate(addr & _WORD))

        inst = decode_instruction(fetch, va)
        self._decode_cache[key] = inst
        return inst

    # ------------------------------------------------------------------
    # interrupts and exceptions
    # ------------------------------------------------------------------

    def post_interrupt(self, ipl: int, scb_offset: int) -> None:
        """Post a hardware interrupt at ``ipl`` with an SCB vector.

        Insertion keeps ``_hw_pending`` sorted by ascending IPL, equal
        IPLs in posting order (the queue is nearly always empty or one
        deep, so the tail scan is effectively O(1)).
        """
        lst = self._hw_pending
        i = len(lst)
        while i > 0 and lst[i - 1].ipl > ipl:
            i -= 1
        lst.insert(i, PendingInterrupt(ipl, scb_offset))

    def _select_interrupt(self):
        """Highest-priority deliverable interrupt, or None.

        With the queue sorted, the winner — the earliest-posted among the
        maximum-IPL entries — is the head of the tail run of equal IPLs.
        """
        current_ipl = self.ebox.psl.ipl
        lst = self._hw_pending
        if lst:
            top_ipl = lst[-1].ipl
            if top_ipl > current_ipl:
                i = len(lst) - 1
                while i > 0 and lst[i - 1].ipl == top_ipl:
                    i -= 1
                return lst[i]
        if self.sisr:
            level = self.sisr.bit_length() - 1
            if level > current_ipl:
                return PendingInterrupt(level,
                                        SCB_SOFTWARE_BASE + 4 * level)
        return None

    def _deliver_interrupt(self, pending: PendingInterrupt) -> None:
        e, u = self.ebox, self.umap
        self.tracer.interrupts += 1
        # Hardware interrupts live in the sorted queue; find the entry by
        # identity from the tail (it can only sit in the >=-IPL run) and
        # delete it by index.  Anything else is a software interrupt.
        lst = self._hw_pending
        i = len(lst) - 1
        while i >= 0 and lst[i].ipl >= pending.ipl:
            if lst[i] is pending:
                break
            i -= 1
        if i >= 0 and lst[i] is pending:
            del lst[i]
        else:
            self.sisr &= ~(1 << pending.ipl)
        e._cycle_raw(u.irq_entry)
        e._cycle_raw(u.irq_grant, costs.IRQ_GRANT_CYCLES)
        psl_image = e.psl.as_long()
        e.psl.previous_mode = e.psl.current_mode
        e.set_mode(KERNEL)
        handler = e.read_phys(self.scb_base + pending.scb_offset, 4,
                              u.irq_vector_read)
        e.push(psl_image, u.irq_push_psl)
        e.push(e.pc, u.irq_push_pc)
        e.psl.ipl = pending.ipl
        e.pc = handler & _WORD
        e.ib.flush(e.pc)
        # The redirect restarts the pipeline: the next decode cannot
        # have overlapped the interrupted flow.
        self._pc_changed = True

    def _deliver_exception(self, fault: PageFaultTrap) -> None:
        e, u = self.ebox, self.umap
        self.tracer.exceptions += 1
        e._cycle_raw(u.exc_entry, costs.EXC_SETUP_CYCLES)
        psl_image = e.psl.as_long()
        e.psl.previous_mode = e.psl.current_mode
        e.set_mode(KERNEL)
        handler = e.read_phys(self.scb_base + SCB_PAGE_FAULT, 4,
                              u.irq_vector_read)
        e.push(psl_image, u.exc_push_psl)
        e.push(fault.restart_pc, u.exc_push_pc)
        e.push(fault.va, u.exc_push_param)
        e.pc = handler & _WORD
        e.ib.flush(e.pc)
        self._pc_changed = True

    # ------------------------------------------------------------------
    # MTPR / MFPR / LDPCTX hooks
    # ------------------------------------------------------------------

    def _mtpr(self, regnum: int, value: int) -> None:
        e = self.ebox
        hook = self.pr_mtpr_hooks.get(regnum)
        if hook is not None:
            hook(value)
        elif regnum == prs.PR_SIRR:
            self.sisr |= 1 << (value & 0xF)
            self.tracer.software_interrupt_requests += 1
        elif regnum == prs.PR_SISR:
            self.sisr = value & 0xFFFE
        elif regnum == prs.PR_IPL:
            e.psl.ipl = value & 0x1F
        elif regnum == prs.PR_PCBB:
            e.pcb_base = value
        elif regnum == prs.PR_SCBB:
            self.scb_base = value
            e.scb_base = value
        elif regnum == prs.PR_TBIA:
            self.tb.invalidate_all()
        elif regnum == prs.PR_TBIS:
            self.tb.invalidate_va(value)
        elif regnum == prs.PR_ICCS:
            self.iccs = value
        elif regnum == prs.PR_KSP:
            e.mode_sps[0] = value
        elif regnum == prs.PR_USP:
            e.mode_sps[3] = value
        elif regnum == prs.PR_PFFIX:
            # Simulator hook standing in for VMS's PTE rewrite: make the
            # page containing ``value`` resident (see DESIGN.md).
            self.translator.set_valid(value, True)
        else:
            raise SimulatorError(f"MTPR to unimplemented register {regnum}")

    def _mfpr(self, regnum: int) -> int:
        e = self.ebox
        hook = self.pr_mfpr_hooks.get(regnum)
        if hook is not None:
            return hook()
        if regnum == prs.PR_IPL:
            return e.psl.ipl
        if regnum == prs.PR_SISR:
            return self.sisr
        if regnum == prs.PR_PCBB:
            return e.pcb_base
        if regnum == prs.PR_SCBB:
            return self.scb_base
        if regnum == prs.PR_ICCS:
            return self.iccs
        if regnum == prs.PR_KSP:
            return e.mode_sps[0]
        if regnum == prs.PR_USP:
            return e.mode_sps[3]
        raise SimulatorError(f"MFPR from unimplemented register {regnum}")

    def _ldpctx(self, pcb_base: int) -> None:
        space = self._spaces_by_pcb.get(pcb_base)
        if space is not None:
            self.translator.set_space(space)

    # ------------------------------------------------------------------
    # the instruction loop
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Execute one instruction (plus any interrupt delivered first)."""
        if self.boundary_hook is not None:
            self.boundary_hook(self)
        e = self.ebox
        if e.now >= self._device_due:
            devices = self.devices
            if devices:
                due = 1 << 62
                for device in devices:
                    device.poll(self)
                    nf = getattr(device, "next_fire", 0)
                    if nf < due:
                        due = nf
                self._device_due = due
        if self._hw_pending or self.sisr:
            pending = self._select_interrupt()
            if pending is not None:
                self._deliver_interrupt(pending)

        pc = e.pc
        e.restart_pc = pc
        saved_registers = list(e.registers)
        if pc & 0x80000000:
            inst = self._decode_cache.get(pc)
        else:
            space = self.translator.current_space
            inst = self._decode_cache.get(
                (pc, space.asid if space is not None else -1))
        if inst is None:
            try:
                inst = self._decode(pc)
            except PageFault as fault:
                self.tracer.page_faults += 1
                self._deliver_exception(PageFaultTrap(fault.va, pc))
                return

        hot = inst.exec_info
        if hot is None:
            hot = self._compile_step_info(inst)
        ird_upc, patched, br_nbytes, func, slots, extra = hot
        try:
            ib = e.ib
            if ib.count >= 1:
                ib.count -= 1
            else:
                e.ib_take(1, self._ird_stall)
            # The decode counters share the histogram board's gate so
            # they stay 1:1 with the histogram's IRD dispatch counts.
            tracer = self.tracer
            if self._pc_changed:
                if tracer.enabled:
                    tracer.decode_dispatches += 1
                    tracer.pc_change_dispatches += 1
                e._cycle_raw(ird_upc)
            elif self._overlapped_decode:
                # 11/750-style overlap: the decode happened under the
                # previous instruction's execution.  The dispatch is
                # still counted (it is how the analysis counts
                # instructions) but costs no EBOX cycle — on such a
                # machine the histogram's decode counts are event
                # counts, not cycle counts.
                if tracer.enabled:
                    tracer.decode_dispatches += 1
                    tracer.overlapped_decodes += 1
                self.board.count(ird_upc)
            else:
                if tracer.enabled:
                    tracer.decode_dispatches += 1
                e._cycle_raw(ird_upc)
            if patched:
                e._cycle_raw(self.umap.patch_abort)
            plan = inst.eval_plan
            ops = [] if plan == () else e.evaluate_specifiers(inst)
            if br_nbytes:
                e.ib_take(br_nbytes, self._bdisp_stall)
            fused = inst.fused_upc
            if fused is None:
                fused = self._compute_fused_upc(inst)
            if fused is not False:
                e._fused_upc = fused
            if extra is not None:
                # Per-group base-cycle surcharge of a slower microcoded
                # backend, charged to the family's first compute slot so
                # it lands in the group's execute row.
                e._cycle_raw(extra[0], extra[1])
            next_pc = func(e, inst, ops, slots)
            e._fused_upc = None
            self._pc_changed = next_pc is not None
            e.pc = inst.next_pc if next_pc is None else next_pc
            self.tracer.note_instruction(inst)
        except PageFaultTrap as fault:
            e.disarm_fused_cycle()
            e.registers[:] = saved_registers
            self.tracer.instruction_aborts += 1
            self._deliver_exception(fault)
        except MachineHalt:
            self.tracer.note_instruction(inst)
            self.halted = True

    def _compile_step_info(self, inst):
        """Per-instruction dispatch constants, cached on the instruction.

        (IRD µPC, patched-family flag, branch-displacement byte count,
        execute function, µPC slot map, extra-cycle charge) — everything
        :meth:`step` would otherwise re-derive from the opcode info on
        every execution.  Subset machines reject their unimplemented
        families here, before any cycle of the instruction is charged.
        """
        info = inst.info
        family = info.family
        if family in self._unsupported:
            raise UnsupportedInstructionError(inst.mnemonic, family,
                                              self.name)
        branch = info.branch_operand
        br_nbytes = 0 if branch is None else (1 if branch.dtype == "b"
                                              else 2)
        func, slots = self._dispatch[family]
        extra = None
        n = self._exec_extra_by_group.get(info.group.name, 0)
        if n:
            for slot_name, code in EXECUTORS[family].slots.items():
                if code == "C" and slot_name != "redirect":
                    extra = (slots[slot_name], n)
                    break
        hot = (self.umap.ird[family], family in self._patched_families,
               br_nbytes, func, slots, extra)
        inst.exec_info = hot
        return hot

    def _compute_fused_upc(self, inst):
        """Fused-first-execute-cycle µPC for ``inst`` (cached on it).

        Returns the µPC when the literal/register operand optimisation
        applies, else False (None marks "not yet computed").
        """
        fused = False
        if inst.info.family in _FUSABLE_FAMILIES and inst.specifiers and \
                all(spec.mode in _REG_OR_LITERAL
                    for spec in inst.specifiers):
            row = Row.SPEC1 if len(inst.specifiers) == 1 else Row.SPEC26
            fused = self.umap.spec_fused[row]
        inst.fused_upc = fused
        return fused

    def run(self, max_instructions: int = None) -> int:
        """Run until HALT (or the instruction budget); returns steps done."""
        executed = 0
        while not self.halted:
            if max_instructions is not None and executed >= max_instructions:
                break
            self.step()
            executed += 1
        return executed

    def release(self) -> None:
        """Let reference counting free this machine once it is dropped.

        Three reference cycles run through a booted machine.  The
        EBox's MTPR, MFPR and LDPCTX hooks are the machine's own bound
        methods.  The processor-register hooks an executive installs
        are bound methods of the executive and its scheduler, which
        both hold the machine.  And until the tracer replays them, its
        pending executions hold Instructions whose specifier plans hold
        bound EBox methods, while the EBox holds the tracer.  Releasing
        clears both sets of hooks and flushes (not discards) the
        pending executions, so every counter stays exact and the
        machine, its EBox and its memory mapping go as soon as the last
        outside reference does, not at the next full collection.

        A released machine cannot step again: its boundary hook raises.
        """
        ebox = self.ebox
        ebox.mtpr_hook = ebox.mfpr_hook = ebox.ldpctx_hook = None
        self.pr_mtpr_hooks.clear()
        self.pr_mfpr_hooks.clear()
        self.tracer.flush()
        self.boundary_hook = _refuse_step

    # ------------------------------------------------------------------
    # structure (Figure 1)
    # ------------------------------------------------------------------

    def component_graph(self):
        """The block-diagram topology of Figure 1 as (nodes, edges)."""
        nodes = ["I-Fetch", "Instruction Buffer", "I-Decode", "EBOX",
                 "Translation Buffer", "Cache", "Write Buffer", "SBI",
                 "Memory"]
        edges = [
            ("I-Fetch", "Instruction Buffer"),
            ("Instruction Buffer", "I-Decode"),
            ("I-Decode", "EBOX"),
            ("EBOX", "Translation Buffer"),
            ("I-Fetch", "Translation Buffer"),
            ("Translation Buffer", "Cache"),
            ("EBOX", "Write Buffer"),
            ("Write Buffer", "SBI"),
            ("Cache", "SBI"),
            ("SBI", "Memory"),
        ]
        return nodes, edges
