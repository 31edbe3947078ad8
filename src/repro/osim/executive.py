"""The executive: builds a bootable system around a workload profile.

An :class:`Executive` lays out physical memory (SCB, kernel code and data,
kernel stacks, PCBs, page tables, user frames), generates the kernel,
maps and initialises one process per profile slot, installs devices and
scheduler hooks, boots through the kernel's own VAX boot sequence, and
runs a measurement window.

A process's user program is generated and copied into its frames when
the scheduler first selects it (the ``PR_NEXTPCB`` hook), not at boot:
both context-switch paths of the kernel read NEXTPCB before LDPCTX, so
the bytes are in place before the process's space can become current,
and the copy is untimed.  Where a program lives depends only on the
profile (:class:`~repro.workloads.codegen.ProgramLayout`), so boot lays
every process out, frame for frame, as if its program were there; a
process the run never dispatches is never generated.

The programs come from :func:`generate_programs`, the one place that
seeds each process's generator.  They depend only on the profile and the
seed, never on the machine's timing params, so a caller booting several
machines for one (profile, seed) — the cohort runner across a params
sweep — may share one set between their executives.

Physical layout (all below the S0 page table at the top of memory)::

    0x08000  kernel data (queues, scalars)          [identity S0]
    0x10000  kernel code                            [identity S0]
    0x20000  SCB (vector table)
    0x28000  kernel stacks, one page per process    [identity S0]
    0x38000  PCBs, 256 bytes each
    0x40000  process page tables (P0 + P1 per process)
    0x100000 user page frames (bump-allocated)
"""

from __future__ import annotations

import struct

from repro.arch.registers import KERNEL, SP, USER
from repro.cpu.machine import (SCB_CHMK, SCB_CLOCK, SCB_PAGE_FAULT,
                               SCB_SOFTWARE_BASE, SCB_TERMINAL, VAX780,
                               s0_table_base)
from repro.cpu.executors.system import (PCB_AP, PCB_FP, PCB_KSP, PCB_PC,
                                        PCB_PSL, PCB_USP)
from repro.obs import metrics
from repro.osim import kernelgen
from repro.osim.devices import IntervalClock, TerminalMux
from repro.osim.kernelgen import (KDATA_VA, PR_BLOCK, PR_NEXTPCB,
                                  PR_QUANTUM, PR_TTYAST, SOFTINT_AST,
                                  SOFTINT_RESCHED, build_kernel,
                                  initial_kernel_data)
from repro.osim.process import Process
from repro.osim.scheduler import Scheduler
from repro.vm.address import P1_BASE, PAGE_SHIFT, S0_BASE
from repro.vm.pagetable import AddressSpace, RegionTable, pte_run
from repro.workloads.codegen import ProgramGenerator, ProgramLayout
from repro.workloads.profiles import MixProfile

_WORD = 0xFFFFFFFF

# physical layout constants
KDATA_PA = 0x8000
KCODE_PA = 0x10000
SCB_PA = 0x20000
KSTACK_PA = 0x28000
PCB_PA = 0x38000
PTBL_PA = 0x40000
FRAMES_PA = 0x100000

#: bytes reserved per process page-table slot (P0 then P1).
PTBL_SLOT = 0x4000
P1_TABLE_OFFSET = 0x3000
#: user stack: 32 pages at the bottom of P1.
USER_STACK_PAGES = 32


class LayoutError(ValueError):
    """A workload whose processes do not fit in the machine's memory."""


def p0_pages(profile: MixProfile) -> int:
    """Pages in the P0 table of one process of ``profile``: code, data
    and strings, plus one."""
    return (ProgramLayout.of(profile).end >> PAGE_SHIFT) + 1


def check_memory(profile: MixProfile, memory_bytes: int) -> None:
    """Raise :class:`LayoutError` unless the user frames of a
    ``memory_bytes`` machine hold every process of ``profile``."""
    per_process = p0_pages(profile) + USER_STACK_PAGES
    needed = profile.processes * per_process
    available = max(0, (s0_table_base(memory_bytes) >> PAGE_SHIFT)
                    - (FRAMES_PA >> PAGE_SHIFT))
    if needed > available:
        raise LayoutError(
            f"workload {profile.name!r} needs {needed} user page frames "
            f"({profile.processes} processes of {per_process}), but "
            f"memory_bytes={memory_bytes} leaves {available}")


class Executive:
    """A booted VMS-like system running one workload profile."""

    def __init__(self, machine: VAX780, profile: MixProfile,
                 seed: int = 1984, programs=None) -> None:
        """``programs``: what :func:`generate_programs` returns for
        ``(profile, seed)``; None starts a fresh set."""
        check_memory(profile, machine.params.memory_bytes)
        self.machine = machine
        self.profile = profile
        self.seed = seed
        self.processes = []
        self.programs = (generate_programs(profile, seed)
                         if programs is None else programs)
        self._layout = ProgramLayout.of(profile)
        self._frame_cursor = FRAMES_PA >> PAGE_SHIFT
        #: PCB base -> (ASID, physical base of P0) of every process
        #: whose program is not loaded yet.
        self._unloaded = {}

        machine.map_s0_identity()
        self._load_kernel()
        self._build_null_process()
        self.scheduler = Scheduler(
            machine, self.null_process,
            quantum_ticks=profile.quantum_ticks,
            io_block_cycles=profile.io_block_cycles,
            seed=seed + 17)
        self._install_hooks()
        for asid in range(1, profile.processes + 1):
            self._build_process(asid)
        self._install_devices()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _load_kernel(self) -> None:
        m = self.machine
        self.kernel = build_kernel(scb_pa=SCB_PA, seed=self.seed)
        m.mem.load_image(KCODE_PA, self.kernel.code)
        m.mem.load_image(KDATA_PA, initial_kernel_data(self.seed + 1))
        # SCB vectors.
        handlers = self.kernel.handlers
        for offset, name in (
                (SCB_PAGE_FAULT, "page_fault"),
                (SCB_CHMK, "chmk"),
                (SCB_CLOCK, "clock"),
                (SCB_TERMINAL, "terminal"),
                (SCB_SOFTWARE_BASE + 4 * SOFTINT_AST, "ast"),
                (SCB_SOFTWARE_BASE + 4 * SOFTINT_RESCHED, "resched")):
            m.mem.debug_write(SCB_PA + offset, handlers[name], 4)

    def _build_null_process(self) -> None:
        m = self.machine
        pcb = PCB_PA  # slot 0
        kstack_top = S0_BASE + KSTACK_PA + 0xF00
        space = AddressSpace(asid=0, p0=RegionTable(PTBL_PA, 0),
                             p1=RegionTable(PTBL_PA + P1_TABLE_OFFSET, 0))
        self.null_process = Process("null", 0, space, pcb, kstack_top)
        self.null_process.is_null = True
        self._init_pcb(pcb, registers={}, pc=self.kernel.null_entry,
                       psl_mode=KERNEL, usp=0, ksp=kstack_top)
        m.register_address_space(pcb, space)

    def _build_process(self, asid: int) -> None:
        """Map process ``asid``'s P0 (code, data, strings) and P1 (stack)
        onto the next free frames and initialise its PCB.

        The frames are consecutive, P0's first, so each table is one
        run of PTEs and P0 is physically contiguous.
        """
        m = self.machine
        layout = self._layout
        p0_table = RegionTable(PTBL_PA + asid * PTBL_SLOT,
                               p0_pages(self.profile))
        p1_table = RegionTable(p0_table.base_pa + P1_TABLE_OFFSET,
                               USER_STACK_PAGES)
        space = AddressSpace(asid=asid, p0=p0_table, p1=p1_table)
        p0_frame = self._frame_cursor
        p1_frame = p0_frame + p0_table.length
        self._frame_cursor = p1_frame + p1_table.length
        m.mem.load_image(p0_table.base_pa,
                         pte_run(p0_frame, p0_table.length))
        m.mem.load_image(p1_table.base_pa,
                         pte_run(p1_frame, p1_table.length))

        pcb = PCB_PA + 0x100 * asid
        kstack_top = S0_BASE + KSTACK_PA + 0x1000 * asid + 0xF00
        usp = P1_BASE + (USER_STACK_PAGES << PAGE_SHIFT) - 64
        self._init_pcb(
            pcb,
            registers={10: layout.string_base, 11: layout.data_base,
                       PCB_AP: usp, PCB_FP: usp},
            pc=layout.entry, psl_mode=USER, usp=usp, ksp=kstack_top)
        m.register_address_space(pcb, space)

        process = Process(f"{self.profile.name}-p{asid}", asid, space,
                          pcb, kstack_top)
        self.processes.append(process)
        self.scheduler.add_process(process)
        self._unloaded[pcb] = (asid, p0_frame << PAGE_SHIFT)

    def _load(self, pcb: int) -> None:
        """Copy a process's program into its P0 frames (untimed)."""
        asid, p0_pa = self._unloaded.pop(pcb)
        program = self.programs[asid]
        load_image = self.machine.mem.load_image
        load_image(p0_pa + program.code_base, program.code)
        load_image(p0_pa + program.data_base, program.data_init)
        load_image(p0_pa + program.string_base, program.string_init)

    def _init_pcb(self, pcb_pa: int, registers: dict, pc: int,
                  psl_mode: int, usp: int, ksp: int) -> None:
        m = self.machine
        image = [0] * 18
        for reg, value in registers.items():
            image[reg] = value
        image[PCB_USP] = usp
        image[PCB_PC] = pc
        image[PCB_PSL] = (psl_mode & 3) << 24
        image[PCB_KSP] = ksp
        for i, value in enumerate(image):
            m.mem.debug_write(pcb_pa + 4 * i, value & _WORD, 4)

    def _next_pcb(self) -> int:
        """PR_NEXTPCB: the scheduler's choice, its program loaded the
        first time it is chosen."""
        pcb = self.scheduler.next_pcb()
        if pcb in self._unloaded:
            self._load(pcb)
        return pcb

    def _install_hooks(self) -> None:
        m = self.machine
        sched = self.scheduler
        m.pr_mfpr_hooks[PR_NEXTPCB] = self._next_pcb
        m.pr_mfpr_hooks[PR_QUANTUM] = sched.quantum_expired
        m.pr_mfpr_hooks[PR_TTYAST] = sched.tty_ast_due
        m.pr_mtpr_hooks[PR_BLOCK] = sched.block_current

    def _install_devices(self) -> None:
        m = self.machine
        self.clock = IntervalClock(self.profile.clock_period_cycles,
                                   SCB_CLOCK)
        self.terminal = TerminalMux(self.profile.terminal_period_cycles,
                                    SCB_TERMINAL, seed=self.seed + 9)
        m.devices.append(self.clock)
        m.devices.append(self.terminal)

    # ------------------------------------------------------------------
    # boot and run
    # ------------------------------------------------------------------

    def boot(self) -> None:
        """Point the machine at the kernel's boot sequence."""
        m = self.machine
        e = m.ebox
        e.psl.current_mode = KERNEL
        e.psl.ipl = 31
        boot_stack = S0_BASE + KSTACK_PA + 0xFF0
        e.registers[SP] = boot_stack
        e.mode_sps[KERNEL] = boot_stack
        # The boot REI needs a PC/PSL pair; the LDPCTX before it pushes
        # the first process's.  Boot runs with interrupts masked.
        e.pc = self.kernel.boot_entry
        e.ib.flush(e.pc)

    def run(self, measured_instructions: int,
            cycle_limit: int = None) -> None:
        """Run until the tracer has seen ``measured_instructions``."""
        run_until(self.machine, measured_instructions, cycle_limit)


class ProgramSet:
    """The programs of one (profile, seed), by ASID, each generated the
    first time it is asked for and kept.

    Process ``asid`` (1-based) gets its own generator, seeded ``seed *
    1000 + asid``, so a program is the same whichever others were
    generated before it.  ``workloads.programs`` counts generations.
    """

    __slots__ = ("profile", "seed", "_programs")

    def __init__(self, profile: MixProfile, seed: int) -> None:
        self.profile = profile
        self.seed = seed
        self._programs = {}

    def __getitem__(self, asid: int):
        program = self._programs.get(asid)
        if program is None:
            program = ProgramGenerator(
                self.profile, seed=self.seed * 1000 + asid).generate()
            metrics.counter("workloads.programs").inc()
            self._programs[asid] = program
        return program


def generate_programs(profile: MixProfile, seed: int) -> ProgramSet:
    """The program set of ``(profile, seed)``: nothing is generated
    until a process's program is first asked for."""
    return ProgramSet(profile, seed)


#: The run loop's failure message for a halted machine.
HALTED_ERROR = "machine halted during workload run"


def run_until(machine: VAX780, measured_instructions: int,
              cycle_limit: int = None) -> None:
    """Step a booted machine until its tracer has seen the budget.

    The one measured-run loop: :meth:`Executive.run` and the batch
    engine (which calls it once per capture boundary on a machine it
    keeps running) share it.  The halted check precedes the cycle-limit
    check (default: 400 cycles per measured instruction) at every
    state, and both raise :class:`RuntimeError`.
    """
    tracer = machine.tracer
    ebox = machine.ebox
    step = machine.step
    if cycle_limit is None:
        cycle_limit = measured_instructions * 400
    while tracer.instructions < measured_instructions:
        if machine.halted:
            raise RuntimeError(HALTED_ERROR)
        if ebox.now > cycle_limit:
            raise RuntimeError(
                f"cycle limit hit: {tracer.instructions} of "
                f"{measured_instructions} instructions measured")
        step()
