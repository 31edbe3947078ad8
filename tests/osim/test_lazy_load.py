"""Programs load at first dispatch, and loading is invisible.

The executive lays every process out at boot — frames, page tables,
PCB — but generates and copies in a process's program only when the
``PR_NEXTPCB`` hook first selects it.  These tests pin what that may
and may not change: a lazy run equals, field for field, a run whose
executive loaded every program right after construction (the old
eager boot), at a budget where only some processes have run and at
one where every process has executed code of its own; the current process's frames hold its program at
every instruction boundary; only dispatched processes are generated;
and the boot page tables, written in bulk, are the bytes per-page
``map_page`` calls write.
"""

import pytest

from repro.analysis.measurement import Measurement
from repro.arch.registers import USER
from repro.cpu.faults import SimulatorError
from repro.cpu.machine import VAX780
from repro.machines.registry import MACHINES, get_machine
from repro.osim.executive import (FRAMES_PA, USER_STACK_PAGES, Executive,
                                  generate_programs, run_until)
from repro.vm.address import P0, P1, P1_BASE, PAGE_BYTES, PAGE_SHIFT, \
    S0_BASE
from repro.vm.pagetable import PFN_MASK, PTE_VALID
from repro.workloads.registry import WORKLOADS
from tests.batch.test_identity import assert_identical
from tests.helpers import record_dispatches

SEED = 1984
#: A budget at which only some processes of every workload have run.
SOME = 300
#: Runs stop at the first multiple of this past the point where every
#: process has run.
ROUND = 1000


def _cases() -> list:
    """(workload, machine) for every generator workload and machine
    that supports it."""
    return [(name, machine)
            for name, spec in WORKLOADS.items() if spec.trace is None
            for machine in MACHINES if spec.supported_on(machine)]


def boot(workload: str, machine: str, eager: bool = False) -> Executive:
    spec = get_machine(machine)
    executive = Executive(spec.build(),
                          spec.adapt_profile(WORKLOADS[workload].profile),
                          seed=SEED)
    if eager:
        load_every_process(executive)
    executive.boot()
    return executive


def load_every_process(executive: Executive) -> None:
    """Copy every program in now, page by page through each process's
    page table, as the boot did before loading became lazy (and
    without :meth:`Executive._load`, which the comparison checks)."""
    memory = executive.machine.mem.memory
    for process in executive.processes:
        program = executive.programs[process.asid]
        for va, image in ((program.code_base, program.code),
                          (program.data_base, program.data_init),
                          (program.string_base, program.string_init)):
            for pa, offset, size in p0_pieces(memory, process.space, va,
                                              len(image)):
                memory.load_image(pa, image[offset:offset + size])
    executive._unloaded.clear()


def p0_pieces(memory, space, va: int, size: int):
    """(physical address, offset, size) of each in-page piece of
    ``size`` bytes at P0 address ``va`` of ``space``, walking its page
    table (whether or not the space is current)."""
    table = space.regions[P0]
    offset = 0
    while offset < size:
        addr = va + offset
        piece = min(size - offset, PAGE_BYTES - (addr & PAGE_BYTES - 1))
        pte = memory.read(table.pte_address(addr >> PAGE_SHIFT), 4)
        assert pte & PTE_VALID
        yield (pte & PFN_MASK) << PAGE_SHIFT | addr & PAGE_BYTES - 1, \
            offset, piece
        offset += piece


def read_p0(machine, space, va: int, size: int) -> bytes:
    """``size`` bytes at P0 address ``va`` of ``space``."""
    memory = machine.mem.memory
    return b"".join(memory.read_block(pa, piece) for pa, _, piece
                    in p0_pieces(memory, space, va, size))


def record_user_instructions(machine) -> set:
    """The ASIDs that execute a user-mode instruction from now on: two
    boundaries in a row in user mode in one space have one between
    them (an interrupt taken at the first would leave kernel mode at
    the second)."""
    ran = set()
    last = [None]

    def on_boundary(machine):
        space = machine.translator.current_space
        now = (space.asid if machine.ebox.psl.current_mode == USER
               else None)
        if now is not None and now == last[0]:
            ran.add(now)
        last[0] = now

    machine.boundary_hook = on_boundary
    return ran


def lazy_and_eager(workload: str, machine: str, plant=None) -> list:
    """[(lazy, eager) Measurements] at :data:`SOME` and at a budget by
    which every process of the lazy run has executed an instruction of
    its own.  ``plant``, if given, is applied to the lazy executive
    before it runs."""
    lazy = boot(workload, machine)
    if plant is not None:
        plant(lazy)
    m = lazy.machine
    ran = record_user_instructions(m)
    run_until(m, SOME)
    pairs = [[Measurement.capture(workload, m)]]
    while len(ran) < lazy.profile.processes:
        assert m.tracer.instructions < 100_000, "a process never ran"
        m.step()
    assert not lazy._unloaded
    m.boundary_hook = None
    every = (m.tracer.instructions // ROUND + 1) * ROUND
    run_until(m, every)
    pairs.append([Measurement.capture(workload, m)])
    eager = boot(workload, machine, eager=True)
    for budget, pair in zip((SOME, every), pairs):
        run_until(eager.machine, budget)
        pair.append(Measurement.capture(workload, eager.machine))
    return pairs


class TestLoadingIsInvisible:
    @pytest.mark.parametrize("workload,machine", _cases())
    def test_lazy_run_equals_eager_run(self, workload, machine):
        for lazy, eager in lazy_and_eager(workload, machine):
            assert_identical(lazy, eager)

    def test_a_skipped_load_is_caught(self):
        """Plant a load that copies nothing for one process: the
        comparison above must then fail."""
        def skip_process_2(executive):
            real_load = executive._load

            def load(pcb):
                asid = executive._unloaded[pcb][0]
                if asid != 2:
                    real_load(pcb)
                    return
                executive._unloaded.pop(pcb)
                executive.programs[asid]    # generated, never copied

            executive._load = load

        # The process runs on zeroed memory: its measurement differs,
        # or it halts outside kernel mode first.
        with pytest.raises((AssertionError, SimulatorError)):
            for lazy, eager in lazy_and_eager(
                    "interrupt-storm", "vax780", plant=skip_process_2):
                assert_identical(lazy, eager)


class TestLoadedBeforeItRuns:
    @pytest.mark.parametrize("workload,machine",
                             [("tb-thrash", "vax780"),
                              ("interrupt-storm", "uvax78032")])
    def test_current_process_holds_its_program(self, workload, machine):
        """At every boundary, the process whose space is current and
        the one the scheduler last chose hold their code, and each
        holds its initial data and strings when its space first
        becomes current (from then on it writes them)."""
        executive = boot(workload, machine)
        programs = generate_programs(executive.profile, SEED)
        spaces = {process.asid: process.space
                  for process in executive.processes}
        first_seen = set()

        def on_boundary(machine):
            current = machine.translator.current_space
            asids = {executive.scheduler.current.asid}
            if current is not None:
                asids.add(current.asid)
            for asid in asids - {0}:
                program, space = programs[asid], spaces[asid]
                assert read_p0(machine, space, program.code_base,
                               len(program.code)) == program.code
                if space is current and asid not in first_seen:
                    first_seen.add(asid)
                    for va, image in ((program.data_base,
                                       program.data_init),
                                      (program.string_base,
                                       program.string_init)):
                        assert read_p0(machine, space, va,
                                       len(image)) == image

        executive.machine.boundary_hook = on_boundary
        executive.run(2000)
        assert len(first_seen) > 1


class TestOnlyDispatchedProcessesAreGenerated:
    @pytest.mark.parametrize("workload,machine", _cases())
    def test_generated_equals_dispatched(self, workload, machine):
        executive = boot(workload, machine)
        dispatched = record_dispatches(executive)
        executive.run(2000)
        assert dispatched
        assert sorted(executive.programs._programs) == sorted(dispatched)
        assert {asid for asid, _ in executive._unloaded.values()} == \
            set(range(1, executive.profile.processes + 1)) - dispatched


class TestBootPageTables:
    @pytest.mark.parametrize("workload,machine", _cases())
    def test_tables_equal_per_page_mapping(self, workload, machine):
        """The S0 table and every process's P0/P1 tables are the bytes
        one ``map_page`` call per page writes, on frames handed out in
        order: each process's P0 pages, then its P1 pages."""
        executive = boot(workload, machine)
        m = executive.machine
        reference = VAX780(m.params)
        t = reference.translator
        npages = m.params.memory_bytes >> PAGE_SHIFT
        for page in range(npages):
            t.map_page(S0_BASE + (page << PAGE_SHIFT), page)
        frame = FRAMES_PA >> PAGE_SHIFT
        profile = executive.profile
        for process in executive.processes:
            p0, p1 = (process.space.regions[region] for region in (P0, P1))
            assert p0.length == \
                ((0x30000 + profile.string_kb * 1024) >> PAGE_SHIFT) + 1
            assert p1.length == USER_STACK_PAGES
            t.set_space(process.space)
            for base, table in ((0, p0), (P1_BASE, p1)):
                for page in range(table.length):
                    t.map_page(base + (page << PAGE_SHIFT), frame)
                    frame += 1
        tables = [(m.s0_table_pa, 4 * npages)] + [
            (table.base_pa, 4 * table.length)
            for process in executive.processes
            for table in process.space.regions.values()]
        for base, size in tables:
            assert m.mem.memory.read_block(base, size) == \
                reference.mem.memory.read_block(base, size), hex(base)
