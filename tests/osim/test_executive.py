"""Executive integration: boot, scheduling, syscalls, devices, gating."""

import pytest

from repro.arch.registers import USER
from repro.cpu.machine import VAX780
from repro.osim.executive import (USER_STACK_PAGES, Executive,
                                  LayoutError, check_memory, p0_pages)
from repro.osim.process import BLOCKED, READY
from repro.params import VAX780 as STOCK
from repro.vm.address import PAGE_BYTES, PAGE_SHIFT
from repro.workloads.profiles import MixProfile, TIMESHARING_RESEARCH


@pytest.fixture(scope="module")
def booted():
    """A booted executive that has run a short measurement window."""
    machine = VAX780()
    executive = Executive(machine, TIMESHARING_RESEARCH, seed=77)
    executive.boot()
    executive.run(16000)
    return machine, executive


class TestBootAndRun:
    def test_measured_window_reached(self, booted):
        machine, _ = booted
        assert machine.tracer.instructions >= 16000

    def test_user_mode_reached(self, booted):
        machine, executive = booted
        # At least one real process got dispatched.
        assert executive.scheduler.current is not None

    def test_kernel_and_user_instructions_mix(self, booted):
        machine, _ = booted
        # System services / REI executed (kernel activity measured).
        assert machine.tracer.opcode_counts["REI"] > 0

    def test_context_switches_happened(self, booted):
        machine, _ = booted
        assert machine.tracer.context_switches > 0
        assert machine.tracer.opcode_counts["LDPCTX"] == \
            machine.tracer.context_switches

    def test_interrupts_delivered(self, booted):
        machine, _ = booted
        assert machine.tracer.interrupts > 0

    def test_software_interrupts_requested(self, booted):
        machine, _ = booted
        assert machine.tracer.software_interrupt_requests > 0

    def test_no_page_faults_in_steady_state(self, booted):
        machine, _ = booted
        assert machine.tracer.page_faults == 0

    def test_tb_flushed_on_switch(self, booted):
        machine, _ = booted
        assert machine.tb.stats.flushes >= \
            machine.tracer.context_switches

    def test_histogram_tracks_tracer(self, booted):
        machine, _ = booted
        from repro.analysis import Reduction
        red = Reduction(machine.board.snapshot())
        # Gating applies to both instruments identically, so the counts
        # agree exactly.
        assert red.instructions == machine.tracer.instructions


class TestScheduler:
    def make_executive(self, **overrides):
        profile = MixProfile(name="t", description="t", processes=2,
                             **overrides)
        machine = VAX780()
        return machine, Executive(machine, profile, seed=5)

    def test_next_pcb_round_robin(self):
        machine, executive = self.make_executive()
        sched = executive.scheduler
        first = sched.next_pcb()
        sched.current.state = READY
        second = sched.next_pcb()
        assert first != second

    def test_block_and_wake(self):
        machine, executive = self.make_executive()
        sched = executive.scheduler
        sched.next_pcb()
        victim = sched.current
        sched.block_current(0)
        assert victim.state == BLOCKED
        # Wake time in the future: not ready yet.
        sched.next_pcb()
        assert victim.state == BLOCKED
        machine.ebox.now = victim.wake_cycle + 1
        sched.next_pcb()
        assert victim.state in (READY, "running")

    def test_null_selected_when_all_blocked(self):
        machine, executive = self.make_executive()
        sched = executive.scheduler
        for process in sched.processes:
            process.state = BLOCKED
            process.wake_cycle = 10 ** 12
        pcb = sched.next_pcb()
        assert pcb == executive.null_process.pcb_base
        # Null gates the instruments off (paper §2.2).
        assert not machine.board.enabled
        assert not machine.tracer.enabled

    def test_gate_reopens_for_real_process(self):
        machine, executive = self.make_executive()
        sched = executive.scheduler
        for process in sched.processes:
            process.state = BLOCKED
            process.wake_cycle = 0
        sched.next_pcb()
        assert machine.board.enabled

    def test_quantum_expiry(self):
        machine, executive = self.make_executive(quantum_ticks=2)
        sched = executive.scheduler
        sched.next_pcb()
        assert sched.quantum_expired() == 0
        assert sched.quantum_expired() == 1


class TestDevices:
    def test_clock_fires_periodically(self, booted):
        machine, executive = booted
        assert executive.clock.ticks > 0

    def test_terminal_characters_arrive(self, booted):
        machine, executive = booted
        assert executive.terminal.characters > 0

    def test_clock_period_roughly_respected(self, booted):
        machine, executive = booted
        expected = machine.cycles / executive.clock.period
        assert executive.clock.ticks <= expected + 2


class TestNullExclusion:
    def test_null_instructions_not_measured(self):
        profile = MixProfile(name="idle", description="idle", processes=1,
                             io_block_cycles=200000)
        machine = VAX780()
        executive = Executive(machine, profile, seed=9)
        executive.boot()
        executive.run(2000)
        # Force the only process into an I/O wait and request the
        # rescheduling software interrupt, exactly as svc_qio does.
        executive.scheduler.block_current(0)
        machine.sisr |= 1 << 3
        for _ in range(200):
            machine.step()
        assert executive.scheduler.current.is_null
        assert not machine.board.enabled
        measured_before = machine.board.snapshot().total_cycles()
        for _ in range(500):
            machine.step()  # Null spins, unmeasured
        assert machine.board.snapshot().total_cycles() == measured_before
        assert machine.cycles > measured_before


class TestMemoryFit:
    """The frames a profile's processes need are known before boot."""

    def test_too_small_a_memory_names_workload_and_frames(self):
        machine = VAX780(STOCK.with_overrides(memory_bytes=1 << 20))
        needed = TIMESHARING_RESEARCH.processes * (
            p0_pages(TIMESHARING_RESEARCH) + USER_STACK_PAGES)
        with pytest.raises(LayoutError) as exc:
            Executive(machine, TIMESHARING_RESEARCH)
        message = str(exc.value)
        assert repr(TIMESHARING_RESEARCH.name) in message
        assert f"needs {needed} user page frames" in message
        assert message.endswith("leaves 0")

    def test_the_smallest_memory_that_fits_is_filled_and_runs(self):
        """At the smallest accepted memory the processes take every
        user frame up to the S0 table, and the system runs; a page
        less is refused."""
        pages = 1
        while True:
            try:
                check_memory(TIMESHARING_RESEARCH, pages * PAGE_BYTES)
                break
            except LayoutError:
                pages += 1
        machine = VAX780(STOCK.with_overrides(
            memory_bytes=pages * PAGE_BYTES))
        executive = Executive(machine, TIMESHARING_RESEARCH, seed=77)
        assert executive._frame_cursor == machine.s0_table_pa >> PAGE_SHIFT
        executive.boot()
        executive.run(2000)
        with pytest.raises(LayoutError):
            Executive(VAX780(STOCK.with_overrides(
                memory_bytes=(pages - 1) * PAGE_BYTES)),
                TIMESHARING_RESEARCH)
