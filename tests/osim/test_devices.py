"""Interrupting devices: the interval clock and the terminal lines.

Each device is polled on a bare machine at chosen simulated times;
``tests/osim/test_executive.py`` covers both inside a running executive.
"""

from repro.cpu.machine import SCB_CLOCK, SCB_TERMINAL, VAX780
from repro.osim.devices import (IPL_CLOCK, IPL_TERMINAL, IntervalClock,
                                TerminalMux)


def pending(machine) -> list:
    return [(p.ipl, p.scb_offset) for p in machine._hw_pending]


def characters(mean_period: int, seed: int = 5,
               window: int = 4_000_000, step: int = 50) -> int:
    """Characters a mux delivers over ``window`` cycles, polled every
    ``step`` cycles, with each interrupt acknowledged before the next
    poll."""
    machine = VAX780()
    mux = TerminalMux(mean_period, SCB_TERMINAL, seed=seed)
    for now in range(0, window, step):
        machine.ebox.now = now
        machine._hw_pending.clear()
        mux.poll(machine)
    return mux.characters


class TestTerminalMux:
    def test_posts_interrupts(self):
        machine = VAX780()
        mux = TerminalMux(500, SCB_TERMINAL)
        machine.ebox.now = 10 ** 9      # the first arrival is due
        mux.poll(machine)
        assert mux.characters == 1
        assert pending(machine) == [(IPL_TERMINAL, SCB_TERMINAL)]

    def test_waits_for_the_next_arrival(self):
        machine = VAX780()
        mux = TerminalMux(500, SCB_TERMINAL)
        machine.ebox.now = mux.next_fire - 1
        mux.poll(machine)
        assert mux.characters == 0
        assert pending(machine) == []

    def test_does_not_double_post(self):
        machine = VAX780()
        mux = TerminalMux(500, SCB_TERMINAL)
        machine.ebox.now = 10 ** 9
        mux.poll(machine)
        machine.ebox.now = mux.next_fire    # due again, line still asserted
        mux.poll(machine)
        assert mux.characters == 1
        assert pending(machine) == [(IPL_TERMINAL, SCB_TERMINAL)]

    def test_arrival_gaps_are_at_least_200_cycles(self):
        machine = VAX780()
        mux = TerminalMux(100, SCB_TERMINAL, seed=3)
        for _ in range(2000):
            now = mux.next_fire
            machine.ebox.now = now
            machine._hw_pending.clear()
            mux.poll(machine)
            assert mux.next_fire - now >= 200
        assert mux.characters == 2000

    def test_shorter_period_more_traffic(self):
        assert characters(2000) > characters(32000)

    def test_mean_gap_tracks_the_period(self):
        expected = 4_000_000 / 8000
        assert abs(characters(8000) - expected) <= 0.1 * expected

    def test_seed_fixes_the_arrivals(self):
        def arrivals(seed: int) -> list:
            machine = VAX780()
            mux = TerminalMux(3000, SCB_TERMINAL, seed=seed)
            times = []
            for _ in range(50):
                times.append(mux.next_fire)
                machine.ebox.now = mux.next_fire
                machine._hw_pending.clear()
                mux.poll(machine)
            return times

        assert arrivals(7) == arrivals(7)
        assert arrivals(7) != arrivals(8)


class TestIntervalClock:
    def test_ticks_once_per_period(self):
        machine = VAX780()
        clock = IntervalClock(6000, SCB_CLOCK)
        machine.ebox.now = 5999
        clock.poll(machine)
        assert clock.ticks == 0
        machine.ebox.now = 6000
        clock.poll(machine)
        assert clock.ticks == 1
        assert pending(machine) == [(IPL_CLOCK, SCB_CLOCK)]
        assert clock.next_fire == 12000

    def test_drops_a_tick_while_the_last_is_pending(self):
        machine = VAX780()
        clock = IntervalClock(6000, SCB_CLOCK)
        machine.ebox.now = 6000
        clock.poll(machine)
        machine.ebox.now = 12000
        clock.poll(machine)
        assert clock.ticks == 1
        assert pending(machine) == [(IPL_CLOCK, SCB_CLOCK)]
        assert clock.next_fire == 18000
