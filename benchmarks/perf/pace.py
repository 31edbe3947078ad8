"""The host's speed, sampled inside the process being measured.

The benchmark host is shared.  The same code runs up to 1.9x slower for
seconds or minutes at a time, and the two cores slow independently, so
a loop timed in another process does not follow the program's speed.
A :class:`Pacer` runs a fixed reference loop on a timer signal every
:data:`PERIOD_S`, in the main thread of the process being measured, so
it samples the core the program runs on at the moments it runs.

:func:`at_reference` turns a wall interval of that process into seconds
at the reference speed: the interval minus the pacer's own time in it,
times :data:`REFERENCE_S` over the reference loop's mean time in it.  A
change to the program moves the interval and not the loop, so it shows
in full; a slow spell of the host moves both and cancels.
"""

from __future__ import annotations

import signal
import time

#: Seconds between two runs of the reference loop.
PERIOD_S = 0.025
#: Iterations of the reference loop per run.
LOOPS = 4_000
#: The reference loop's CPU time on the development host at its usual
#: speed: a run at the reference speed takes this long.
REFERENCE_S = 0.00075


def reference_loop(loops: int = LOOPS) -> int:
    """Dictionary, list and integer work, like the simulator's."""
    table, keys = {}, []
    for number in range(loops):
        key = number & 63
        table[key] = table.get(key, 0) + number * 3 % 7
        keys.append(key)
    return len(keys)


class Pacer:
    """Times :func:`reference_loop` every :data:`PERIOD_S` until stopped.

    ``bursts`` holds ``[start, end, cpu]`` per run of the loop: its
    ``time.monotonic()`` interval, comparable across processes, and its
    CPU time in the main thread, which leaves out any wait for another
    thread to release the interpreter lock.  Python runs signal handlers
    in the main thread only, so :meth:`start` must be called there.
    """

    def __init__(self):
        self.bursts = []

    def _tick(self, _signum, _frame) -> None:
        start, cpu = time.monotonic(), time.thread_time()
        reference_loop()
        self.bursts.append([start, time.monotonic(),
                            time.thread_time() - cpu])

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def paused(bursts, start: float, end: float) -> float:
    """Seconds of ``[start, end]`` the reference loop took."""
    return sum(max(0.0, min(b_end, end) - max(b_start, start))
               for b_start, b_end, _cpu in bursts)


def speed(bursts, start: float, end: float) -> float:
    """The host's speed over ``[start, end]``: 1.0 is the reference.

    Raises ValueError when the loop never ran in the interval.
    """
    cpus = [cpu for b_start, _end, cpu in bursts if start <= b_start <= end]
    if not cpus:
        raise ValueError(f"no reference loop ran in a {end - start:.3f} s "
                         f"interval")
    return REFERENCE_S * len(cpus) / sum(cpus)


def at_reference(bursts, start: float, end: float) -> float:
    """Seconds ``[start, end]`` takes at the reference speed."""
    return (end - start - paused(bursts, start, end)) \
        * speed(bursts, start, end)
