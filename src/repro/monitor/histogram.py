"""The µPC histogram board (the paper's novel instrument, §2.2).

A general-purpose histogram count board with 16,000-odd addressable count
locations, incremented at microcode execution rate.  The board keeps *two*
sets of counts (§4.3): one for non-stalled microinstructions and one for
read-/write-stalled cycles, so that the non-stalled count at address X is
the number of successful executions of the microinstruction at X while the
stalled count at X is the number of cycles that microinstruction spent
stalled.

IB-stall cycles are not a separate count set: the decode hardware
dispatches to a distinct "insufficient bytes" microaddress, and the number
of executions of *that* microinstruction is the IB-stall cycle count — the
board just sees them as ordinary executions (§4.3).

The board is passive: counting has no effect on simulated time.

Snapshots sum elementwise in pure Python over ``array('q')`` count sets.
The composite is at most a handful of such sums per run (a memoised
measurement does none), so a vector library would cost every process
more to import than it could ever save here.
"""

from __future__ import annotations

import operator
from array import array

from repro.ucode.controlstore import CONTROL_STORE_SIZE


class Histogram:
    """An immutable-ish snapshot of the two count sets.

    Snapshots support addition, which is how the paper's *composite*
    workload is formed: "the sum of the five µPC histograms" (§2.2).
    The count sets are ``array('q')`` (signed 64-bit, like the board's
    count locations): compact, and ``sum`` over them runs at C speed.
    The live :class:`HistogramBoard` keeps plain lists, which are faster
    for the single-bucket increments the µPC lines drive.
    """

    __slots__ = ("nonstalled", "stalled")

    def __init__(self, nonstalled, stalled) -> None:
        self.nonstalled = array("q", nonstalled)
        self.stalled = array("q", stalled)

    def __add__(self, other: "Histogram") -> "Histogram":
        if len(self.nonstalled) != len(other.nonstalled):
            raise ValueError("cannot sum histograms of different sizes")
        return Histogram(
            map(operator.add, self.nonstalled, other.nonstalled),
            map(operator.add, self.stalled, other.stalled))

    @property
    def size(self) -> int:
        """Number of buckets."""
        return len(self.nonstalled)

    def total_cycles(self) -> int:
        """All counted cycles: executions plus stall cycles."""
        return sum(self.nonstalled) + sum(self.stalled)

    def executions(self, address: int) -> int:
        """Non-stalled count at ``address``."""
        return self.nonstalled[address]

    def stall_cycles(self, address: int) -> int:
        """Stalled count at ``address``."""
        return self.stalled[address]


class HistogramBoard:
    """The live count board attached to the processor's µPC lines."""

    def __init__(self, size: int = CONTROL_STORE_SIZE) -> None:
        self.size = size
        self.nonstalled = [0] * size
        self.stalled = [0] * size
        #: Counting gate.  The measurement session clears this while the
        #: Null process runs, reproducing the paper's exclusion of Null.
        self.enabled = True

    def count(self, address: int, n: int = 1) -> None:
        """Record ``n`` non-stalled executions at ``address``."""
        if self.enabled:
            self.nonstalled[address] += n

    def count_stall(self, address: int, cycles: int) -> None:
        """Record ``cycles`` stalled cycles at ``address``."""
        if self.enabled and cycles:
            self.stalled[address] += cycles

    def clear(self) -> None:
        """Zero both count sets (Unibus clear command)."""
        for i in range(self.size):
            self.nonstalled[i] = 0
            self.stalled[i] = 0

    def snapshot(self) -> Histogram:
        """Read out both count sets."""
        return Histogram(self.nonstalled, self.stalled)
