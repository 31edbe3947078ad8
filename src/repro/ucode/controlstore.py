"""The control store map: annotated microcode address allocation.

The real 11/780 holds its microcode in a control store of a few thousand
microwords; the histogram board shadows it with one count bucket per
address.  This module plays the role of the *microcode listing* the paper's
analysts had on their desks: every simulated micro-routine allocates its
addresses here, each annotated with the routine name, a slot name, its
Table 8 :class:`~repro.ucode.rows.Row` and its
:class:`~repro.ucode.rows.CycleKind`.  The analysis package walks these
annotations to classify every histogram bucket.

Allocation happens once per process
(:func:`repro.cpu.executors.listing`); executors hold their addresses as
plain ints, so the hot path never touches this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ucode.rows import CycleKind, Row

#: Number of addressable histogram buckets on the monitor board (§2.2).
CONTROL_STORE_SIZE = 16 * 1024


@dataclass(frozen=True)
class Annotation:
    """Metadata for one control-store address."""

    address: int
    routine: str    #: owning routine, e.g. "exec.CALL" or "spec1.displacement"
    slot: str       #: slot name within the routine, e.g. "push_regs"
    row: Row
    kind: CycleKind


class ControlStoreFullError(Exception):
    """Raised when allocation exceeds the board's bucket count."""


class FlowBlock:
    """A routine's view of its allocated addresses.

    Executors create their slots at build time::

        block = store.block("exec.CALL", Row.EX_CALLRET)
        ENTRY = block.compute("entry")
        PUSH = block.write("push_regs")

    and use the returned integer addresses on the hot path.
    """

    def __init__(self, store: "ControlStore", routine: str,
                 row: Row) -> None:
        self._store = store
        self.routine = routine
        self.row = row

    def slot(self, name: str, kind: CycleKind, row=None) -> int:
        """Allocate one address with an explicit kind (and row override)."""
        return self._store.allocate(self.routine, name,
                                    row if row is not None else self.row,
                                    kind)

    def compute(self, name: str) -> int:
        """Allocate a compute-cycle address."""
        return self.slot(name, CycleKind.COMPUTE)

    def read(self, name: str) -> int:
        """Allocate a D-stream-read address."""
        return self.slot(name, CycleKind.READ)

    def write(self, name: str) -> int:
        """Allocate a D-stream-write address."""
        return self.slot(name, CycleKind.WRITE)

    def ib_stall(self, name: str) -> int:
        """Allocate an insufficient-IB-bytes dispatch address."""
        return self.slot(name, CycleKind.IB_STALL)


class ControlStore:
    """Sequential allocator with per-address annotations."""

    def __init__(self, size: int = CONTROL_STORE_SIZE) -> None:
        self.size = size
        self._next = 0
        self._annotations: list = []

    @property
    def allocated(self) -> int:
        """Number of addresses allocated so far."""
        return self._next

    def block(self, routine: str, row: Row) -> FlowBlock:
        """Open a flow block for a routine."""
        return FlowBlock(self, routine, row)

    def allocate(self, routine: str, slot: str, row: Row,
                 kind: CycleKind) -> int:
        """Allocate one annotated address and return it."""
        if self._next >= self.size:
            raise ControlStoreFullError(
                f"control store exhausted at {self.size} addresses")
        address = self._next
        self._next += 1
        self._annotations.append(
            Annotation(address, routine, slot, row, kind))
        return address

    def annotation(self, address: int) -> Annotation:
        """The annotation for ``address``."""
        return self._annotations[address]

    def annotations(self):
        """All annotations, in address order."""
        return tuple(self._annotations)

    def addresses_for_routine(self, routine: str):
        """All addresses belonging to a routine."""
        return tuple(a.address for a in self._annotations
                     if a.routine == routine)
