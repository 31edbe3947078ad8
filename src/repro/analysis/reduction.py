"""Histogram reduction: from raw µPC counts to classified cycles.

This module plays the role of the paper's data-reduction programs: armed
with the microcode listing (the annotated control-store map every machine
in the process runs), it classifies every histogram bucket into Table 8's
row x column grid and recovers instruction/event counts from known
dispatch addresses.
"""

from __future__ import annotations

import functools

from repro.arch.groups import OpcodeGroup
from repro.arch.opcodes import ALL_OPCODES
from repro.cpu.executors import listing as reference_map
from repro.monitor.histogram import Histogram
from repro.ucode.costs import EXC_SETUP_CYCLES, LDPCTX_ENTRY_CYCLES
from repro.ucode.rows import (COLUMN_ORDER, Column, CycleKind, EXECUTE_ROW,
                              ROW_ORDER, Row)


@functools.lru_cache(maxsize=1)
def family_groups():
    """family name -> OpcodeGroup (families never span groups)."""
    mapping = {}
    for info in ALL_OPCODES:
        mapping[info.family] = info.group
    return mapping


class Reduction:
    """Classified view of one histogram."""

    def __init__(self, histogram: Histogram) -> None:
        self.histogram = histogram
        store, umap = reference_map()
        self.umap = umap
        ns = histogram.nonstalled
        st = histogram.stalled

        #: (Row, Column) -> cycles
        self.cells = {(row, col): 0 for row in ROW_ORDER
                      for col in COLUMN_ORDER}
        #: (Row) -> reads / writes (reference *counts*, for Table 5)
        self.reads_by_row = {row: 0 for row in ROW_ORDER}
        self.writes_by_row = {row: 0 for row in ROW_ORDER}

        for ann in store.annotations():
            addr = ann.address
            executions = ns[addr]
            stalled = st[addr]
            if not executions and not stalled:
                continue
            kind = ann.kind
            self.cells[(ann.row, kind.primary_column)] += executions
            if stalled:
                stall_col = kind.stall_column
                if stall_col is None:
                    raise AssertionError(
                        f"stall cycles at non-stallable {ann.routine}."
                        f"{ann.slot}")
                self.cells[(ann.row, stall_col)] += stalled
            if kind is CycleKind.READ:
                self.reads_by_row[ann.row] += executions
            elif kind is CycleKind.WRITE:
                self.writes_by_row[ann.row] += executions

        #: instructions per family, from the IRD dispatch counts.
        self.family_instructions = {
            family: ns[addr] for family, addr in umap.ird.items()
        }
        self.instructions = sum(self.family_instructions.values())

        groups = family_groups()
        #: instructions per Table 1 group.
        self.group_instructions = {group: 0 for group in OpcodeGroup}
        for family, count in self.family_instructions.items():
            self.group_instructions[groups[family]] += count

    # -- derived quantities -------------------------------------------------

    def total_cycles(self) -> int:
        """All classified cycles."""
        return sum(self.cells.values())

    def cycles_per_instruction(self) -> float:
        """The paper's headline: average cycles per VAX instruction."""
        if not self.instructions:
            return 0.0
        return self.total_cycles() / self.instructions

    def row_total(self, row: Row) -> int:
        """Cycles in one Table 8 row."""
        return sum(self.cells[(row, col)] for col in COLUMN_ORDER)

    def column_total(self, column: Column) -> int:
        """Cycles in one Table 8 column."""
        return sum(self.cells[(row, column)] for row in ROW_ORDER)

    def per_instruction(self, count) -> float:
        """``count`` per measured instruction."""
        if not self.instructions:
            return 0.0
        return count / self.instructions

    # -- event counts recovered from known addresses -------------------------

    def taken_count(self, family: str) -> int:
        """Taken-branch count: executions of a family's redirect slot."""
        slots = self.umap.exec_flows[family]
        return self.histogram.nonstalled[slots["redirect"]]

    def executed_count(self, family: str) -> int:
        """Instruction count of a family (IRD dispatch executions)."""
        return self.family_instructions.get(family, 0)

    def interrupts_delivered(self) -> int:
        """Interrupt deliveries (irq entry executions)."""
        return self.histogram.nonstalled[self.umap.irq_entry]

    def exceptions_delivered(self) -> int:
        """Exception deliveries (exc entry executions / setup length)."""
        return self.histogram.nonstalled[self.umap.exc_entry] \
            // EXC_SETUP_CYCLES

    def context_switches(self) -> int:
        """Context switches: LDPCTX executions."""
        return self.executed_count("LDPCTX")

    def tb_miss_services(self) -> int:
        """TB miss service entries."""
        return self.histogram.nonstalled[self.umap.tbm_entry]

    def tb_miss_cycles(self) -> int:
        """All cycles in the TB-miss service routine (incl. PTE stalls)."""
        h = self.histogram
        u = self.umap
        return (h.nonstalled[u.tbm_entry] + h.nonstalled[u.tbm_compute]
                + h.nonstalled[u.tbm_pte_read] + h.stalled[u.tbm_pte_read]
                + h.nonstalled[u.tbm_insert])

    def tb_miss_stall_cycles(self) -> int:
        """Read-stall cycles on the PTE fetch within miss service."""
        return self.histogram.stalled[self.umap.tbm_pte_read]

    def group_execute_cycles(self, group: OpcodeGroup) -> int:
        """Cycles in a group's execute row (all columns)."""
        return self.row_total(EXECUTE_ROW[group])
