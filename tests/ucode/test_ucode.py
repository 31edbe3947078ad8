"""Tests for the control store, microcode map, rows and registry."""

import pytest

from repro.arch.groups import OpcodeGroup
from repro.arch.opcodes import ALL_OPCODES
from repro.ucode.controlstore import (Annotation, ControlStore,
                                      ControlStoreFullError)
from repro.ucode.map import MicrocodeMap
from repro.ucode.registry import EXECUTORS, executor
from repro.ucode.rows import (COLUMN_ORDER, Column, CycleKind, EXECUTE_ROW,
                              ROW_ORDER, Row)
import repro.cpu.executors  # noqa: F401  (registers executors)


class TestControlStore:
    def test_sequential_allocation(self):
        store = ControlStore(size=16)
        a = store.allocate("r", "s0", Row.DECODE, CycleKind.COMPUTE)
        b = store.allocate("r", "s1", Row.DECODE, CycleKind.READ)
        assert (a, b) == (0, 1)
        assert store.allocated == 2

    def test_annotation_lookup(self):
        store = ControlStore(size=16)
        addr = store.allocate("routine", "slot", Row.SPEC1, CycleKind.WRITE)
        ann = store.annotation(addr)
        assert ann.routine == "routine"
        assert ann.slot == "slot"
        assert ann.row is Row.SPEC1
        assert ann.kind is CycleKind.WRITE

    def test_exhaustion_raises(self):
        store = ControlStore(size=1)
        store.allocate("r", "a", Row.DECODE, CycleKind.COMPUTE)
        with pytest.raises(ControlStoreFullError):
            store.allocate("r", "b", Row.DECODE, CycleKind.COMPUTE)

    def test_block_helpers(self):
        store = ControlStore(size=16)
        block = store.block("exec.TEST", Row.EX_SIMPLE)
        c = block.compute("c")
        r = block.read("r")
        w = block.write("w")
        s = block.ib_stall("s")
        kinds = [store.annotation(a).kind for a in (c, r, w, s)]
        assert kinds == [CycleKind.COMPUTE, CycleKind.READ,
                         CycleKind.WRITE, CycleKind.IB_STALL]

    def test_addresses_for_routine(self):
        store = ControlStore(size=16)
        block = store.block("mine", Row.BDISP)
        addrs = {block.compute("a"), block.compute("b")}
        assert set(store.addresses_for_routine("mine")) == addrs


class TestCycleKinds:
    def test_primary_columns(self):
        assert CycleKind.COMPUTE.primary_column is Column.COMPUTE
        assert CycleKind.READ.primary_column is Column.READ
        assert CycleKind.WRITE.primary_column is Column.WRITE
        assert CycleKind.IB_STALL.primary_column is Column.IBSTALL

    def test_stall_columns(self):
        assert CycleKind.READ.stall_column is Column.RSTALL
        assert CycleKind.WRITE.stall_column is Column.WSTALL
        assert CycleKind.COMPUTE.stall_column is None

    def test_row_order_matches_paper(self):
        values = [row.value for row in ROW_ORDER]
        assert values[0] == "Decode"
        assert values[-1] == "Aborts"
        assert "Call/Ret" in values

    def test_six_columns(self):
        assert len(COLUMN_ORDER) == 6


class TestMicrocodeMap:
    def test_every_family_has_ird_and_exec_flow(self):
        store = ControlStore()
        umap = MicrocodeMap(store)
        families = {info.family for info in ALL_OPCODES}
        assert set(umap.ird) == families
        assert set(umap.exec_flows) == families

    def test_exec_rows_match_groups(self):
        store = ControlStore()
        umap = MicrocodeMap(store)
        for info in ALL_OPCODES:
            for addr in umap.exec_flows[info.family].values():
                assert store.annotation(addr).row is \
                    EXECUTE_ROW[info.group]

    def test_spec_flows_per_row(self):
        store = ControlStore()
        umap = MicrocodeMap(store)
        for row in (Row.SPEC1, Row.SPEC26):
            assert umap.spec_flows[row]
            stall_ann = store.annotation(umap.spec_stall[row])
            assert stall_ann.kind is CycleKind.IB_STALL
            assert stall_ann.row is row

    def test_index_calc_in_spec26(self):
        store = ControlStore()
        umap = MicrocodeMap(store)
        assert store.annotation(umap.index_calc).row is Row.SPEC26

    def test_deterministic_allocation(self):
        # A pool worker's histograms are reduced with the parent's
        # listing, so allocation must be identical in every process.
        a = MicrocodeMap(ControlStore())
        b = MicrocodeMap(ControlStore())
        assert a.ird == b.ird
        assert a.exec_flows == b.exec_flows
        assert a.tbm_entry == b.tbm_entry

    def test_fits_in_board(self):
        store = ControlStore()
        MicrocodeMap(store)
        assert store.allocated < store.size


class TestListing:
    """One microcode listing per process: every machine runs it and
    every reduction reads it."""

    def test_machines_and_the_reduction_share_one_listing(self):
        from repro.analysis.reduction import Reduction, reference_map
        from repro.cpu.executors import listing
        from repro.machines.registry import MACHINES
        from repro.monitor.histogram import HistogramBoard

        store, umap = listing()
        assert reference_map() == (store, umap)
        assert umap.store is store
        for spec in MACHINES.values():
            assert spec.build().umap is spec.build().umap is umap
        assert Reduction(HistogramBoard().snapshot()).umap is umap

    def test_a_composite_run_allocates_nothing(self, monkeypatch):
        from repro.cpu.executors import listing
        from repro.workloads import engine

        store, _ = listing()
        allocated = store.allocated
        monkeypatch.setattr(engine, "_CACHE", {})
        assert engine.standard_composite(instructions=400, seed=31).cycles
        assert listing()[0] is store
        assert store.allocated == allocated


class TestRegistry:
    def test_all_groups_covered(self):
        families_by_group = {}
        for info in ALL_OPCODES:
            families_by_group.setdefault(info.group, set()).add(info.family)
        for group, families in families_by_group.items():
            for family in families:
                assert family in EXECUTORS, (group, family)

    def test_duplicate_family_rejected(self):
        with pytest.raises(ValueError):
            @executor("MOV", slots={"x": "C"})
            def duplicate(ebox, inst, ops, u):
                pass

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            @executor("NEWFAM_TEST", slots={"x": "Q"})
            def badkind(ebox, inst, ops, u):
                pass
