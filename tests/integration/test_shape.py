"""Shape reproduction checks on a reduced composite run.

These are the same checks the benchmarks assert, run at a smaller
measurement window so the unit suite stays fast.  Tolerances here are
looser than the benchmark ones because per-instruction ratios of rare
events are noisier at 8k instructions per workload.
"""

import pytest

from repro.analysis import (Measurement, section4, table1, table2, table7,
                            table8, table9)
from repro.arch.groups import OpcodeGroup
from repro.report import paper
from repro.report.compare import within_factor
from repro.ucode.rows import Column, Row
from repro.workloads.engine import run_workload, standard_composite
from repro.workloads.profiles import STANDARD_PROFILES


@pytest.fixture(scope="module")
def comp():
    return standard_composite(instructions=8000, seed=2024)


class TestCompositeShape:
    def test_cpi_within_factor_two(self, comp):
        result = table8(comp)
        assert within_factor(result.cycles_per_instruction,
                             paper.CYCLES_PER_INSTRUCTION, 2.0)

    def test_simple_group_dominates(self, comp):
        result = table1(comp)
        freq = result.frequency_percent
        assert freq[OpcodeGroup.SIMPLE] > 70
        assert freq[OpcodeGroup.SIMPLE] < 95

    def test_rare_groups_are_rare(self, comp):
        freq = table1(comp).frequency_percent
        assert freq[OpcodeGroup.CHARACTER] < 3
        assert freq[OpcodeGroup.DECIMAL] < 1

    def test_group_cost_spans_two_orders(self, comp):
        totals = table9(comp).totals
        assert totals[OpcodeGroup.SIMPLE] < 2
        assert totals[OpcodeGroup.CHARACTER] > 50

    def test_callret_is_expensive_per_execution(self, comp):
        totals = table9(comp).totals
        assert totals[OpcodeGroup.CALLRET] > \
            10 * totals[OpcodeGroup.SIMPLE]

    def test_decode_row_near_one_plus_stall(self, comp):
        result = table8(comp)
        decode_compute = result.cells[(Row.DECODE, Column.COMPUTE)]
        assert decode_compute == pytest.approx(1.0, abs=0.01)
        assert result.cells[(Row.DECODE, Column.IBSTALL)] > 0.1

    def test_decode_plus_spec_is_large_share(self, comp):
        # §5: "almost half of all the time went into decode and
        # specifier processing".
        result = table8(comp)
        share = (result.row_totals[Row.DECODE]
                 + result.row_totals[Row.SPEC1]
                 + result.row_totals[Row.SPEC26]
                 + result.row_totals[Row.BDISP]) \
            / result.cycles_per_instruction
        assert 0.25 < share < 0.65

    def test_reads_exceed_writes_about_two_to_one(self, comp):
        result = table8(comp)
        reads = result.column_totals[Column.READ]
        writes = result.column_totals[Column.WRITE]
        assert 1.2 < reads / writes < 3.5

    def test_branch_totals(self, comp):
        result = table2(comp)
        assert 20 < result.total_percent < 50
        assert 55 < result.total_taken_percent < 85

    def test_loop_branches_mostly_taken(self, comp):
        result = table2(comp)
        loops = next(r for r in result.rows if r.label == "Loop branches")
        assert loops.percent_taken > 75

    def test_headways_within_factor(self, comp):
        result = table7(comp)
        assert within_factor(result.interrupt_headway,
                             paper.TABLE7["interrupts"], 3.0)
        assert within_factor(result.context_switch_headway,
                             paper.TABLE7["context_switches"], 3.0)

    def test_tb_service_cost(self, comp):
        events = section4(comp)
        assert within_factor(events.tb_service_cycles,
                             paper.SECTION4["tb_service_cycles"], 1.5)

    def test_ib_delivers_under_capacity(self, comp):
        events = section4(comp)
        assert 1.0 < events.ib_references_per_instruction < 4.0
        assert events.ib_bytes_per_reference < 4.0

    def test_avg_instruction_size(self, comp):
        events = section4(comp)
        assert within_factor(events.avg_instruction_bytes,
                             paper.SECTION4["avg_instruction_bytes"], 1.4)


class TestPerWorkloadVariation:
    def test_scientific_has_more_float(self):
        sci = run_workload(STANDARD_PROFILES[3].name, 8000, seed=2024)
        res = run_workload(STANDARD_PROFILES[0].name, 8000, seed=2024)
        f_sci = table1(sci).frequency_percent[OpcodeGroup.FLOAT]
        f_res = table1(res).frequency_percent[OpcodeGroup.FLOAT]
        assert f_sci > f_res

    def test_commercial_has_more_decimal(self):
        com = run_workload(STANDARD_PROFILES[4].name, 8000, seed=2024)
        sci = run_workload(STANDARD_PROFILES[3].name, 8000, seed=2024)
        d_com = table1(com).frequency_percent[OpcodeGroup.DECIMAL]
        d_sci = table1(sci).frequency_percent[OpcodeGroup.DECIMAL]
        assert d_com >= d_sci

    def test_composite_is_sum_of_five(self, comp):
        runs = [run_workload(p.name, 8000, seed=2024)
                for p in STANDARD_PROFILES]
        total = sum(r.tracer.instructions for r in runs)
        assert comp.tracer.instructions == total
