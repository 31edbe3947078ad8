"""The generated block of EXPERIMENTS.md: the paper's tables, measured.

:func:`render` runs the five-workload composite at the benchmark scale
(60,000 instructions per workload, seed 1984) and renders the header,
Tables 1-9 and the section 4 events, each paper value beside ours.  The
block is deterministic: it prints no wall time.  :func:`splice` puts it
between the two marker lines of the document, so every hand-written
section around it stays as it is.  Regenerate with::

    python tools/artifacts.py EXPERIMENTS.md
"""

from __future__ import annotations

from repro.analysis import (section4, table1, table2, table3, table4,
                            table5, table6, table7, table8, table9)
from repro.arch.groups import GROUP_ORDER
from repro.report import paper
from repro.ucode.rows import COLUMN_ORDER, ROW_ORDER
from repro.workloads.engine import standard_composite

BEGIN = ("<!-- BEGIN generated by repro.report.experiments: regenerate "
         "with `python tools/artifacts.py EXPERIMENTS.md` -->")
END = "<!-- END generated -->"


def render(instructions: int = 60_000) -> str:
    """The generated block, markers excluded."""
    comp = standard_composite(instructions=instructions)
    t1, t2, t3 = table1(comp), table2(comp), table3(comp)
    t4, t5, t6 = table4(comp), table5(comp), table6(comp)
    t7, t8, t9 = table7(comp), table8(comp), table9(comp)
    s4 = section4(comp)

    out = []
    w = out.append

    w("# EXPERIMENTS — paper vs. measured\n")
    w("Reproduction of Emer & Clark, *A Characterization of Processor "
      "Performance in the VAX-11/780* (ISCA 1984).\n")
    w(f"Tables 1-9 and the section 4 events below are from the "
      f"five-workload composite ({instructions} measured instructions "
      f"per workload, seed 1984, {comp.tracer.instructions} composite "
      f"instructions).  They are generated: regenerate them with "
      f"`python tools/artifacts.py EXPERIMENTS.md`.  The sections after "
      f"them are written by hand.\n")
    w("**Reading the numbers.** These are *shape* reproductions (see "
      "DESIGN.md): the workloads are synthetic stand-ins for 1984 "
      "timesharing populations and the runs are ~10^5 instructions, not "
      "hours; orderings, ratios and magnitudes are the reproduction "
      "targets, not digits.  Known gaps are called out inline.\n")

    w("\n## Table 1 — opcode group frequency (percent)\n")
    w("| Group | paper | measured |")
    w("|---|---|---|")
    for g in GROUP_ORDER:
        w(f"| {g.value} | {paper.TABLE1_FREQUENCY[g.value]:.2f} | "
          f"{t1.frequency_percent[g]:.2f} |")
    w("\nSimple dominates, Character/Decimal are rare, ordering matches.\n")

    w("\n## Table 2 — PC-changing instructions\n")
    w("| Type | paper %instr | measured | paper %taken | measured |")
    w("|---|---|---|---|---|")
    for row in t2.rows:
        ref = paper.TABLE2[row.label]
        w(f"| {row.label} | {ref[0]:.1f} | "
          f"{row.percent_of_instructions:.1f} | {ref[1]:.0f} | "
          f"{row.percent_taken:.0f} |")
    w(f"| **TOTAL** | **{paper.TABLE2_TOTAL[0]}** | "
      f"**{t2.total_percent:.1f}** | **{paper.TABLE2_TOTAL[1]}** | "
      f"**{t2.total_taken_percent:.0f}** |")
    w("\nGap: our synthetic conditional-branch density runs below the "
      "paper's 19.3% (compiled 1984 code was branchier than the generator's "
      "default blocks), so the PC-changing total lands below 38.5%.  "
      "Always-taken classes are exactly 100% as in the paper.\n")

    w("\n## Table 3 — specifiers per average instruction\n")
    w("| Quantity | paper | measured |")
    w("|---|---|---|")
    w(f"| First specifiers | {paper.TABLE3['first_specifiers']} | "
      f"{t3.first_specifiers:.3f} |")
    w(f"| Other specifiers | {paper.TABLE3['other_specifiers']} | "
      f"{t3.other_specifiers:.3f} |")
    w(f"| Branch displacements | {paper.TABLE3['branch_displacements']} | "
      f"{t3.branch_displacements:.3f} |")

    w("\n## Table 4 — operand specifier distribution (percent of total)\n")
    w("| Mode | paper (spec1/spec2-6/total) | measured |")
    w("|---|---|---|")
    for mode, ref in paper.TABLE4.items():
        refs = "/".join("-" if v is None else f"{v:.1f}" for v in ref)
        w(f"| {mode} | {refs} | {t4.spec1_percent[mode]:.1f}/"
          f"{t4.spec26_percent[mode]:.1f}/{t4.total_percent[mode]:.1f} |")
    w(f"| Percent indexed | {paper.TABLE4_INDEXED_PERCENT} | "
      f"{t4.indexed_percent:.1f} |")
    w("\nRegister is the most common mode, register is commoner after the "
      "first specifier, displacement is the dominant memory mode, short "
      "literals far outnumber immediates — all as in §3.2.  (Several paper "
      "cells are illegible in the archival scan; see `repro.report.paper`.)\n")

    w("\n## Table 5 — D-stream reads/writes per average instruction\n")
    w("| Source | measured reads | measured writes |")
    w("|---|---|---|")
    for label, (r, wr) in t5.rows.items():
        w(f"| {label} | {r:.3f} | {wr:.3f} |")
    w(f"| **TOTAL** | **{t5.total_reads:.3f}** (paper "
      f"{paper.TABLE5_TOTAL_READS}) | **{t5.total_writes:.3f}** (paper "
      f"{paper.TABLE5_TOTAL_WRITES}) |")
    w("\nReads:writes ≈ 2:1 and CALL/RET is the biggest execute-row "
      "contributor to both, the paper's two headline observations.\n")

    w("\n## Table 6 — estimated size of the average instruction\n")
    w("| Quantity | paper | measured |")
    w("|---|---|---|")
    w(f"| Specifiers/instruction | "
      f"{paper.TABLE6['specifiers_per_instruction']} | "
      f"{t6.specifiers_per_instruction:.2f} |")
    w(f"| Avg specifier size (bytes) | {paper.TABLE6['avg_specifier_size']} "
      f"| {t6.avg_specifier_size:.2f} |")
    w(f"| Branch disp bytes/instruction | "
      f"{paper.TABLE6['branch_disp_per_instruction']} | "
      f"{t6.branch_disp_bytes_per_instruction:.2f} |")
    w(f"| **Total bytes** | **{paper.TABLE6['total_bytes']}** | "
      f"**{t6.total_bytes:.2f}** |")

    w("\n## Table 7 — interrupt and context-switch headway (instructions)\n")
    w("| Event | paper | measured |")
    w("|---|---|---|")
    w(f"| Software interrupt requests | "
      f"{paper.TABLE7['software_interrupt_requests']} | "
      f"{t7.software_interrupt_request_headway:.0f} |")
    w(f"| HW and SW interrupts | {paper.TABLE7['interrupts']} | "
      f"{t7.interrupt_headway:.0f} |")
    w(f"| Context switches | {paper.TABLE7['context_switches']} | "
      f"{t7.context_switch_headway:.0f} |")

    w("\n## Table 8 — cycles per average instruction\n")
    w("| Row | paper total | measured total |")
    w("|---|---|---|")
    for row in ROW_ORDER:
        ref = paper.TABLE8_ROW_TOTALS.get(row.value)
        refs = f"{ref:.3f}" if ref is not None else "(illegible)"
        w(f"| {row.value} | {refs} | {t8.row_totals[row]:.3f} |")
    w(f"| **TOTAL (CPI)** | **{paper.CYCLES_PER_INSTRUCTION}** | "
      f"**{t8.cycles_per_instruction:.3f}** |")
    w("\n| Column | paper | measured |")
    w("|---|---|---|")
    for col in COLUMN_ORDER:
        w(f"| {col.value} | {paper.TABLE8_COLUMN_TOTALS[col.value]:.3f} | "
          f"{t8.column_totals[col]:.3f} |")
    # The gap is stated from the printed (rounded) cells, so each
    # share is the difference of the two numbers in its row.
    cpi = paper.CYCLES_PER_INSTRUCTION
    gap = cpi - round(t8.cycles_per_instruction, 3)
    shares = sorted(((paper.TABLE8_COLUMN_TOTALS[col.value]
                      - round(t8.column_totals[col], 3), col.value)
                     for col in COLUMN_ORDER), reverse=True)
    split = ", ".join(f"{name} {share:.3f}" for share, name in shares)
    misses = s4.cache_read_misses_per_instruction
    w("\nShape highlights that hold: Decode compute is exactly 1.000 "
      "cycle/instruction; decode + specifier processing is the largest "
      "block; CALL/RET is the heaviest execute row; compute dominates "
      "the columns.  Known gap: our CPI is "
      f"{t8.cycles_per_instruction:.3f} against {cpi}, "
      f"{100 * gap / cpi:.0f}% lower.  By column the {gap:.3f}-cycle gap "
      f"is {split}, so {shares[0][1]} carries "
      f"{100 * shares[0][0] / gap:.0f}% of it.  The R-Stall share "
      f"follows our lower cache read miss rate ({misses:.3f} per "
      "instruction against "
      f"{paper.SECTION4['cache_read_misses_per_instruction']}; see the "
      "note under §4 below).\n")

    w("\n## Table 9 — cycles per instruction within each group\n")
    w("| Group | paper | measured |")
    w("|---|---|---|")
    for g in GROUP_ORDER:
        w(f"| {g.value} | {paper.TABLE9_TOTALS[g.value]:.2f} | "
          f"{t9.totals[g]:.2f} |")
    w("\nThe two-orders-of-magnitude spread (Simple ≈ 1 cycle to "
      "Character/Decimal ≈ 100+) reproduces, with the paper's ordering.\n")

    w("\n## Section 4 — implementation events\n")
    w("| Event | paper | measured |")
    w("|---|---|---|")
    ref = paper.SECTION4
    rows = [
        ("IB references / instruction", "ib_references_per_instruction",
         s4.ib_references_per_instruction),
        ("IB bytes / reference", "ib_bytes_per_reference",
         s4.ib_bytes_per_reference),
        ("Average instruction bytes", "avg_instruction_bytes",
         s4.avg_instruction_bytes),
        ("Cache read misses / instr", "cache_read_misses_per_instruction",
         s4.cache_read_misses_per_instruction),
        ("— I-stream", "cache_i_misses_per_instruction",
         s4.cache_i_misses_per_instruction),
        ("— D-stream", "cache_d_misses_per_instruction",
         s4.cache_d_misses_per_instruction),
        ("TB misses / instruction", "tb_misses_per_instruction",
         s4.tb_misses_per_instruction),
        ("— D-stream", "tb_d_misses_per_instruction",
         s4.tb_d_misses_per_instruction),
        ("— I-stream", "tb_i_misses_per_instruction",
         s4.tb_i_misses_per_instruction),
        ("TB service cycles", "tb_service_cycles", s4.tb_service_cycles),
        ("— of which read stall", "tb_service_stall_cycles",
         s4.tb_service_stall_cycles),
        ("Unaligned refs / instruction", "unaligned_refs_per_instruction",
         s4.unaligned_refs_per_instruction),
    ]
    for label, key, measured in rows:
        w(f"| {label} | {ref[key]} | {measured:.3f} |")
    w("\nKnown gaps, and why: the paper's cache/TB miss rates come from "
      "hour-long live timesharing with dozens of processes, real compilers "
      "and editors walking megabytes of code and data.  Our synthetic "
      "programs reproduce the *mechanisms* (capacity misses, context-switch "
      "flush refill, streaming scans) and the right orders of magnitude, "
      "but their loops are inevitably more cache/TB-friendly.  The "
      "sensitivity example (`examples/tb_cache_sensitivity.py`) shows the "
      "model responds to geometry exactly as expected, and short cold-start "
      "windows reach the paper's 0.28 misses/instruction.  The IB "
      f"bytes/reference gap ({s4.ib_bytes_per_reference:.1f} vs "
      f"{ref['ib_bytes_per_reference']}) has the same root: with fewer "
      "I-stream stalls the IB stays fuller and accepts bigger chunks.\n")
    return "\n".join(out)


def splice(document: str, block: str) -> str:
    """``document`` with the lines between its markers replaced by
    ``block``; every byte outside them is kept."""
    head, begin, rest = document.partition(BEGIN + "\n")
    _, end, tail = rest.partition("\n" + END)
    if not (begin and end):
        raise ValueError(f"no {BEGIN!r} ... {END!r} block to replace")
    return f"{head}{begin}{block}\n{END}{tail}"


def main(argv=None) -> int:
    """``python -m repro.report.experiments [PATH]``: regenerate the
    block of PATH (default EXPERIMENTS.md) in place."""
    import sys

    argv = sys.argv[1:] if argv is None else argv
    path = argv[0] if argv else "EXPERIMENTS.md"
    with open(path) as handle:
        document = handle.read()
    document = splice(document, render())
    with open(path, "w") as handle:
        handle.write(document)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
