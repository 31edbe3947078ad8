#!/usr/bin/env python
"""Quickstart: assemble a VAX program, run it, read the µPC histogram.

This is the smallest end-to-end use of the library: the text assembler,
the VAX-11/780 machine model, and the measurement path the paper built —
every executed microcycle lands in a histogram bucket, and the analysis
classifies each bucket by activity (Table 8's rows) and cycle kind (its
columns).

Run:  python examples/quickstart.py
"""

from repro.analysis import Measurement, Reduction, table8
from repro.asm import assemble_text
from repro.cpu.machine import VAX780
from repro.report.format import render_table8
from repro.report.paper import CYCLE_NS
from repro.vm.address import S0_BASE

PROGRAM = """
; Sum the first 100 integers, with a procedure call per iteration.
start:
    movl    #100, r6        ; loop counter
    clrl    r1              ; accumulator
loop:
    pushl   r6
    calls   #1, @#add_one   ; r0 = arg + accumulator
    movl    r0, r1
    sobgtr  r6, loop
    movl    r1, @#result
    halt

add_one:
    .word   ^x0004          ; entry mask: save r2
    movl    4(ap), r2
    addl3   r2, r1, r0
    ret

result:
    .long   0
"""


def main():
    image = assemble_text(PROGRAM, base=S0_BASE + 0x2000)
    machine = VAX780()
    machine.boot(image)
    machine.run(max_instructions=100_000)

    result_pa = image.address_of("result") - S0_BASE
    total = machine.mem.debug_read(result_pa, 4)
    print(f"program result: {total} (expect 5050)")
    print(f"instructions executed: {machine.tracer.instructions}")
    print(f"cycles: {machine.cycles} "
          f"({machine.cycles * CYCLE_NS / 1000:.1f} us "
          f"of simulated 1980s time)")

    measurement = Measurement.capture("quickstart", machine)
    reduction = Reduction(measurement.histogram)
    print(f"cycles per instruction: "
          f"{reduction.cycles_per_instruction():.2f}")
    print()
    print(render_table8(table8(measurement)))
    print()
    print("Note how CALLS/RET dominates the execute rows even in this")
    print("tiny program - the paper's central observation.")


if __name__ == "__main__":
    main()
