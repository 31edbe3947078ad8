"""Shared test fixtures: boot small kernel-mode programs on a VAX780,
and record which processes an executive's kernel dispatches."""

from __future__ import annotations

from repro.analysis.measurement import Measurement
from repro.asm import assemble_text
from repro.cpu.machine import VAX780
from repro.machines.registry import get_machine
from repro.osim.executive import Executive
from repro.osim.kernelgen import PR_NEXTPCB
from repro.vm.address import S0_BASE

#: Where test programs are assembled (S0, identity-mapped by boot()).
CODE_BASE = S0_BASE + 0x2000


def boot(asm_text: str, params=None, base: int = CODE_BASE) -> VAX780:
    """Assemble ``asm_text`` at ``base`` and boot a machine on it."""
    image = assemble_text(asm_text, base=base)
    machine = VAX780(params) if params is not None else VAX780()
    machine.boot(image)
    return machine


def run(asm_text: str, max_instructions: int = 100000, params=None,
        base: int = CODE_BASE) -> VAX780:
    """Boot and run to HALT; asserts the program actually halted."""
    machine = boot(asm_text, params=params, base=base)
    machine.run(max_instructions)
    assert machine.halted, "program did not reach HALT"
    return machine


def regs(machine: VAX780):
    """The general registers, for terse assertions."""
    return machine.ebox.registers


def record_dispatches(executive) -> set:
    """The ASIDs of the processes the kernel dispatches from now on.

    Wraps whatever answers ``MFPR NEXTPCB`` (the PCB the kernel's next
    LDPCTX loads), so the set fills as the machine runs.
    """
    hooks = executive.machine.pr_mfpr_hooks
    next_pcb = hooks[PR_NEXTPCB]
    asids = {process.pcb_base: process.asid
             for process in executive.processes}
    chosen = set()

    def recording() -> int:
        pcb = next_pcb()
        if pcb in asids:
            chosen.add(asids[pcb])
        return pcb

    hooks[PR_NEXTPCB] = recording
    return chosen


def scalar_run(profile, instructions, seed, machine="vax780",
               overrides=()) -> tuple:
    """One fresh, independent run: (its Measurement, the frozenset of
    ASIDs its kernel dispatched)."""
    spec = get_machine(machine)
    sim = spec.build(spec.params.with_overrides(**dict(overrides)))
    executive = Executive(sim, spec.adapt_profile(profile), seed=seed)
    dispatched = record_dispatches(executive)
    executive.boot()
    executive.run(instructions)
    return (Measurement.capture(profile.name, sim), frozenset(dispatched))
