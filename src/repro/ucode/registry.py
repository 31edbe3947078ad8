"""Registry of execute micro-routines (one per microcode family).

Executor functions live in :mod:`repro.cpu.executors`; they register here
with the *slot specification* of their micro-routine — the named control
store addresses the routine uses and the cycle kind of each.  The
:class:`~repro.ucode.map.MicrocodeMap` walks this registry at machine
construction to allocate and annotate every execute flow.

An executor function has the signature ``execute(ebox, inst, u)`` where
``u`` maps slot names to allocated control-store addresses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ucode.rows import CycleKind

#: Shorthand used in slot specifications.
KIND_CODES = {
    "C": CycleKind.COMPUTE,
    "R": CycleKind.READ,
    "W": CycleKind.WRITE,
}


@dataclass(frozen=True)
class ExecutorSpec:
    """A registered execute routine."""

    family: str
    func: object          #: callable (ebox, inst, u) -> next-PC or None
    slots: dict           #: slot name -> "C" | "R" | "W"


#: family name -> ExecutorSpec
EXECUTORS: dict = {}


def executor(family: str, slots: dict):
    """Decorator registering an execute routine for a microcode family.

    Example::

        @executor("ADDSUB", slots={"alu": "C"})
        def exec_addsub(ebox, inst, u):
            ...
    """
    def wrap(func):
        if family in EXECUTORS:
            raise ValueError(f"duplicate executor for family {family!r}")
        for name, code in slots.items():
            if code not in KIND_CODES:
                raise ValueError(
                    f"bad kind {code!r} for slot {name!r} of {family!r}")
        EXECUTORS[family] = ExecutorSpec(family, func, dict(slots))
        return func
    return wrap
