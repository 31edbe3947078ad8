"""Process objects for the modeled executive."""

from __future__ import annotations

#: Process scheduling states.
READY = "ready"
RUNNING = "running"
BLOCKED = "blocked"


class Process:
    """One simulated timesharing process.

    Carries the identifiers the executive and scheduler need: the address
    space, the physical PCB base that LDPCTX/SVPCTX use, the kernel-stack
    virtual address, and the scheduling state.
    """

    def __init__(self, name: str, asid: int, space, pcb_base: int,
                 kernel_stack_top: int) -> None:
        self.name = name
        self.asid = asid
        self.space = space
        self.pcb_base = pcb_base
        self.kernel_stack_top = kernel_stack_top
        self.state = READY
        self.wake_cycle = 0
        self.is_null = False

    def __repr__(self) -> str:
        return f"Process({self.name}, asid={self.asid}, {self.state})"
