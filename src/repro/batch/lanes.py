"""Lane planning for the cohort runner.

A *lane* is one requested measurement: a workload profile, an
instruction budget, a seed, a tuple of MachineParams overrides and a
machine backend.  The runner's central observation is that
execution never depends on the budget —
:meth:`repro.osim.executive.Executive.run` only decides *when to stop
looking* — so two lanes that agree on everything except the budget
pass through bit-identical machine states.  Such lanes fuse into one
*cohort*: a single machine runs once, and each lane's measurement is
captured as its instruction boundary goes by.  A sweep along the
``instructions`` axis therefore costs one run of the longest lane
instead of one run per point.

Nothing else may fuse.  Timing feeds back into architecture through the
executive's devices (:mod:`repro.osim.devices` polls ``ebox.now`` to
post interrupts), so lanes that differ in machine, params, workload or
seed diverge architecturally and each gets its own cohort.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machines.registry import DEFAULT_MACHINE


@dataclass(frozen=True)
class LaneSpec:
    """One requested measurement (hashable, so lanes dedup and memoise)."""

    workload: str            #: profile name (resolved by the runner)
    instructions: int        #: measured-instruction budget
    seed: int
    #: sorted (name, value) MachineParams overrides, like Point.overrides
    overrides: tuple = ()
    machine: str = DEFAULT_MACHINE

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "overrides",
            tuple(sorted(dict(self.overrides).items())))
        if self.instructions < 1:
            raise ValueError(
                f"lane {self.workload!r} needs a positive budget, "
                f"got {self.instructions}")

    def cohort_key(self) -> tuple:
        """Everything that shapes the architectural stream."""
        return (self.workload, self.seed, self.overrides, self.machine)

    def label(self) -> str:
        extra = ",".join(f"{k}={v}" for k, v in self.overrides)
        where = "" if self.machine == DEFAULT_MACHINE \
            else f" on {self.machine}"
        return (f"{self.workload} n={self.instructions} "
                f"seed={self.seed}" + where
                + (f" [{extra}]" if extra else ""))


@dataclass(frozen=True)
class Cohort:
    """Lanes that share one machine: same workload, seed, params, machine."""

    workload: str
    seed: int
    overrides: tuple
    machine: str
    lanes: tuple             #: (lane_index, LaneSpec) in caller order

    @property
    def targets(self) -> tuple:
        """Distinct capture boundaries, ascending."""
        return tuple(sorted({spec.instructions for _, spec in self.lanes}))

    def lanes_at(self, target: int) -> tuple:
        """Caller lane indices captured at ``target``."""
        return tuple(index for index, spec in self.lanes
                     if spec.instructions == target)

    def label(self) -> str:
        return (f"{self.workload} seed={self.seed} "
                f"targets={list(self.targets)}")


def plan_cohorts(lanes, fuse: bool = True) -> list:
    """Group lanes into cohorts, preserving first-seen order.

    ``lanes`` is an iterable of :class:`LaneSpec`; the result covers
    every input lane exactly once (duplicate specs become two lanes of
    the same cohort sharing one capture).  Without ``fuse`` every lane
    is a cohort of its own.
    """
    grouped = {}
    for index, spec in enumerate(lanes):
        key = spec.cohort_key() if fuse else index
        grouped.setdefault(key, []).append((index, spec))
    return [Cohort(*members[0][1].cohort_key(), lanes=tuple(members))
            for members in grouped.values()]
