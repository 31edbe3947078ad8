"""Analytical CPI tier: workload estimates without full simulation.

The microbenchmark model (:mod:`repro.ubench.model`) predicts busy
cycles *exactly*, but only for straight-line kernels whose data
dependencies are fixed by construction.  Whole workloads add what no
static model can see: cold-start TB and cache transients, bursty
string/decimal phases, interrupt arrivals.  This module generalizes
the busy-cycle model to workloads with a grey-box calibration:

1. Run the real simulator at a handful of *anchor* budgets (the runs
   go through the memoised workload engine, so anything else that
   needs them shares the cost).
2. Record every Table-8 cell — each (row, column) cycle count — at
   each anchor.  The cumulative cell counts between anchors form a
   piecewise-linear model of cost versus instruction budget; the
   changing slopes capture the cold-start transient, the TB-capacity
   knee of a narrow-TB machine, and the drifting phase mix that defeat
   any single-rate model.
3. Estimate: CPI at any budget inside the calibrated envelope is a
   per-cell interpolation — instant, and carrying the full
   Table-8-style decomposition (rows x stall columns) plus a
   Table-1-style group mix.  Outside the envelope the edge segment's
   slope extends — *explicitly*: the estimate comes back flagged
   ``extrapolated`` under the widened :data:`EXTRAPOLATION_BOUND`,
   and only inside the honor window (:attr:`WorkloadMix.window`);
   beyond it :meth:`WorkloadMix.estimate` raises rather than return a
   number no recorded bound covers.

:func:`kernel_mix` closes the loop with the microbenchmark tier: a
mix built from a kernel is *purely analytical* (no simulation — its
single anchor comes from :func:`repro.ubench.model.predict_kernel`),
and agrees with the ubench model exactly at every copy count;
``tests/machines/test_analytical.py`` pins both that exactness and
the whole-workload error bounds against the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.machines.registry import get_machine

#: Default calibration anchors: five budgets straddling the
#: characterize default (60k), spaced so no interpolation gap exceeds
#: 20k instructions.  Deliberately offset from the budgets anything
#: validates at, so an estimate is never a free lookup of its target.
CALIBRATION_ANCHORS = (10_000, 30_000, 50_000, 70_000, 90_000)

#: Documented per-workload relative error bound of the analytical CPI
#: against a full simulation inside the calibrated envelope.  Recorded
#: from the five paper workloads x both machines (see MACHINES.json);
#: ``tests/machines/test_analytical.py`` holds every workload to it.
ERROR_BOUND = 0.05

#: Documented bound for *extrapolated* estimates — budgets outside the
#: anchor envelope but inside the honor window below.  Recorded from
#: the refute campaign's edge probes (see EXPERIMENTS.md): the worst
#: observed rel err at the window edges is ~0.13, so 0.15 holds with
#: margin while 1.25x already shows ~0.17 failures just beyond it.
EXTRAPOLATION_BOUND = 0.15

#: Extrapolation honor window, as fractions of the first/last anchor:
#: budgets in [0.75 * anchors[0], 1.25 * anchors[-1]] extrapolate with
#: the widened bound; beyond that no bound can be honored and
#: :meth:`WorkloadMix.estimate` refuses rather than guessing.
EXTRAPOLATION_WINDOW = (0.75, 1.25)

#: Documented bound inside the *cold-start segment* — budgets strictly
#: between the first two anchors.  The cache/TB warmup transient makes
#: the cumulative cycle curve concave there, so the linear chord
#: systematically underpredicts; the refute campaign surfaced interior
#: violations up to rel err 0.117 at the segment midpoint (1k/3k
#: anchors, timesharing workloads — see EXPERIMENTS.md) where every
#: later segment honors :data:`ERROR_BOUND`.  0.15 holds the observed
#: worst case with margin and matches the extrapolation bound: both
#: regimes share the same cause, an unamortized transient.
TRANSIENT_BOUND = 0.15


class AnalyticalError(Exception):
    """A mix that cannot be calibrated or estimated."""


@dataclass(frozen=True)
class CpiEstimate:
    """One analytical estimate: total cycles plus the decomposition."""

    workload: str
    machine: str
    instructions: int
    cycles: float
    cpi: float
    #: row name -> estimated cycles per instruction (Table-8 rows).
    row_totals: dict
    #: column name -> estimated cycles per instruction (busy + stalls).
    column_totals: dict
    #: True when the budget fell outside the anchor envelope and the
    #: edge segment's slope was extended (documented degraded accuracy).
    extrapolated: bool = False
    #: True when the budget fell inside the cold-start segment (between
    #: the first two anchors), where the warmup transient degrades the
    #: linear interpolation (see :data:`TRANSIENT_BOUND`).
    transient: bool = False
    #: The relative error bound this estimate is held to:
    #: :data:`ERROR_BOUND` in the amortized envelope,
    #: :data:`TRANSIENT_BOUND` in the cold-start segment,
    #: :data:`EXTRAPOLATION_BOUND` when extrapolated, 0.0 for exact
    #: single-anchor (kernel) mixes.
    error_bound: float = ERROR_BOUND

    def to_json(self) -> dict:
        return {
            "workload": self.workload, "machine": self.machine,
            "instructions": self.instructions,
            "cycles": round(self.cycles, 3), "cpi": round(self.cpi, 6),
            "extrapolated": self.extrapolated,
            "transient": self.transient,
            "error_bound": self.error_bound,
            "rows": {name: round(value, 6)
                     for name, value in sorted(self.row_totals.items())},
            "columns": {name: round(value, 6)
                        for name, value
                        in sorted(self.column_totals.items())},
        }


def _interpolate(anchors, counts, n):
    """Piecewise-linear cumulative count at budget ``n``.

    The implicit origin (0 instructions, 0 cycles) starts the first
    segment; past the last anchor the final segment's slope continues.
    """
    points = ((0, 0.0),) + tuple(zip(anchors, counts))
    for (n1, c1), (n2, c2) in zip(points, points[1:]):
        if n <= n2:
            return c1 + (c2 - c1) * (n - n1) / (n2 - n1)
    (n1, c1), (n2, c2) = points[-2], points[-1]
    return c2 + (c2 - c1) * (n - n2) / (n2 - n1)


@dataclass(frozen=True)
class WorkloadMix:
    """A calibrated workload on one machine: the fitted cell model.

    ``cells`` holds ``(row, column, counts)`` tuples — the cumulative
    cycle count of one Table-8 cell at each anchor budget.
    ``group_mix`` is the Table-1-style share of instructions per
    opcode group at the largest anchor.
    """

    workload: str
    machine: str
    anchors: tuple
    cells: tuple
    group_mix: tuple

    @property
    def steady_cpi(self) -> float:
        """Cycles per instruction over the last calibrated segment."""
        points = (0,) + self.anchors
        span = points[-1] - points[-2]
        return sum((counts[-1] - (counts[-2] if len(counts) > 1 else 0))
                   for _, _, counts in self.cells) / span

    @property
    def envelope(self) -> tuple:
        """The budget range the mix interpolates inside."""
        return (self.anchors[0], self.anchors[-1])

    @property
    def window(self) -> tuple:
        """The budget range estimates are honored inside at all.

        The envelope widened by :data:`EXTRAPOLATION_WINDOW`; outside
        it :meth:`estimate` raises instead of returning a number no
        recorded bound covers.  Single-anchor (kernel) mixes are exact
        linear models, so their window is unbounded.
        """
        if len(self.anchors) < 2:
            return (1, None)
        low, high = EXTRAPOLATION_WINDOW
        return (max(1, math.ceil(self.anchors[0] * low)),
                math.floor(self.anchors[-1] * high))

    def estimate(self, instructions: int,
                 extrapolate: bool = True) -> CpiEstimate:
        """Predicted cycles and decomposition at ``instructions``.

        Budgets inside the anchor envelope interpolate under
        :data:`ERROR_BOUND` — except strictly between the first two
        anchors, the *cold-start segment*, where the warmup transient
        degrades the chord and the estimate comes back flagged
        ``transient`` under :data:`TRANSIENT_BOUND`.  Budgets outside
        the envelope but inside
        :attr:`window` extend the edge segment's slope and come back
        flagged ``extrapolated`` under the widened
        :data:`EXTRAPOLATION_BOUND` (or raise, with
        ``extrapolate=False``).  Budgets outside the window always
        raise: no recorded bound covers them, so the caller must
        recalibrate with anchors that do.
        """
        if instructions <= 0:
            raise AnalyticalError(
                f"estimate needs a positive budget, got {instructions}")
        exact = len(self.anchors) < 2
        extrapolated = not exact and not (
            self.anchors[0] <= instructions <= self.anchors[-1])
        transient = not exact and not extrapolated \
            and self.anchors[0] < instructions < self.anchors[1]
        if extrapolated:
            low, high = self.window
            if not low <= instructions <= high:
                raise AnalyticalError(
                    f"budget {instructions} is outside the honored "
                    f"window [{low}, {high}] of the "
                    f"{self.workload}/{self.machine} calibration "
                    f"(anchors {self.anchors}); recalibrate with "
                    f"anchors that straddle it")
            if not extrapolate:
                raise AnalyticalError(
                    f"budget {instructions} is outside the calibrated "
                    f"envelope {self.envelope} and extrapolation was "
                    f"declined")
        rows: dict = {}
        cols: dict = {}
        total = 0.0
        for row, col, counts in self.cells:
            cycles = max(0.0, _interpolate(self.anchors, counts,
                                           instructions))
            total += cycles
            rows[row] = rows.get(row, 0.0) + cycles / instructions
            cols[col] = cols.get(col, 0.0) + cycles / instructions
        bound = 0.0 if exact else (
            EXTRAPOLATION_BOUND if extrapolated
            else TRANSIENT_BOUND if transient else ERROR_BOUND)
        return CpiEstimate(self.workload, self.machine, instructions,
                           total, total / instructions, rows, cols,
                           extrapolated=extrapolated,
                           transient=transient, error_bound=bound)

    def to_json(self) -> dict:
        return {
            "workload": self.workload, "machine": self.machine,
            "anchors": list(self.anchors),
            "steady_cpi": round(self.steady_cpi, 6),
            "group_mix": {name: round(share, 6)
                          for name, share in self.group_mix},
        }


def _reduction(measurement):
    from repro.analysis.reduction import Reduction

    return Reduction(measurement.histogram)


def _generator_spec(workload: str):
    from repro.workloads.registry import WorkloadError, get_workload

    try:
        spec = get_workload(workload)
    except WorkloadError:
        raise AnalyticalError(
            f"unknown workload profile {workload!r}") from None
    if spec.trace is not None:
        raise AnalyticalError(
            f"workload {workload!r} is trace-backed; the analytical "
            "tier calibrates generator profiles only (its anchor runs "
            "need budgets the recording does not carry)")
    return spec


def calibrate(profile: str, machine: str = None,
              anchors: tuple = CALIBRATION_ANCHORS,
              seed: int = 1984) -> WorkloadMix:
    """Fit a :class:`WorkloadMix` from simulator runs at the anchors.

    ``profile`` names a registered generator workload; the anchor runs
    go through the memoised workload engine as lanes of one cohort (they
    differ only in budget, so one machine runs them all), and repeated
    calibrations — and anything else at those budgets — are free after
    the first.
    """
    from repro.batch import LaneSpec
    from repro.workloads import engine as _engines

    spec = _generator_spec(profile)
    machine = get_machine(machine).name
    anchors = tuple(sorted(anchors))
    if not anchors or anchors[0] <= 0 or len(set(anchors)) < 2:
        raise AnalyticalError(
            f"calibration needs at least two distinct positive anchor "
            f"budgets, got {anchors!r}")
    spec.check_machine(machine)
    reds = [_reduction(measurement) for measurement in _engines.measure(
        [LaneSpec(spec.name, n, seed, machine=machine) for n in anchors])]
    keys = sorted({key for red in reds for key in red.cells
                   if red.cells[key]},
                  key=lambda key: (key[0].name, key[1].name))
    cells = tuple(
        (row.name, col.name,
         tuple(float(red.cells.get((row, col), 0)) for red in reds))
        for row, col in keys)
    last = reds[-1]
    total = last.instructions or 1
    group_mix = tuple(
        (group.name, last.group_instructions[group] / total)
        for group in sorted(last.group_instructions,
                            key=lambda g: g.name)
        if last.group_instructions[group])
    return WorkloadMix(spec.name, machine, anchors, cells, group_mix)


def kernel_mix(kernel, machine: str = None) -> WorkloadMix:
    """A purely analytical mix for one microbenchmark kernel.

    No simulation: the single anchor comes straight from
    :func:`repro.ubench.model.predict_kernel` with the machine's
    params, so ``kernel_mix(k, m).estimate(c * k.ipc).cycles`` equals
    the ubench model's predicted busy total for ``c`` copies, exactly.
    """
    from repro.arch.opcodes import opcode
    from repro.ubench import model

    spec = get_machine(machine)
    predicted = model.predict_kernel(kernel, spec.params)
    ipc = kernel.ipc
    cells = tuple((bucket, "COMPUTE", (float(predicted[bucket]),))
                  for bucket in model.BUCKETS if predicted[bucket])
    groups: dict = {}
    for instr in kernel.instrs:
        name = opcode(instr.mnemonic).group.name
        groups[name] = groups.get(name, 0) + 1
    group_mix = tuple((name, count / len(kernel.instrs))
                      for name, count in sorted(groups.items()))
    return WorkloadMix(kernel.name, spec.name, (ipc,), cells, group_mix)


def check_estimate(mix: WorkloadMix, instructions: int,
                   seed: int = 1984) -> dict:
    """Confront an analytical estimate with a full simulation.

    Returns the estimate, the simulated CPI, and their relative error —
    the quantity MACHINES.json records per workload and the test suite
    bounds by the estimate's own ``error_bound``
    (:data:`ERROR_BOUND` interpolated, :data:`EXTRAPOLATION_BOUND`
    extrapolated).
    """
    from repro.workloads import engine as _engines

    estimate = mix.estimate(instructions)
    red = _reduction(_engines.run_workload(
        _generator_spec(mix.workload).name, instructions, seed=seed,
        machine=mix.machine))
    sim_cpi = red.cycles_per_instruction()
    rel_err = abs(estimate.cpi - sim_cpi) / sim_cpi if sim_cpi else 0.0
    return {
        "workload": mix.workload, "machine": mix.machine,
        "instructions": instructions,
        "analytical_cpi": round(estimate.cpi, 6),
        "simulated_cpi": round(sim_cpi, 6),
        "rel_err": round(rel_err, 6),
        "error_bound": estimate.error_bound,
        "extrapolated": estimate.extrapolated,
        "transient": estimate.transient,
        "ok": rel_err <= estimate.error_bound,
        "estimate": estimate,
    }
