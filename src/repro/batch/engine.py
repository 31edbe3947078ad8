"""The batch runner: one cohort at a time through the scalar run loop.

:class:`BatchRunner` executes a list of :class:`~repro.batch.lanes.LaneSpec`
requests by fusing budget-only variants into cohorts.  Each cohort boots
one machine through the machine registry, exactly as a scalar run
does, runs it to each of its capture boundaries in ascending order
with :func:`repro.osim.executive.run_until` — the loop
:meth:`~repro.osim.executive.Executive.run` itself uses — and captures
a :class:`~repro.analysis.measurement.Measurement` at each.  The
machine is dropped before the next cohort boots, so only one is alive
at a time.

Bit-identity contract: each lane's measurement equals, bit for bit,
what the scalar path (:func:`repro.workloads.engine.run_workload` /
``explore``'s per-task worker) produces for the same (workload,
params, instructions, seed, machine) — including the two failure
modes, which reproduce the scalar engine's exact :class:`RuntimeError`
messages.  Resuming the loop toward a larger budget is invisible to
the machine: the loop's checks at each state only read it, and a
capture is passive (``settle_gate`` is idempotent and the board is
only read), as the µPC monitor's board is on the real 780.  The
scalar↔batch differential fuzzer (:mod:`repro.validate.differential`)
enforces the contract on randomly perturbed profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.analysis.measurement import Measurement
from repro.batch.lanes import Cohort, LaneSpec, plan_cohorts
from repro.machines.registry import get_machine
from repro.obs import metrics
from repro.osim.executive import Executive, run_until


@dataclass(frozen=True)
class LaneResult:
    """One lane's outcome: a measurement, or the scalar error message."""

    spec: LaneSpec
    measurement: object = None
    error: str = None

    @property
    def ok(self) -> bool:
        return self.error is None


class _CohortState:
    """One cohort's live machine and the boundary it is running to."""

    __slots__ = ("cohort", "machine", "target")

    def __init__(self, cohort: Cohort, machine) -> None:
        self.cohort = cohort
        self.machine = machine
        self.target = None


class BatchRunner:
    """Run lanes cohort by cohort; results in input-lane order."""

    def __init__(self, lanes, profiles=None, on_result=None) -> None:
        self.lanes = [spec if isinstance(spec, LaneSpec)
                      else LaneSpec(*spec) for spec in lanes]
        if not self.lanes:
            raise ValueError("batch needs at least one lane")
        if profiles is None:
            # Every registered generator workload is a valid lane;
            # trace-backed workloads replay on their own machine and
            # cannot be fused.
            from repro.workloads.registry import WORKLOADS

            profiles = {name: spec.profile
                        for name, spec in WORKLOADS.items()
                        if spec.trace is None}
        if not isinstance(profiles, dict):
            profiles = {profile.name: profile for profile in profiles}
        self.profiles = profiles
        for spec in self.lanes:
            if spec.workload not in self.profiles:
                raise ValueError(
                    f"unknown workload {spec.workload!r}; valid "
                    f"workloads: {', '.join(sorted(self.profiles))}")
            get_machine(spec.machine)   # unknown names fail before a boot
        self.on_result = on_result
        self.cohorts = plan_cohorts(self.lanes)
        self._results = [None] * len(self.lanes)

    def _boot(self, cohort: Cohort) -> _CohortState:
        """A freshly booted machine for ``cohort``, built as scalar runs
        build theirs."""
        spec = get_machine(cohort.machine)
        machine = spec.build(
            spec.params.with_overrides(**dict(cohort.overrides)))
        executive = Executive(
            machine, spec.adapt_profile(self.profiles[cohort.workload]),
            seed=cohort.seed)
        executive.boot()
        return _CohortState(cohort, machine)

    def run(self) -> list:
        """Execute every lane; returns LaneResults in input order."""
        fused = len(self.lanes) - len(self.cohorts)
        obs.emit("batch_started", lanes=len(self.lanes),
                 cohorts=len(self.cohorts), fused=fused)
        metrics.counter("batch.lanes").inc(len(self.lanes))
        metrics.counter("batch.cohorts").inc(len(self.cohorts))
        if fused:
            metrics.counter("batch.fused_lanes").inc(fused)
        for cohort in self.cohorts:
            # The state (and its machine) is garbage once _advance
            # returns, before the next cohort boots.
            self._advance(self._boot(cohort))
        obs.emit("batch_finished", lanes=len(self.lanes),
                 cohorts=len(self.cohorts))
        return list(self._results)

    def _advance(self, state: _CohortState) -> None:
        """Run one cohort to each of its targets, capturing at each.

        A target whose run fails settles with the loop's message and
        the machine carries on toward the next: a scalar run with the
        larger budget passes through the same states, and its larger
        cycle limit cannot have fired any earlier.  A halted machine
        stays halted, so every later target fails the same way.
        """
        for target in state.cohort.targets:
            state.target = target
            try:
                run_until(state.machine, target)
            except RuntimeError as exc:
                self._fail_target(state, str(exc))
            else:
                self._capture(state)

    def _capture(self, state: _CohortState) -> None:
        measurement = Measurement.capture(state.cohort.workload,
                                          state.machine)
        metrics.counter("batch.captures").inc()
        self._settle_target(state, measurement=measurement)

    def _fail_target(self, state: _CohortState, error: str) -> None:
        metrics.counter("batch.lane_failures").inc()
        self._settle_target(state, error=error)

    def _settle_target(self, state: _CohortState, measurement=None,
                       error=None) -> None:
        for index in state.cohort.lanes_at(state.target):
            result = LaneResult(self.lanes[index], measurement, error)
            self._results[index] = result
            obs.emit("batch_lane_finished", lane=index,
                     label=self.lanes[index].label(), ok=result.ok)
            if self.on_result is not None:
                self.on_result(index, result)


def run_lanes(lanes, profiles=None, on_result=None,
              strict: bool = True) -> list:
    """Run lanes through one BatchRunner; optionally raise lane errors.

    With ``strict`` (the default) the first failed lane raises the
    scalar engine's :class:`RuntimeError` verbatim, matching what a
    serial loop over ``run_workload`` would have done.
    """
    results = BatchRunner(lanes, profiles=profiles,
                          on_result=on_result).run()
    if strict:
        for result in results:
            if result.error is not None:
                raise RuntimeError(result.error)
    return results
