"""The cohort runner: the one path that boots, runs and captures.

:class:`BatchRunner` executes a list of :class:`~repro.batch.lanes.LaneSpec`
requests by fusing budget-only variants into cohorts (or, with
``fuse=False``, giving every lane its own).  Each cohort boots one
machine through the machine registry, runs it to each of its capture
boundaries in ascending order with :func:`repro.osim.executive.run_until`
— the loop :meth:`~repro.osim.executive.Executive.run` itself uses — and
captures a :class:`~repro.analysis.measurement.Measurement` at each.
When the cohort ends, failed targets included, the runner releases its
machine (:meth:`~repro.cpu.machine.VAX780.release`): that breaks the
reference cycles a booted machine carries, so reference counting frees
the machine, its EBox and its memory as the cohort's state is dropped,
before the next cohort boots, and only one is alive at a time.  Left
to the cycle collector, a sweep would hold several dead machines at
once.  A one-lane cohort *is* the scalar run, so the
workload engine (:mod:`repro.workloads.engine`), design-space sweeps
(:mod:`repro.explore.runner`) and serve's fusion all simulate here.

Cohorts that differ only in params overrides boot the same programs:
the generator sees the workload, the seed and the machine's adapted
profile, never a MachineParams field.  The runner keeps one
(workload, seed, machine) program set
(:func:`repro.osim.executive.generate_programs`) from the first cohort
that needs it, hands it to the later ones and lets it go once the last
has booted.  A set generates a process's program only when some
cohort's scheduler first dispatches that process, and keeps it, so a
params sweep pays for each dispatched process's program once and for
a never-dispatched one not at all.  A pool task runs one cohort and
generates only what that cohort dispatches.

Around each cohort the runner installs the passive boundary hooks a
measured run may carry: the obs :class:`~repro.obs.ProgressSampler`
when an observation is active, and with ``paranoid`` the
:class:`~repro.validate.paranoid.ParanoidMonitor`.  With ``jobs > 1``
cohorts fan out over worker processes
(:func:`repro.workloads.parallel.run_tasks`) in shards of ``2 × jobs``,
and ``on_result`` then fires for each lane in the calling process as
its shard lands, instead of per capture.  A paranoid run stays in this
process, so a violation raises once rather than through the pool's
retries.

Bit-identity contract: each lane's measurement equals, bit for bit,
what an independent :meth:`Executive.run` produces for the same
(workload, params, instructions, seed, machine) — including the two
failure modes, which reproduce its exact :class:`RuntimeError`
messages.  Resuming the loop toward a larger budget is invisible to
the machine: the loop's checks at each state only read it, and a
capture is passive (``settle_gate`` is idempotent and the board is
only read), as the µPC monitor's board is on the real 780.  The
differential fuzzer (:mod:`repro.validate.differential`) enforces the
contract on randomly perturbed profiles.
"""

from __future__ import annotations

import multiprocessing
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass

from repro import obs
from repro.analysis.measurement import Measurement
from repro.batch.lanes import Cohort, LaneSpec, plan_cohorts
from repro.machines.registry import get_machine
from repro.obs import metrics
from repro.osim.executive import Executive, generate_programs, run_until


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
    """Run lanes cohort by cohort; results in input-lane order.

    ``on_start(cohort)`` fires before a cohort boots (with a pool, as
    its shard is handed out) and ``on_result(lane_index, LaneResult)``
    as each lane settles, both in the calling process.
    """

    def __init__(self, lanes, profiles=None, on_result=None, jobs=1,
                 paranoid=False, fuse=True, on_start=None) -> None:
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
        self.on_start = on_start
        self.jobs = jobs
        self.paranoid = paranoid
        self.observation = obs.active()
        self.cohorts = plan_cohorts(self.lanes, fuse=fuse)
        self._results = [None] * len(self.lanes)
        # Program sets by (workload, seed, machine), and how many
        # cohorts have yet to boot on each.
        self._programs = {}
        self._boots_left = Counter(_program_key(cohort)
                                   for cohort in self.cohorts)

    def _boot(self, cohort: Cohort) -> _CohortState:
        """A freshly booted machine for ``cohort``, built through the
        machine registry."""
        spec = get_machine(cohort.machine)
        profile = spec.adapt_profile(self.profiles[cohort.workload])
        programs = self._programs_for(cohort, profile)
        machine = spec.build(
            spec.params.with_overrides(**dict(cohort.overrides)))
        executive = Executive(machine, profile, seed=cohort.seed,
                              programs=programs)
        executive.boot()
        return _CohortState(cohort, machine)

    def _programs_for(self, cohort: Cohort, profile):
        """The program set ``cohort`` boots on.

        Made at the first cohort of its (workload, seed, machine), held
        for the later ones and let go at the last: params overrides
        never reach the generator, while the machine's adapted profile
        may.
        """
        key = _program_key(cohort)
        programs = self._programs.pop(key, None)
        if programs is None:
            programs = generate_programs(profile, cohort.seed)
        self._boots_left[key] -= 1
        if self._boots_left[key]:
            self._programs[key] = programs
        return programs

    def run(self) -> list:
        """Execute every lane; returns LaneResults in input order."""
        fused = len(self.lanes) - len(self.cohorts)
        obs.emit("batch_started", lanes=len(self.lanes),
                 cohorts=len(self.cohorts), fused=fused)
        metrics.counter("batch.lanes").inc(len(self.lanes))
        metrics.counter("batch.cohorts").inc(len(self.cohorts))
        if fused:
            metrics.counter("batch.fused_lanes").inc(fused)
        if self.jobs > 1 and len(self.cohorts) > 1 and not self.paranoid:
            self._fan_out()
        else:
            for cohort in self.cohorts:
                self._start(cohort)
                # The state (and its released machine) is freed once
                # _advance returns, before the next cohort boots.
                self._advance(self._boot(cohort))
        obs.emit("batch_finished", lanes=len(self.lanes),
                 cohorts=len(self.cohorts))
        return list(self._results)

    def _fan_out(self) -> None:
        """Run the cohorts in worker processes, ``2 × jobs`` per shard."""
        from repro.workloads.parallel import run_tasks

        size = 2 * self.jobs
        for first in range(0, len(self.cohorts), size):
            shard = self.cohorts[first:first + size]
            tasks = []
            for cohort in shard:
                self._start(cohort)
                tasks.append(([spec for _, spec in cohort.lanes],
                              {cohort.workload:
                               self.profiles[cohort.workload]}))
            for cohort, results in zip(
                    shard, run_tasks(_run_cohort, tasks, jobs=self.jobs)):
                for (index, _), result in zip(cohort.lanes, results):
                    self._settle(index, result)

    def _start(self, cohort: Cohort) -> None:
        if self.on_start is not None:
            self.on_start(cohort)

    def _hooks(self, state: _CohortState) -> ExitStack:
        """The passive boundary hooks one cohort's run carries.

        The sampler chains after whatever the executive installed and
        the paranoid monitor after the sampler.
        """
        hooks = ExitStack()
        if self.observation is not None:
            hooks.enter_context(obs.ProgressSampler(
                state.machine, self.observation, state.cohort.workload))
        if self.paranoid:
            from repro.validate.paranoid import ParanoidMonitor

            hooks.enter_context(ParanoidMonitor(state.machine))
        return hooks

    def _advance(self, state: _CohortState) -> None:
        """Run one cohort to each of its targets, capturing at each,
        then release its machine.

        A target whose run fails settles with the loop's message and
        the machine carries on toward the next: a scalar run with the
        larger budget passes through the same states, and its larger
        cycle limit cannot have fired any earlier.  A halted machine
        stays halted, so every later target fails the same way.
        """
        try:
            with self._hooks(state):
                for target in state.cohort.targets:
                    state.target = target
                    try:
                        run_until(state.machine, target)
                    except RuntimeError as exc:
                        self._fail_target(state, str(exc))
                    else:
                        self._capture(state)
        finally:
            state.machine.release()

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
            self._settle(index, LaneResult(self.lanes[index], measurement,
                                           error))

    def _settle(self, index: int, result: LaneResult) -> None:
        self._results[index] = result
        obs.emit("batch_lane_finished", lane=index,
                 label=self.lanes[index].label(), ok=result.ok)
        if self.on_result is not None:
            self.on_result(index, result)


def _program_key(cohort: Cohort) -> tuple:
    return cohort.workload, cohort.seed, cohort.machine


def _run_cohort(task) -> list:
    """Pool worker entry point (top-level, so it pickles): one cohort.

    Returns its LaneResults in the cohort's lane order.  A forked
    worker inherits the caller's observation but cannot report to it,
    so there the cohort runs without a progress sampler.
    """
    lanes, profiles = task
    runner = BatchRunner(lanes, profiles)
    if multiprocessing.parent_process() is not None:
        runner.observation = None
    for cohort in runner.cohorts:
        runner._advance(runner._boot(cohort))
    return runner._results


def run_lanes(lanes, strict: bool = True, **options) -> list:
    """Run lanes through one BatchRunner; optionally raise lane errors.

    ``options`` are :class:`BatchRunner`'s.  With ``strict`` (the
    default) the first failed lane raises the scalar engine's
    :class:`RuntimeError` verbatim, matching what a serial loop over
    :meth:`Executive.run` would have done.
    """
    results = BatchRunner(lanes, **options).run()
    if strict:
        for result in results:
            if result.error is not None:
                raise RuntimeError(result.error)
    return results
