"""Measurement experiments over registered workloads, and composites.

Each experiment runs one registered workload
(:mod:`repro.workloads.registry` — the paper's five, the zoo, or an
ingested trace) on a fresh machine for a measurement window and
captures a :class:`~repro.analysis.measurement.Measurement`.  Every
generator-workload run is a lane of the cohort runner
(:class:`repro.batch.BatchRunner`), at any ``jobs``; the engine around
it is a memo lookup and the bookkeeping of each fresh measurement
(:func:`measure`).  The
composite — the basis of every table in the paper — is the sum of the
selected workloads' histograms; the default composite is the paper's
five (§2.2: "we will report results for the composite of all five,
that is, the sum of the five µPC histograms") and stays bit-identical
no matter how large the registry grows.

Workloads are resolved *by name* through the registry (or passed as
a :class:`~repro.workloads.registry.WorkloadSpec`).

Results are memoised per :class:`~repro.batch.LaneSpec` — workload,
instructions, seed, params overrides and machine, everything that
shapes a run — so that the table benchmarks, which all consume the
same composite, pay for the simulation once per process.  Trace-backed
workloads replay their recording (bit-verified, see
:mod:`repro.workloads.trace`) and are pinned to the recorded budget,
seed and machine.

This is the internal engine behind the public facade
(:mod:`repro.api`).

Observability: runs report through :mod:`repro.obs` — lifecycle events,
the runner's adaptive instruction-boundary progress sampler, and
registry counters, all in the calling process: ``workloads.runs``,
``workloads.cycles`` and ``workloads.instructions`` count each fresh
measurement once and ``workloads.memo_hits`` each memo answer, on
every path.  All of it is passive (the sampler only reads counters),
so an observed run is bit-identical to an unobserved one and memoises
under the same key.
"""

from __future__ import annotations

from repro import obs
from repro.analysis.measurement import Measurement, composite
from repro.batch import LaneSpec, run_lanes
from repro.machines.registry import DEFAULT_MACHINE
from repro.obs import metrics
from repro.workloads.registry import (WorkloadSpec, get_workload,
                                      paper_workload_names)

#: Default measurement window per workload, in measured instructions.
#: ~60k per workload keeps a five-workload composite comfortably under a
#: minute while leaving per-instruction ratios stable to ~1 %.
DEFAULT_INSTRUCTIONS = 60_000

#: The fixed small budget behind every command's ``--smoke``.
SMOKE_INSTRUCTIONS = 2_000

_CACHE: dict = {}


def _hit(lane, measurement) -> Measurement:
    metrics.counter("workloads.memo_hits").inc()
    obs.emit("workload_finished", workload=lane.workload,
             instructions=lane.instructions,
             cycles=measurement.cycles, cached=True)
    obs.record_measurement(measurement)
    return measurement


def _finish(lane, measurement) -> Measurement:
    _CACHE[lane] = measurement
    metrics.counter("workloads.runs").inc()
    metrics.counter("workloads.cycles").inc(measurement.cycles)
    metrics.counter("workloads.instructions").inc(
        measurement.tracer.instructions)
    obs.emit("workload_finished", workload=lane.workload,
             instructions=lane.instructions,
             cycles=measurement.cycles, cached=False)
    obs.record_measurement(measurement)
    return measurement


def _run_trace(spec: WorkloadSpec, instructions, seed: int,
               machine: str) -> Measurement:
    """Replay a trace-backed workload (pinned to its recording)."""
    handle = spec.trace
    spec.check_machine(machine)
    if instructions is None:
        instructions = handle.instructions
    spec.check_replay(instructions, seed)
    lane = LaneSpec(spec.name, instructions, seed, machine=machine)
    cached = _CACHE.get(lane)
    if cached is not None:
        return _hit(lane, cached)
    from repro.workloads.trace import replay

    obs.emit("workload_started", workload=spec.name,
             instructions=instructions, seed=seed)
    with metrics.timer("workloads.run_seconds").time():
        measurement = replay(handle)
    return _finish(lane, measurement)


def measure(lanes, jobs: int = 1, paranoid: bool = False) -> list:
    """Measurements of generator-workload lanes, in lane order.

    Each :class:`~repro.batch.LaneSpec` is looked up in the memo first;
    the rest run through one :class:`~repro.batch.BatchRunner` call
    (budget-only lanes fuse, ``jobs > 1`` fans cohorts out over worker
    processes, ``paranoid`` hooks the invariant monitor onto each
    cohort) and are memoised as they land, in this process.  A failed lane
    raises its :class:`RuntimeError` once every lane has run.  The answer
    holds what this call looked up or landed, whatever leaves the memo
    meanwhile.
    """
    found = {}
    fresh = []
    for lane in lanes:
        if lane in _CACHE:
            found[lane] = _hit(lane, _CACHE[lane])
        elif lane not in fresh:
            fresh.append(lane)
    if fresh:
        def started(cohort):
            obs.emit("workload_started", workload=cohort.workload,
                     instructions=cohort.targets[-1], seed=cohort.seed)

        def landed(index, result):
            if result.ok:
                found[result.spec] = _finish(result.spec,
                                             result.measurement)

        with metrics.timer("workloads.run_seconds").time():
            run_lanes(fresh, jobs=jobs, paranoid=paranoid,
                      on_start=started, on_result=landed)
    return [found[lane] for lane in lanes]


def run_workload(workload, instructions: int = None,
                 seed: int = 1984, paranoid: bool = False,
                 machine: str = DEFAULT_MACHINE) -> Measurement:
    """Run one workload experiment and return its measurement.

    ``workload`` is a registered workload name (``None`` means the
    default) or its :class:`~repro.workloads.registry.WorkloadSpec`.
    With ``paranoid`` the run carries a sampling invariant monitor (see
    :mod:`repro.validate.paranoid`); the monitor is passive, so the
    measurement is bit-identical and memoised under the same key.
    ``machine`` names a registered backend (:mod:`repro.machines`);
    workloads whose required executor families the machine refuses
    raise :class:`WorkloadError` here, before anything simulates, and
    a subset machine's profile adaptation is applied by the runner, so
    callers always pass the canonical profiles.
    """
    spec = workload if isinstance(workload, WorkloadSpec) \
        else get_workload(workload)
    if instructions is None and spec.trace is None:
        instructions = DEFAULT_INSTRUCTIONS
    return run_many([spec.name], instructions, seed, paranoid=paranoid,
                    machine=machine)[spec.name]


def run_many(workloads=None, instructions: int = DEFAULT_INSTRUCTIONS,
             seed: int = 1984, jobs: int = 1, paranoid: bool = False,
             machine: str = DEFAULT_MACHINE) -> dict:
    """Run a set of registered workloads; returns name -> Measurement.

    ``workloads`` is an iterable of registered names (default: the
    paper's five, in the paper's order).  Unknown names and
    machine-refused workloads raise :class:`WorkloadError` for the
    whole set before anything simulates.  The generator workloads run
    as lanes of one :func:`measure` call — with ``jobs > 1`` in worker
    processes — and are bit-identical at any ``jobs``, so results
    memoise under the same per-workload keys.  A trace-backed workload
    replays its recording instead (see :mod:`repro.workloads.trace`),
    which verifies bit-identity with the recording — a stronger check
    than ``paranoid``.
    """
    names = paper_workload_names() if workloads is None \
        else tuple(workloads)
    specs = [get_workload(name) for name in names]
    for spec in specs:
        spec.check_machine(machine)
    lanes = [LaneSpec(spec.name, instructions, seed, machine=machine)
             for spec in specs if spec.trace is None]
    fresh = iter(measure(lanes, jobs=jobs, paranoid=paranoid))
    return {spec.name: next(fresh) if spec.trace is None
            else _run_trace(spec, instructions, seed, machine)
            for spec in specs}


def run_standard_experiments(instructions: int = DEFAULT_INSTRUCTIONS,
                             seed: int = 1984, jobs: int = 1,
                             paranoid: bool = False,
                             machine: str = DEFAULT_MACHINE) -> dict:
    """Run the paper's five experiments; returns name -> Measurement."""
    return run_many(None, instructions, seed, jobs=jobs,
                    paranoid=paranoid, machine=machine)


def standard_composite(instructions: int = DEFAULT_INSTRUCTIONS,
                       seed: int = 1984, jobs: int = 1,
                       paranoid: bool = False,
                       machine: str = DEFAULT_MACHINE,
                       workloads=None) -> Measurement:
    """A composite measurement over ``workloads`` (memoised).

    The default — ``workloads=None`` — is the paper's five-workload
    composite, bit-identical to what this function has always
    returned.  Any other iterable of registered names sums that set's
    histograms instead.  Every call looks its runs up through
    :func:`run_many` (a repeat counts one memo hit per workload) and
    memoises the sum under a key naming the set.
    """
    names = paper_workload_names() if workloads is None \
        else tuple(workloads)
    runs = run_many(names, instructions, seed, jobs=jobs,
                    paranoid=paranoid, machine=machine)
    key = ("composite", names, instructions, seed, machine)
    total = _CACHE.get(key)
    if total is None:
        total = _CACHE[key] = composite(runs.values())
        obs.emit("composite_finished", workloads=len(runs),
                 instructions=instructions, cycles=total.cycles)
    obs.record_measurement(total)
    return total


def clear_cache() -> None:
    """Drop memoised measurements (tests that vary parameters use this)."""
    _CACHE.clear()


def prime_cache(name: str, instructions: int, seed: int, measurement,
                machine: str = DEFAULT_MACHINE) -> None:
    """Memoise a measurement produced elsewhere under its run key.

    A trace recording is bit-identical to :func:`run_workload` of its
    source workload (the recorder is a passive boundary hook), so
    ``repro record-trace`` seeds the memo with its measurement.
    """
    _CACHE[LaneSpec(name, instructions, seed, machine=machine)] = \
        measurement
