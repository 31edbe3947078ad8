"""Measurement experiments over registered workloads, and composites.

Each experiment builds a fresh machine, boots the executive with one
registered workload (:mod:`repro.workloads.registry` — the paper's
five, the zoo, or an ingested trace), runs a measurement window, and
captures a :class:`~repro.analysis.measurement.Measurement`.  The
composite — the basis of every table in the paper — is the sum of the
selected workloads' histograms; the default composite is the paper's
five (§2.2: "we will report results for the composite of all five,
that is, the sum of the five µPC histograms") and stays bit-identical
no matter how large the registry grows.

Workloads are resolved *by name* through the registry (or passed as
a :class:`~repro.workloads.registry.WorkloadSpec`).

Results are memoised per (workload, instructions, seed, machine) so
that the table benchmarks, which all consume the same composite, pay
for the simulation once per process.  Trace-backed workloads replay
their recording (bit-verified, see :mod:`repro.workloads.trace`) and
are pinned to the recorded budget, seed and machine.

This is the internal engine behind the public facade
(:mod:`repro.api`).

Observability: runs report through :mod:`repro.obs` — lifecycle events,
an adaptive instruction-boundary progress sampler, and registry
counters.  All of it is passive (the sampler only reads counters), so
an observed run is bit-identical to an unobserved one and memoises
under the same key.
"""

from __future__ import annotations

from repro import obs
from repro.analysis.measurement import Measurement, composite
from repro.machines.registry import DEFAULT_MACHINE, get_machine
from repro.obs import metrics
from repro.osim.executive import Executive
from repro.workloads.registry import (WorkloadError, WorkloadSpec,
                                      get_workload, paper_workload_names)

#: Default measurement window per workload, in measured instructions.
#: ~60k per workload keeps a five-workload composite comfortably under a
#: minute while leaving per-instruction ratios stable to ~1 %.
DEFAULT_INSTRUCTIONS = 60_000

#: The fixed small budget behind every command's ``--smoke``.
SMOKE_INSTRUCTIONS = 2_000

_CACHE: dict = {}


def _finish(key, measurement, name, instructions) -> Measurement:
    _CACHE[key] = measurement
    metrics.counter("workloads.runs").inc()
    metrics.counter("workloads.cycles").inc(measurement.cycles)
    metrics.counter("workloads.instructions").inc(
        measurement.tracer.instructions)
    obs.emit("workload_finished", workload=name,
             instructions=instructions, cycles=measurement.cycles,
             cached=False)
    obs.record_measurement(measurement)
    return measurement


def _run_trace(spec: WorkloadSpec, instructions, seed: int,
               machine: str) -> Measurement:
    """Replay a trace-backed workload (pinned to its recording)."""
    handle = spec.trace
    spec.check_machine(machine)
    if instructions is None:
        instructions = handle.instructions
    if instructions != handle.instructions or seed != handle.seed:
        raise WorkloadError(
            f"trace workload {spec.name!r} was recorded at "
            f"{handle.instructions} instructions with seed "
            f"{handle.seed} and replays only there (got "
            f"instructions={instructions}, seed={seed})")
    key = (spec.name, instructions, seed, machine)
    cached = _CACHE.get(key)
    if cached is not None:
        metrics.counter("workloads.memo_hits").inc()
        obs.emit("workload_finished", workload=spec.name,
                 instructions=instructions, cycles=cached.cycles,
                 cached=True)
        obs.record_measurement(cached)
        return cached
    from repro.workloads.trace import replay

    obs.emit("workload_started", workload=spec.name,
             instructions=instructions, seed=seed)
    with metrics.timer("workloads.run_seconds").time():
        measurement = replay(handle)
    return _finish(key, measurement, spec.name, instructions)


def run_workload(workload, instructions: int = None,
                 seed: int = 1984, paranoid: bool = False,
                 machine: str = DEFAULT_MACHINE) -> Measurement:
    """Run one workload experiment and return its measurement.

    ``workload`` is a registered workload name (``None`` means the
    default) or a :class:`~repro.workloads.registry.WorkloadSpec`.  With
    ``paranoid`` the run carries a sampling invariant monitor (see
    :mod:`repro.validate.paranoid`); the monitor is passive, so the
    measurement is bit-identical and memoised under the same key.
    ``machine`` names a registered backend (:mod:`repro.machines`);
    workloads whose required executor families the machine refuses
    raise :class:`WorkloadError` here, before anything simulates, and
    a subset machine's profile adaptation is applied here, so callers
    always pass the canonical profiles.
    """
    spec = workload if isinstance(workload, WorkloadSpec) \
        else get_workload(workload)
    if spec.trace is not None:
        # Replay verifies bit-identity against the recording — a
        # strictly stronger check than the paranoid monitor.
        return _run_trace(spec, instructions, seed, machine)
    spec.check_machine(machine)
    profile = spec.profile
    if instructions is None:
        instructions = DEFAULT_INSTRUCTIONS
    key = (profile.name, instructions, seed, machine)
    cached = _CACHE.get(key)
    if cached is not None:
        metrics.counter("workloads.memo_hits").inc()
        obs.emit("workload_finished", workload=profile.name,
                 instructions=instructions, cycles=cached.cycles,
                 cached=True)
        obs.record_measurement(cached)
        return cached
    obs.emit("workload_started", workload=profile.name,
             instructions=instructions, seed=seed)
    machine_spec = get_machine(machine)
    sim = machine_spec.build()
    executive = Executive(sim, machine_spec.adapt_profile(profile),
                          seed=seed)
    executive.boot()
    observation = obs.active()
    sampler = None
    if observation is not None:
        # Chain after whatever the executive installed; the paranoid
        # monitor (installed below) chains after the sampler in turn.
        sampler = obs.ProgressSampler(sim, observation, profile.name)
        sampler.install()
    try:
        with metrics.timer("workloads.run_seconds").time():
            if paranoid:
                from repro.validate.paranoid import ParanoidMonitor

                with ParanoidMonitor(sim):
                    executive.run(instructions)
            else:
                executive.run(instructions)
    finally:
        if sampler is not None:
            sampler.uninstall()
    measurement = Measurement.capture(profile.name, sim)
    return _finish(key, measurement, profile.name, instructions)


def run_many(workloads=None, instructions: int = DEFAULT_INSTRUCTIONS,
             seed: int = 1984, jobs: int = 1, paranoid: bool = False,
             engine: str = "scalar",
             machine: str = DEFAULT_MACHINE) -> dict:
    """Run a set of registered workloads; returns name -> Measurement.

    ``workloads`` is an iterable of registered names (default: the
    paper's five, in the paper's order).  Unknown names and
    machine-refused workloads raise :class:`WorkloadError` for the
    whole set before anything simulates.  With ``jobs > 1`` the
    independent simulations are distributed over worker processes (see
    :mod:`repro.workloads.parallel`); with ``engine="batch"`` (or
    ``"auto"``) they run as lanes of one in-process batch instead (see
    :mod:`repro.batch`).  Both paths are bit-identical to the serial
    loop, so results memoise under the same per-workload keys.
    ``paranoid`` forces the serial scalar path (the monitor hooks one
    live machine in this process); a trace-backed workload in the set
    also forces scalar (a replay is pinned to its recording).
    """
    from repro.batch import validate_engine

    if workloads is None:
        names = paper_workload_names()
    else:
        names = tuple(workloads)
    specs = [get_workload(name) for name in names]
    for spec in specs:
        spec.check_machine(machine)
    engine = validate_engine(engine)
    if paranoid or any(spec.trace is not None for spec in specs):
        jobs = 1 if paranoid else jobs
        engine = "scalar"
    if engine == "auto":
        # The batch path needs no spare cores, so auto prefers it
        # whenever a pool was not requested.
        engine = "scalar" if jobs > 1 else "batch"
    todo = [spec for spec in specs
            if (spec.name, instructions, seed, machine) not in _CACHE]
    if engine == "batch" and todo:
        from repro.batch import LaneSpec, run_lanes

        lanes = [LaneSpec(spec.name, instructions, seed, machine=machine)
                 for spec in todo]
        for lane, result in zip(lanes, run_lanes(lanes)):
            _CACHE[(lane.workload, instructions, seed, machine)] = \
                result.measurement
    elif jobs > 1 and len(todo) > 1:
        from repro.workloads.parallel import run_standard_parallel

        fresh = run_standard_parallel(
            instructions, seed, jobs, machine=machine,
            workloads=[spec.name for spec in todo])
        for spec in todo:
            _CACHE[(spec.name, instructions, seed, machine)] = \
                fresh[spec.name]
    return {spec.name: run_workload(spec.name, instructions, seed,
                                    paranoid=paranoid, machine=machine)
            for spec in specs}


def run_standard_experiments(instructions: int = DEFAULT_INSTRUCTIONS,
                             seed: int = 1984, jobs: int = 1,
                             paranoid: bool = False,
                             engine: str = "scalar",
                             machine: str = DEFAULT_MACHINE) -> dict:
    """Run the paper's five experiments; returns name -> Measurement."""
    return run_many(None, instructions, seed, jobs=jobs,
                    paranoid=paranoid, engine=engine, machine=machine)


def _composite_key(names, instructions, seed, machine):
    if tuple(names) == paper_workload_names():
        # The historical key: the paper's composite memoises exactly
        # where it always has, no matter how the registry grows.
        return ("composite", instructions, seed, machine)
    return ("composite[%s]" % ",".join(names), instructions, seed,
            machine)


def standard_composite(instructions: int = DEFAULT_INSTRUCTIONS,
                       seed: int = 1984, jobs: int = 1,
                       paranoid: bool = False,
                       engine: str = "scalar",
                       machine: str = DEFAULT_MACHINE,
                       workloads=None) -> Measurement:
    """A composite measurement over ``workloads`` (memoised).

    The default — ``workloads=None`` — is the paper's five-workload
    composite, bit-identical to what this function has always
    returned.  Any other iterable of registered names sums that set's
    histograms instead, memoised under a key naming the set.
    """
    names = paper_workload_names() if workloads is None \
        else tuple(workloads)
    key = _composite_key(names, instructions, seed, machine)
    cached = _CACHE.get(key)
    if cached is not None:
        obs.record_measurement(cached)
        return cached
    runs = run_many(names, instructions, seed, jobs=jobs,
                    paranoid=paranoid, engine=engine, machine=machine)
    total = composite(runs.values())
    _CACHE[key] = total
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

    The batch engine's lanes are bit-identical to
    :func:`run_workload`, so a caller that already holds a lane's
    measurement (the serve dispatcher fusing co-queued budgets) may
    pre-seed the memo and let the ordinary facade path find it.
    """
    _CACHE[(name, instructions, seed, machine)] = measurement


def is_cached(name: str, instructions: int, seed: int,
              machine: str = DEFAULT_MACHINE) -> bool:
    """Whether a (workload, instructions, seed) run is already memoised."""
    return (name, instructions, seed, machine) in _CACHE
