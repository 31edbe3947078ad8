"""Sharded execution of design-space sweeps.

A sweep is a bag of independent (point × workload) simulations — the
same embarrassing parallelism as the composite experiments — so the
runner fans tasks out over :func:`repro.workloads.parallel.run_tasks`
(which brings bounded per-task retry and in-process fallback when the
pool dies) in shards, persisting each shard to the
:class:`~repro.explore.store.ResultStore` as it lands.  An interrupted
sweep therefore loses at most one shard, and a re-run simulates only
what the store has never seen.

Each simulation is *exactly* the code path of
:func:`repro.workloads.engine.run_workload` — fresh machine,
executive boot, measured run — so the default-params point is
bit-identical to the standard composite (a contract the tests pin).

``engine="batch"`` routes the outstanding tasks through the batch
engine (:mod:`repro.batch`) instead of the process pool: tasks that
differ only in budget fuse onto shared machines, so an
``instructions``-axis sweep costs one run of the longest point.
Records are bit-identical either way (the store key does not encode
the engine), and ``engine="auto"`` picks batch exactly when some tasks
actually fuse.
"""

from __future__ import annotations

import time

from repro import obs
from repro.analysis.measurement import Measurement
from repro.explore.space import SpaceError, SweepSpec
from repro.explore.store import ResultStore, code_version, result_key
from repro.obs import metrics
from repro.workloads.parallel import run_tasks
from repro.workloads.registry import WorkloadError, get_workload

#: Simulations performed by this process since import (tests use this
#: to assert that a warm store performs zero new simulations).
SIMULATIONS = 0


def _record(measurement, workload: str, instructions: int,
            seed: int, overrides: dict,
            machine: str = "vax780") -> dict:
    """Shape one run into the compact store record."""
    import hashlib

    from repro.analysis.reduction import Reduction
    from repro.explore.store import SCHEMA
    from repro.ucode.rows import COLUMN_ORDER, ROW_ORDER

    hist = measurement.histogram
    digest = hashlib.sha256()
    digest.update(hist.nonstalled.tobytes())
    digest.update(hist.stalled.tobytes())
    red = Reduction(hist)
    cells = {}
    for row in ROW_ORDER:
        for col in COLUMN_ORDER:
            cycles = red.cells[(row, col)]
            if cycles:
                cells.setdefault(row.name, {})[col.name] = cycles
    tracer = measurement.tracer
    mem = measurement.memory
    return {
        # The schema/code pair is already part of the key; repeating it
        # inside the record lets ResultStore.stats() break a store down
        # by version without re-deriving keys.
        "schema": SCHEMA,
        "code": code_version(),
        "workload": workload,
        "instructions": instructions,
        "seed": seed,
        "machine": machine,
        "overrides": dict(overrides),
        "cycles": measurement.cycles,
        "instructions_measured": red.instructions,
        "histogram": {
            "nonstalled_total": sum(hist.nonstalled),
            "stalled_total": sum(hist.stalled),
            "sha256": digest.hexdigest(),
        },
        "cells": cells,
        "decode": {
            "dispatches": tracer.decode_dispatches,
            "pc_change_dispatches": tracer.pc_change_dispatches,
            "overlapped_decodes": tracer.overlapped_decodes,
        },
        "memory": {
            "cache_read_misses_i": mem.cache_read_misses["i"],
            "cache_read_misses_d": mem.cache_read_misses["d"],
            "tb_misses": mem.tb_misses,
            "write_stall_cycles": mem.write_stall_cycles,
            "writes": mem.writes,
        },
    }


def _simulate_task(task) -> dict:
    """Worker entry point (top-level, so it pickles): one simulation."""
    global SIMULATIONS
    workload, instructions, seed, overrides, machine_name = task
    overrides = dict(overrides)

    from repro.machines.registry import get_machine
    from repro.osim.executive import Executive

    spec = get_machine(machine_name)
    profile = get_workload(workload).profile
    machine = spec.build(spec.params.with_overrides(**overrides))
    executive = Executive(machine, spec.adapt_profile(profile),
                          seed=seed)
    executive.boot()
    executive.run(instructions)
    measurement = Measurement.capture(workload, machine)
    SIMULATIONS += 1
    metrics.counter("explore.simulations").inc()
    return _record(measurement, workload, instructions, seed, overrides,
                   machine=machine_name)


class SweepResult:
    """Everything one sweep run produced."""

    def __init__(self, spec: SweepSpec, points: list, stats: dict) -> None:
        self.spec = spec
        self.points = points
        self.stats = stats

    def point(self, **overrides) -> dict:
        """The point result matching exactly the given overrides.

        The special ``seed``/``instructions`` axes are matched against
        the point's own fields; everything else against its
        MachineParams overrides.  No arguments selects the baseline.
        """
        seed = overrides.pop("seed", self.spec.seed)
        instructions = overrides.pop("instructions",
                                     self.spec.instructions)
        wanted = tuple(sorted(overrides.items()))
        for entry in self.points:
            point = entry["point"]
            if point.overrides == wanted and point.seed == seed \
                    and point.instructions == instructions:
                return entry
        return None


def compose(records) -> dict:
    """Sum per-workload records into a point composite (like §2.2)."""
    records = list(records)
    out = {
        "cycles": 0, "instructions_measured": 0,
        "histogram": {"nonstalled_total": 0, "stalled_total": 0},
        "cells": {},
        "decode": {"dispatches": 0, "pc_change_dispatches": 0,
                   "overlapped_decodes": 0},
        "memory": {},
    }
    for record in records:
        out["cycles"] += record["cycles"]
        out["instructions_measured"] += record["instructions_measured"]
        for key in ("nonstalled_total", "stalled_total"):
            out["histogram"][key] += record["histogram"][key]
        for row, cols in record["cells"].items():
            target = out["cells"].setdefault(row, {})
            for col, cycles in cols.items():
                target[col] = target.get(col, 0) + cycles
        for key, value in record["decode"].items():
            out["decode"][key] += value
        for key, value in record["memory"].items():
            out["memory"][key] = out["memory"].get(key, 0) + value
    return out


def _lanes(todo, points) -> list:
    """One batch lane per outstanding task."""
    from repro.batch import LaneSpec

    return [LaneSpec(workload, points[index].instructions,
                     points[index].seed, points[index].overrides,
                     points[index].machine)
            for index, workload, _key in todo]


def _run_batch(spec, todo, points, records, store, progress) -> None:
    """Simulate the outstanding tasks through the batch engine.

    Each task becomes one lane; lanes differing only in budget fuse
    onto shared machines (see :mod:`repro.batch.lanes`).  Results are
    persisted as each lane's boundary is captured, so an interrupted
    sweep keeps every lane that completed.  A failed lane raises the
    scalar engine's RuntimeError verbatim, exactly as the serial path
    would have propagated it.
    """
    from repro.batch import BatchRunner

    lanes = _lanes(todo, points)
    landed = {"lanes": 0}
    started = time.monotonic()

    def on_result(lane, result):
        global SIMULATIONS
        if result.error is not None:
            raise RuntimeError(result.error)
        index, workload, key = todo[lane]
        point = points[index]
        record = _record(result.measurement, workload,
                         point.instructions, point.seed,
                         dict(point.overrides), machine=point.machine)
        records[key] = record
        if store is not None:
            store.put(key, record)
        SIMULATIONS += 1
        metrics.counter("explore.simulations").inc()
        obs.emit("sweep_point_completed", spec=spec.name,
                 label=point.label(), workload=workload,
                 cycles=record["cycles"])
        landed["lanes"] += 1
        if progress is not None:
            elapsed = time.monotonic() - started
            progress(f"batch: {landed['lanes']}/{len(todo)} lanes "
                     f"captured elapsed {elapsed:.1f}s")

    runner = BatchRunner(lanes, on_result=on_result)
    if progress is not None:
        fused = len(lanes) - len(runner.cohorts)
        progress(f"batch: {len(lanes)} lanes in "
                 f"{len(runner.cohorts)} cohorts ({fused} fused)")
    runner.run()


def _batch_fuses(todo, points) -> bool:
    """Whether any outstanding tasks would share a machine."""
    keys = [lane.cohort_key() for lane in _lanes(todo, points)]
    return len(set(keys)) < len(keys)


def run_sweep(spec: SweepSpec, store: ResultStore = None, jobs: int = None,
              resume: bool = True, retries: int = 1,
              progress=None, engine: str = "scalar") -> SweepResult:
    """Run ``spec``, reusing stored results, and return every point.

    ``resume=False`` re-simulates every point (the store is still
    updated).  ``progress`` is an optional ``callable(str)`` fed
    shard-by-shard status lines with an ETA.  ``engine`` selects the
    execution engine: ``scalar`` (the pool-sharded per-task path),
    ``batch`` (the in-process batch engine), or ``auto`` (batch
    when tasks fuse, scalar otherwise); results are bit-identical.
    """
    from repro.batch import validate_engine

    global SIMULATIONS
    engine = validate_engine(engine)
    code = code_version()
    tasks = []          # (point_index, workload, key)
    points = spec.points()
    # Eager support check across every (machine, workload) pair the
    # sweep will touch — a machine axis can put a workload on a backend
    # that refuses it, and that should fail before the first shard.
    for machine_name in {point.machine for point in points}:
        for workload in spec.workloads:
            try:
                get_workload(workload).check_machine(machine_name)
            except WorkloadError as exc:
                raise SpaceError(str(exc)) from exc
    for index, point in enumerate(points):
        params = point.params()
        for workload in spec.workloads:
            key = result_key(params, workload, point.instructions,
                             point.seed, code=code,
                             machine=point.machine)
            tasks.append((index, workload, key))

    records = {}        # key -> record
    todo = []
    for index, workload, key in tasks:
        if key in records:
            continue
        record = store.get(key) if (store is not None and resume) else None
        if record is not None:
            records[key] = record
        elif not any(key == k for _, _, k in todo):
            todo.append((index, workload, key))
    cached = len(set(k for _, _, k in tasks)) - len(todo)
    metrics.counter("explore.resumed_points").inc(cached)
    if engine == "auto":
        engine = "batch" if _batch_fuses(todo, points) else "scalar"
    started = time.monotonic()
    obs.emit("sweep_started", spec=spec.name, points=len(points),
             workloads=len(spec.workloads), simulations=len(todo),
             cached=cached, engine=engine)

    if engine == "batch" and todo:
        _run_batch(spec, todo, points, records, store, progress)
    elif todo:
        # Shard the outstanding work so each shard's results are
        # persisted before the next starts: an interrupted sweep loses
        # at most one shard, and progress/ETA lines have something real
        # to report.
        from repro.workloads.parallel import default_jobs
        effective_jobs = jobs if jobs is not None else default_jobs()
        shard_size = max(1, 2 * effective_jobs)
        shards = [todo[i:i + shard_size]
                  for i in range(0, len(todo), shard_size)]
        simulated = 0
        for number, shard in enumerate(shards, start=1):
            payloads = []
            for index, workload, key in shard:
                point = points[index]
                payloads.append((workload, point.instructions,
                                 point.seed, point.overrides,
                                 point.machine))
            results = run_tasks(_simulate_task, payloads, jobs=jobs,
                                retries=retries)
            for (index, workload, key), record in zip(shard, results):
                records[key] = record
                if store is not None:
                    store.put(key, record)
                obs.emit("sweep_point_completed", spec=spec.name,
                         label=points[index].label(), workload=workload,
                         cycles=record["cycles"])
            simulated += len(shard)
            if effective_jobs > 1 and len(payloads) > 1:
                # The pool's workers simulated on our behalf (the
                # in-process path already counted itself inside
                # ``_simulate_task``).
                SIMULATIONS += len(shard)
            if progress is not None:
                elapsed = time.monotonic() - started
                remaining = len(todo) - simulated
                eta = elapsed / simulated * remaining if simulated \
                    else 0.0
                progress(f"shard {number}/{len(shards)}: "
                         f"{simulated}/{len(todo)} simulations "
                         f"({cached} cached) elapsed {elapsed:.1f}s "
                         f"eta {eta:.1f}s")

    out_points = []
    for index, point in enumerate(points):
        params = point.params()
        by_workload = {}
        for workload in spec.workloads:
            key = result_key(params, workload, point.instructions,
                             point.seed, code=code,
                             machine=point.machine)
            by_workload[workload] = records[key]
        out_points.append({
            "point": point,
            "label": point.label(),
            "records": by_workload,
            "composite": compose(by_workload.values()),
        })
    stats = {"points": len(points), "workloads": len(spec.workloads),
             "tasks": len(tasks), "simulated": len(todo),
             "cached": cached, "engine": engine,
             "seconds": round(time.monotonic() - started, 3)}
    obs.emit("sweep_finished", spec=spec.name, **stats)
    return SweepResult(spec, out_points, stats)
