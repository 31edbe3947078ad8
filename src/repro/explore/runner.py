"""Design-space sweeps through the cohort runner.

A sweep is a bag of independent (point × workload) simulations.  The
runner turns the ones the :class:`~repro.explore.store.ResultStore`
has never seen into one lane plan for :class:`repro.batch.BatchRunner`
— the code path of every measured run — and persists each record as
its lane lands, so an interrupted sweep loses only what was still
running, and a re-run simulates only what the store has never seen.
With ``jobs > 1`` the runner fans cohorts out over worker processes
(:func:`repro.workloads.parallel.run_tasks`, with its bounded per-task
retry and in-process fallback when the pool dies) in shards of
``2 × jobs``, and records land shard by shard.

``engine`` only decides whether budget-only lanes share a machine:
``batch`` fuses them, so an ``instructions``-axis sweep costs one run
of the longest point; ``scalar`` gives every lane its own machine;
``auto`` fuses exactly when some lanes would share one.  Records are
bit-identical either way (the store key does not encode the engine),
and the default-params point is bit-identical to the standard
composite (a contract the tests pin).
"""

from __future__ import annotations

import time

from repro import obs
from repro.explore.space import SweepSpec
from repro.explore.store import ResultStore, code_version, result_key
from repro.obs import metrics

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


def run_sweep(spec: SweepSpec, store: ResultStore = None, jobs: int = None,
              resume: bool = True, progress=None,
              engine: str = "scalar") -> SweepResult:
    """Run ``spec``, reusing stored results, and return every point.

    ``resume=False`` re-simulates every point (the store is still
    updated).  ``jobs`` (default: one per core, up to five) is the
    number of worker processes.  ``progress`` is an optional
    ``callable(str)`` fed status lines with an ETA as lanes land.
    ``engine`` — ``scalar``, ``batch`` or ``auto`` — decides whether
    budget-only lanes share a machine (see the module docstring);
    results are bit-identical.
    """
    from repro.batch import BatchRunner, LaneSpec, validate_engine
    from repro.workloads.parallel import default_jobs

    engine = validate_engine(engine)
    code = code_version()
    tasks = []          # (point_index, workload, key)
    points = spec.points()
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
    lanes = [LaneSpec(workload, points[index].instructions,
                      points[index].seed, points[index].overrides,
                      points[index].machine)
             for index, workload, _key in todo]
    if engine == "auto":
        keys = [lane.cohort_key() for lane in lanes]
        engine = "batch" if len(set(keys)) < len(keys) else "scalar"
    started = time.monotonic()
    obs.emit("sweep_started", spec=spec.name, points=len(points),
             workloads=len(spec.workloads), simulations=len(todo),
             cached=cached, engine=engine)

    landed = 0

    def on_result(lane, result):
        global SIMULATIONS
        nonlocal landed
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
        landed += 1
        if progress is not None:
            elapsed = time.monotonic() - started
            eta = elapsed / landed * (len(todo) - landed)
            progress(f"{landed}/{len(todo)} lanes captured ({cached} "
                     f"cached) elapsed {elapsed:.1f}s eta {eta:.1f}s")

    if lanes:
        runner = BatchRunner(
            lanes, on_result=on_result,
            jobs=default_jobs() if jobs is None else jobs,
            fuse=engine == "batch")
        if progress is not None:
            fused = len(lanes) - len(runner.cohorts)
            progress(f"{engine}: {len(lanes)} lanes in "
                     f"{len(runner.cohorts)} cohorts ({fused} fused)")
        runner.run()

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
