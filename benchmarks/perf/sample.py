"""One sample of an in-process workload, in a fresh interpreter.

    python sample.py WORKLOAD SEED TRACED WORKDIR

``run.py`` launches this once per sample, one child at a time, with
``src`` on ``PYTHONPATH``.  A fresh interpreter per sample keeps
in-process memos (the engine ``_CACHE``, ``code_version()``'s cache)
from turning repeats into a different program than a one-shot call.

The child sets up (imports, then builds and boots every machine the
operation will build), runs the workload's uncached operation once and
its cached operation back to back for :data:`HIT_SECONDS` (at least
:data:`MIN_HITS` times), checks the answers, and prints one JSON
document as its last line of output.  The document gives every phase
as ``time.monotonic()`` instants, and, untraced, the runs of the
reference loop (see ``pace.py``) that turn them into times at the
reference speed.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import pace

#: Seconds of cached operations timed per sample, and the fewest timed.
#: A cached call takes 1-15 ms, and on a shared host its speed moves
#: between two levels about 1.6x apart; the mean of a second of calls
#: weighs the levels by the time spent in each, where the median of
#: twenty calls lands on one level or the other.
HIT_SECONDS = 1.0
MIN_HITS = 20

PAPER_COMPOSITE = "paper-composite"
ZOO_UVAX = "zoo-uvax"
SWEEP_BUDGET = "sweep-budget"

#: The engine's reference pin: the paper composite at 60k/seed 1984.
PAPER_PIN_CYCLES = 2_082_708
PAPER_PIN_SEED = 1984
#: The paper's composite CPI (Table 8's total).
PAPER_CPI = 10.593

#: The program's own counters a traced sample reports.
REGISTRY_COUNTERS = ("batch.lanes", "batch.cohorts", "explore.store.hits",
                     "explore.store.misses", "explore.store.writes")

ZOO_WORKLOADS = ("cache-thrash", "tb-thrash", "interrupt-storm",
                 "compiler-build")
SWEEP_AXES = ("instructions=1000,2000,4000,8000",
              "cache_bytes=4096,16384")


def _operation(workload: str, seed: int, workdir: str):
    """(call, machines to boot, machine name) for one workload."""
    from repro import api
    from repro.workloads.registry import paper_workload_names

    if workload == PAPER_COMPOSITE:
        # 60k is explicit: api.DEFAULT_INSTRUCTIONS is 30k, and the
        # pinned composite is the engine's 60k default.
        def call():
            return api.characterize(instructions=60_000, table="all",
                                    seed=seed)
        return call, [(name, "vax780", ()) for name in
                      paper_workload_names()], "vax780"
    if workload == ZOO_UVAX:
        def call():
            return api.characterize(workloads=list(ZOO_WORKLOADS),
                                    machine="uvax78032",
                                    instructions=20_000, table="8",
                                    seed=seed)
        return call, [(name, "uvax78032", ()) for name in
                      ZOO_WORKLOADS], "uvax78032"
    if workload == SWEEP_BUDGET:
        store = os.path.join(workdir, "store")

        def call():
            return api.explore(spec="smoke", axes=SWEEP_AXES,
                               mode="cartesian", engine="auto",
                               seed=seed, store=store)
        spec = api.explore_spec("smoke", SWEEP_AXES, "cartesian",
                                seed=seed)
        boots = sorted({(name, point.machine, point.overrides)
                        for point in spec.points()
                        for name in spec.workloads})
        return call, boots, spec.machine
    raise SystemExit(f"unknown in-process workload {workload!r}")


def _boot(boots, seed: int) -> None:
    """Build and boot every machine the operation will build."""
    from repro.machines.registry import get_machine
    from repro.osim.executive import Executive
    from repro.workloads.registry import get_workload

    for name, machine_name, overrides in boots:
        spec = get_machine(machine_name)
        machine = spec.build(spec.params.with_overrides(**dict(overrides)))
        Executive(machine,
                  spec.adapt_profile(get_workload(name).profile),
                  seed=seed).boot()


def _answered(workload: str, result) -> tuple:
    """(measured instructions, simulated cycles) in the answer.

    A sweep answers for every point, so its counts are summed over them.
    """
    if workload == SWEEP_BUDGET:
        return tuple(sum(entry["composite"][key]
                         for entry in result.sweep.points)
                     for key in ("instructions_measured", "cycles"))
    return result.instructions_measured, result.cycles


def _check_miss(workload: str, seed: int, result, machine: str) -> list:
    """Problems with the uncached answer (empty when it is correct)."""
    from repro.validate import check_measurement

    problems = []
    if workload == SWEEP_BUDGET:
        if result.stats["simulated"] != result.stats["tasks"]:
            problems.append(f"cold sweep simulated "
                            f"{result.stats['simulated']} of "
                            f"{result.stats['tasks']} tasks")
        if not result.ok:
            problems.append("sweep reported not ok")
        return problems
    report = check_measurement(result.measurement, machine=machine)
    if not report.ok:
        problems.append(f"invariants failed: "
                        f"{[c.name for c in report.failures()]}")
    if workload == PAPER_COMPOSITE and seed == PAPER_PIN_SEED \
            and result.cycles != PAPER_PIN_CYCLES:
        problems.append(f"composite counted {result.cycles} cycles, "
                        f"pinned {PAPER_PIN_CYCLES}")
    return problems


def _answer(workload: str, result) -> str:
    """The part of an answer a cached repeat must reproduce exactly."""
    if workload == SWEEP_BUDGET:
        return json.dumps([entry["records"]
                           for entry in result.sweep.points],
                          sort_keys=True)
    return json.dumps(result.to_json(), sort_keys=True)


def _expected_counts(workload: str, result) -> dict:
    """Ground truth for the traced counters, from the answer itself.

    A sweep's lockstep cohorts run each (workload, seed, overrides) once
    to its largest budget, so the stepping spans must add up to the
    largest-budget record of every cohort.
    """
    if workload != SWEEP_BUDGET:
        tracer = result.measurement.tracer
        memory = result.measurement.memory
        return {"instructions": tracer.instructions,
                "cycles": result.cycles,
                "ib_refs": memory.ib_references,
                "overlapped_decodes": tracer.overlapped_decodes,
                "read_misses": sum(memory.cache_read_misses.values()),
                "write_stall_cycles": memory.write_stall_cycles,
                "tb_misses": memory.tb_misses,
                "interrupts": tracer.interrupts,
                "context_switches": tracer.context_switches}
    longest = {}
    for entry in result.sweep.points:
        point = entry["point"]
        for name, record in entry["records"].items():
            key = (name, point.seed, point.overrides)
            if key not in longest or record["instructions"] \
                    > longest[key]["instructions"]:
                longest[key] = record
    return {"instructions": sum(record["instructions_measured"]
                                for record in longest.values()),
            "cycles": sum(record["cycles"] for record in longest.values())}


def _registry_counts() -> dict:
    from repro.obs import metrics

    registry = metrics.registry()
    return {name: registry.counter(name).value
            for name in REGISTRY_COUNTERS}


def main(argv) -> int:
    workload, seed, traced, workdir = \
        argv[0], int(argv[1]), argv[2] == "1", argv[3]
    recorder = pacer = None
    if traced:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    else:
        pacer = pace.Pacer()
        pacer.start()
    call, boots, machine = _operation(workload, seed, workdir)
    _boot(boots, seed)
    setup_done = time.monotonic()

    miss_op = len(recorder.spans) if recorder is not None else None
    started = time.monotonic()
    result = call()
    work = [started, time.monotonic()]
    problems = _check_miss(workload, seed, result, machine)
    failed = 1 if problems else 0
    answer = _answer(workload, result)
    hits = []
    deadline = time.monotonic() + HIT_SECONDS
    while len(hits) < MIN_HITS or time.monotonic() < deadline:
        started = time.monotonic()
        repeat = call()
        hits.append([started, time.monotonic()])
        bad = []
        if workload == SWEEP_BUDGET and repeat.stats["simulated"]:
            bad.append(f"warm sweep simulated "
                       f"{repeat.stats['simulated']} tasks")
        if _answer(workload, repeat) != answer:
            bad.append("cached answer differs from the uncached one")
        failed += 1 if bad else 0
        problems += bad
    instructions, cycles = _answered(workload, result)
    doc = {
        "setup_done": setup_done,
        "instructions": instructions,
        "cycles": cycles,
        "work": work,
        "miss": [work],
        "hit": hits,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": 1 + len(hits),
        "failed": failed,
        "problems": problems,
        "cpi": getattr(result, "cycles_per_instruction", None),
    }
    if pacer is not None:
        pacer.stop()
        doc["bursts"] = pacer.bursts
    if recorder is not None:
        doc["spans"] = recorder.spans
        doc["miss_ops"] = [miss_op]
        doc["expected_counts"] = _expected_counts(workload, result)
        doc["registry"] = _registry_counts()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
