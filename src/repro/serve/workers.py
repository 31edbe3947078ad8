"""Job execution: facade calls behind the dispatcher's worker rounds.

The dispatcher hands each round to
:func:`repro.workloads.parallel.run_tasks` with :func:`run_group` as
the worker — so a multi-group round fans out over worker processes
with the same bounded retry and pool-death in-process fallback the
sweep runner relies on, and every group comes back wrapped with its
metrics delta for the deterministic merge.

A *group* is ``(command, [exec_kwargs, ...])``: a singleton for most
jobs, or several co-queued ``engine="auto"`` characterize jobs that
differ only in budget.  For those, :func:`prefuse_characterize` hands
every (workload × budget) to the workload engine as lanes of one
:func:`~repro.workloads.engine.measure` call — budget-only lanes fuse
onto shared machines in the cohort runner (:mod:`repro.batch`), so K
co-queued budgets cost about one run of the largest — and the engine
memoises each fresh measurement, so the ordinary facade call then
assembles each job's result without simulating anything.  Results are
bit-identical to direct facade calls either way; fusion only moves
wall-clock time.

Deterministic failures (an :class:`~repro.api.ApiError` that slipped
past submission validation, a simulation error) are *returned* as
error envelopes rather than raised, so ``run_tasks`` never burns its
retries re-running a job that will fail identically; only a worker
process dying triggers the retry/fallback machinery.
"""

from __future__ import annotations

import time

from repro import api
from repro.obs import metrics

#: Facade calls actually executed by this process since import — the
#: service twin of ``repro.explore.runner.SIMULATIONS``.  Coalesced and
#: cache-served jobs never increment it; the dedup tests pin that.
EXECUTIONS = 0

#: command name -> facade function.
EXECUTORS = {
    "characterize": api.characterize,
    "run-workload": api.run_workload,
    "ubench": api.ubench,
    "explore": api.explore,
    "validate": api.validate,
}


def execute(command: str, kwargs: dict) -> dict:
    """Run one facade call; returns an ok/error envelope, never raises.

    The envelope's ``result`` is the facade result's ``to_json()``
    document — exactly what a direct caller would serialize, so cached
    replays are bit-identical.
    """
    global EXECUTIONS
    func = EXECUTORS[command]
    started = time.perf_counter()
    try:
        result = func(**kwargs)
    except Exception as exc:
        metrics.counter("serve.jobs.failed").inc()
        return {"ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "seconds": round(time.perf_counter() - started, 6)}
    EXECUTIONS += 1
    metrics.counter("serve.jobs.executed").inc()
    return {"ok": True, "result": result.to_json(),
            "seconds": round(time.perf_counter() - started, 6)}


def prefuse_characterize(payloads) -> None:
    """Fuse a group of budget-only characterize jobs into one batch.

    ``payloads`` agree on everything but ``instructions`` (the fusion
    group key guarantees it).  Every (workload, budget) the group
    needs becomes one lane of a single :func:`repro.workloads.engine.
    measure` call — the entry point of every engine run — so
    budget-only lanes fuse onto shared machines and each fresh
    measurement lands in the engine memo under the key the facade will
    look up.
    """
    from repro.batch import LaneSpec
    from repro.workloads import engine as _engines

    lanes = []
    for kwargs in payloads:
        args = api.COMMANDS["characterize"].canonical(kwargs)
        lanes += [LaneSpec(name, args["instructions"], args["seed"],
                           machine=args["machine"])
                  for name in args["workloads"]]
    runs = metrics.counter("workloads.runs").value
    _engines.measure(lanes, jobs=args["jobs"], paranoid=args["paranoid"])
    # The engine counts each fresh measurement once: the lanes simulated.
    metrics.counter("serve.fused_lanes").inc(
        metrics.counter("workloads.runs").value - runs)


def run_group(task) -> list:
    """Worker entry point (top-level, so it pickles): one job group."""
    command, payloads = task
    if command == "characterize" and len(payloads) > 1:
        try:
            prefuse_characterize(payloads)
        except Exception:
            # A failed lane fails again, identically, in the per-job
            # facade call below — which is where the error belongs,
            # attributed to the job that asked for it.
            pass
    return [execute(command, kwargs) for kwargs in payloads]
