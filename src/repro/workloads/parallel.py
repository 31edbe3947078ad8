"""Process-level fan-out: :func:`run_tasks`.

Independent simulations — a fresh machine, its own executive, its own
seed-derived programs — are embarrassingly parallel, and the
cycle-level model is pure Python, so threads would serialize on the
GIL.  :func:`run_tasks` maps a top-level worker over tasks on a
:class:`ProcessPoolExecutor` and returns the results in task order.
The cohort runner (:class:`repro.batch.BatchRunner`) fans its cohorts
out through it — which is how every ``jobs > 1`` composite and sweep
runs — as do the microbenchmark suite, the fuzzers, the refutation
campaign and the job server's worker rounds.

Determinism: a worker runs exactly the code the in-process path runs,
on a fresh interpreter state, so results are bit-identical at any
``jobs``.  ``tests/integration/test_determinism.py`` enforces this for
the composite.

Observability: every pooled task runs under a scoped metrics registry
(:func:`repro.obs.metrics.scoped_registry`) and comes back wrapped with
its metrics *delta*, duration and worker pid.  The parent merges the
deltas in task order — the merge rules are associative and commutative,
so the merged totals match a serial run regardless of worker
scheduling — and, when an observation is active, emits one
``task_finished`` event per task (the Chrome-trace exporter turns these
into per-worker lanes).

On a single-core host the pool degenerates to sequential execution plus
process overhead; callers default to the serial path unless ``jobs > 1``
is requested explicitly.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro import obs
from repro.obs import metrics
from repro.workloads.registry import paper_workload_names

#: Sentinel for a task slot that has not produced a result yet.
_UNSET = object()


def default_jobs() -> int:
    """A sensible worker count: one per workload, capped by the host."""
    return max(1, min(len(paper_workload_names()), os.cpu_count() or 1))


class _Instrumented:
    """Wraps a pool worker so each task reports its observability.

    The wrapped call runs the worker under a fresh scoped registry and
    returns an envelope: the real result plus the registry snapshot
    (the task's metrics delta), wall seconds, and the worker's pid.
    Pickles as long as ``worker`` does (top-level function).
    """

    __slots__ = ("worker",)

    def __init__(self, worker) -> None:
        self.worker = worker

    def __call__(self, task) -> dict:
        started = time.monotonic()
        with metrics.scoped_registry() as registry:
            result = self.worker(task)
        return {"result": result, "metrics": registry.snapshot(),
                "seconds": time.monotonic() - started,
                "worker": os.getpid()}


def run_tasks(worker, tasks, jobs: int = None, retries: int = 1) -> list:
    """Map ``worker`` over ``tasks``, optionally across processes.

    The generic fan-out shared by the cohort runner, the
    microbenchmark runner, the fuzzers and the job server:
    order-preserving, degenerating to a plain serial loop for
    ``jobs <= 1`` (so single-job runs carry no pool overhead and the
    jobs=1 / jobs=N results are trivially comparable).  ``worker`` and
    each task must pickle (top-level function, plain data).

    Fault tolerance: results completed before a worker crash are kept.
    Tasks that fail in a pool worker — whether by raising or by killing
    the worker process outright (which breaks the whole pool) — are
    retried on a fresh pool up to ``retries`` times, then executed
    in-process as the last resort.  Only a task that also fails
    in-process propagates its exception to the caller.
    """
    tasks = list(tasks)
    if jobs is None:
        jobs = default_jobs()
    if jobs <= 1 or len(tasks) <= 1:
        return [worker(task) for task in tasks]
    wrapped = _Instrumented(worker)
    label = getattr(worker, "__name__", worker.__class__.__name__)
    obs.emit("pool_opened", jobs=min(jobs, len(tasks)),
             tasks=len(tasks), label=label)
    results = [_UNSET] * len(tasks)
    pending = list(range(len(tasks)))
    for _attempt in range(1 + max(0, retries)):
        if not pending:
            break
        try:
            with ProcessPoolExecutor(
                    max_workers=min(jobs, len(tasks))) as pool:
                futures = [(pool.submit(wrapped, tasks[i]), i)
                           for i in pending]
                failed = []
                for future, i in futures:
                    try:
                        results[i] = future.result()
                    except Exception:
                        # Worker raised, or the pool died and took this
                        # future with it; either way the task gets
                        # another round.
                        failed.append(i)
                if failed:
                    metrics.counter("parallel.retries").inc(len(failed))
                pending = failed
        except (BrokenProcessPool, OSError):
            # The pool itself broke down (a worker died, or workers
            # could not be spawned at all); keep whatever completed.
            metrics.counter("parallel.pool_failures").inc()
            pending = [i for i in pending if results[i] is _UNSET]
    # Last resort: run the stragglers in-process, serially.  A task
    # that still fails here raises to the caller.  The wrapper still
    # applies: its scoped registry keeps the fallback from writing the
    # parent registry directly *and* returning a delta (double count).
    for i in pending:
        results[i] = wrapped(tasks[i])
    # Unwrap in task order: deterministic metric merge and event order.
    metrics.counter("parallel.tasks").inc(len(tasks))
    registry = metrics.registry()
    out = []
    for index, envelope in enumerate(results):
        registry.merge(envelope["metrics"])
        obs.emit("task_finished", index=index, label=label,
                 worker=envelope["worker"],
                 seconds=round(envelope["seconds"], 6))
        out.append(envelope["result"])
    return out
