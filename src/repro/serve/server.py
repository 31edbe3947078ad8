"""The asyncio job server: queueing, coalescing, caching, drain.

One event loop owns all bookkeeping — submissions, the bounded queue,
the job table — so there are no locks; simulation happens off-loop in
dispatcher *rounds* (``asyncio.to_thread`` →
:func:`repro.workloads.parallel.run_tasks` → :func:`~repro.serve.
workers.run_group`), which is where worker processes, bounded retry
and pool-death fallback live.

Request lifecycle::

    POST /jobs ── draining? ──────────────── 503
         │        rate bucket empty? ─────── 429 + Retry-After
         │        canonicalize (ApiError) ── 400
         │        key in-flight? ─────────── 202, coalesced
         │        key in store? ──────────── 200, cache hit
         │        queue full? ────────────── 429 + Retry-After
         └──────► queued ── dispatcher round ── done/failed
                              └─ result persisted under its key

``SIGTERM`` (or :meth:`JobServer.stop`) drains: new submissions get
503 while queued and running jobs finish and persist, then the server
closes — the CI smoke test sends a real signal and asserts nothing was
lost.  Everything observable rides :mod:`repro.obs`: counters/gauges
for queue depth, hit rate, in-flight and worker restarts feed
``GET /metrics``, and lifecycle events land in the usual JSONL stream
when the CLI wraps the server in ``--obs``.
"""

from __future__ import annotations

import asyncio
import time
import warnings
from dataclasses import dataclass, field

from repro import api, obs
from repro.explore.store import ResultStore, code_version
from repro.obs import metrics
from repro.serve import canonical as _canonical
from repro.serve import protocol
from repro.serve.client import DEFAULT_HOST, DEFAULT_PORT
from repro.serve.flow import RateLimiter, RetryEstimator
from repro.serve.jobs import (DONE, FAILED, QUEUED, RUNNING, Job,
                              JobTable)
from repro.serve.workers import run_group
from repro.workloads.parallel import run_tasks


def _flag(default, help: str, **cli):
    """A :class:`ServeConfig` field that is also a ``repro serve`` flag."""
    return field(default=default, metadata={"help": help, **cli})


@dataclass
class ServeConfig:
    """Everything ``repro serve`` can tune.

    Each :func:`_flag` field is the ``repro serve`` option of the same
    name (``--queue-size`` for ``queue_size``), default and help.
    """

    host: str = _flag(DEFAULT_HOST, "bind address (default %(default)s)")
    port: int = _flag(DEFAULT_PORT,
                      "bind port (default %(default)s; 0 = ephemeral, "
                      "the actual port is printed at startup)")
    queue_size: int = _flag(64, "bounded job queue depth; a full queue "
                                "answers 429 + Retry-After")
    workers: int = 1              #: worker processes per round (1 = inline)
    rate: float = _flag(None, "per-client submission rate limit "
                              "(default: unlimited)", metavar="PER_SEC")
    burst: int = _flag(8, "per-client token-bucket capacity")
    store: str = ".explore/store"  #: shared result cache (None = off)
    engine: str = None            #: default engine for engine-less requests
    machine: str = None           #: default machine for machine-less requests
    job_timeout: float = _flag(None, "per-round execution timeout; "
                                     "timed-out jobs retry once, then "
                                     "fail", metavar="SECS")
    job_retries: int = 1          #: re-runs after a round timeout
    round_limit: int = 16         #: max jobs drained into one round
    history: int = 512            #: finished jobs kept pollable by id
    heartbeat_interval: float = 10.0  #: obs heartbeat event cadence


class JobServer:
    """The simulation service; one instance per event loop."""

    def __init__(self, config: ServeConfig = None) -> None:
        self.config = config or ServeConfig()
        self.store = ResultStore(self.config.store) \
            if self.config.store is not None else None
        self.table = JobTable(history=self.config.history)
        self.limiter = RateLimiter(self.config.rate, self.config.burst)
        self.estimator = RetryEstimator(workers=self.config.workers)
        self.draining = False
        self.port = None
        self._queue = None            #: asyncio.Queue, made in start()
        self._gate = None             #: dispatch gate (tests pause it)
        self._stopped = None
        self._server = None
        self._tasks = []
        self._code = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Bind, start the dispatcher, return once accepting.

        An unusable store raises :class:`~repro.api.ApiError` before
        anything binds: the server refuses to start.
        """
        self.store = api._store(self.store)
        self._queue = asyncio.Queue(maxsize=self.config.queue_size)
        self._gate = asyncio.Event()
        self._gate.set()
        self._work = asyncio.Event()
        self._stopped = asyncio.Event()
        self._code = code_version()
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._tasks = [asyncio.create_task(self._dispatch(),
                                           name="serve-dispatch"),
                       asyncio.create_task(self._heartbeat(),
                                           name="serve-heartbeat")]
        obs.emit("serve_started", host=self.config.host, port=self.port,
                 queue_size=self.config.queue_size,
                 workers=self.config.workers)

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` (or a drain signal) completes."""
        await self._stopped.wait()

    def request_drain(self) -> None:
        """Signal-handler entry point: drain then stop, asynchronously."""
        asyncio.get_running_loop().create_task(self.stop(drain=True))

    async def stop(self, drain: bool = True) -> None:
        """Stop the server; with ``drain``, finish queued work first."""
        if self.draining:
            await self._stopped.wait()
            return
        self.draining = True
        obs.emit("serve_draining", queued=self._queue.qsize(),
                 inflight=len(self.table.inflight))
        if drain:
            self._gate.set()          # a paused dispatcher still drains
            while self.table.inflight:
                await asyncio.sleep(0.01)
        for task in self._tasks:
            task.cancel()
        self._server.close()
        await self._server.wait_closed()
        obs.emit("serve_stopped", jobs=self.table.submitted)
        self._stopped.set()

    def pause_dispatch(self) -> None:
        """Hold the dispatcher (tests fill the queue deterministically)."""
        self._gate.clear()

    def resume_dispatch(self) -> None:
        self._gate.set()

    # -- dispatcher ----------------------------------------------------

    async def _dispatch(self) -> None:
        while True:
            # Gate first, pop second — while paused (tests filling the
            # queue deterministically) no job ever leaves the queue.
            await self._gate.wait()
            try:
                job = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                self._work.clear()
                await self._work.wait()
                continue
            round_jobs = [job]
            while len(round_jobs) < self.config.round_limit:
                try:
                    round_jobs.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            await self._run_round(round_jobs)

    def _plan_groups(self, round_jobs) -> list:
        """Group co-queued jobs that can fuse; singletons otherwise."""
        groups = []
        fused = {}
        for job in round_jobs:
            label = job.request.fusion_group()
            if label is None:
                groups.append([job])
            elif label in fused:
                fused[label].append(job)
            else:
                group = [job]
                fused[label] = group
                groups.append(group)
        return groups

    def _exec_kwargs(self, job) -> dict:
        kwargs = dict(job.request.exec_kwargs())
        if job.request.command == "explore":
            # Sweeps share the service's store (their per-point records
            # live beside the served documents) — never the default
            # relative path of whatever directory the server runs in.
            kwargs["store"] = self.config.store
        return kwargs

    async def _run_round(self, round_jobs) -> None:
        groups = self._plan_groups(round_jobs)
        tasks = []
        for group in groups:
            for job in group:
                job.status = RUNNING
                job.started = time.time()
                job.attempts += 1
            tasks.append((group[0].request.command,
                          [self._exec_kwargs(job) for job in group]))
        self._refresh_gauges()
        obs.emit("serve_round_started", jobs=len(round_jobs),
                 groups=len(groups),
                 fused=len(round_jobs) - len(groups))
        runner = asyncio.create_task(asyncio.to_thread(
            run_tasks, run_group, tasks, jobs=self.config.workers))
        try:
            if self.config.job_timeout is not None:
                outcomes = await asyncio.wait_for(
                    asyncio.shield(runner),
                    timeout=self.config.job_timeout)
            else:
                outcomes = await runner
        except asyncio.TimeoutError:
            metrics.counter("serve.worker.timeouts").inc()
            # The round's thread cannot be killed; let its results land
            # late (first finish wins — results are deterministic, so
            # either attempt's document is THE document).
            runner.add_done_callback(
                lambda task: self._resolve_late(groups, task))
            await self._requeue_or_fail(groups)
            return
        except Exception as exc:   # run_tasks exhausted its fallbacks
            for group in groups:
                for job in group:
                    self._finish(job, {"ok": False,
                                       "error": f"worker round failed: "
                                                f"{exc!r}"})
            return
        self._resolve(groups, outcomes)

    def _resolve(self, groups, outcomes) -> None:
        for group, envelopes in zip(groups, outcomes):
            for job, envelope in zip(group, envelopes):
                self._finish(job, envelope)

    def _resolve_late(self, groups, task) -> None:
        if task.cancelled() or task.exception() is not None:
            return
        self._resolve(groups, task.result())

    async def _requeue_or_fail(self, groups) -> None:
        for group in groups:
            for job in group:
                if job.done:
                    continue
                if job.attempts <= self.config.job_retries:
                    job.status = QUEUED
                    metrics.counter("serve.jobs.requeued").inc()
                    try:
                        self._queue.put_nowait(job)
                        self._work.set()
                    except asyncio.QueueFull:
                        self._finish(job, {
                            "ok": False,
                            "error": "timed out and queue full on "
                                     "retry"})
                else:
                    self._finish(job, {
                        "ok": False,
                        "error": f"timed out after {job.attempts} "
                                 f"attempt(s) of "
                                 f"{self.config.job_timeout}s"})

    def _finish(self, job, envelope) -> None:
        if job.done:            # a late (timed-out) round already lost
            return
        job.finished = time.time()
        job.seconds = envelope.get("seconds")
        if envelope.get("ok"):
            job.status = DONE
            job.result = envelope["result"]
            if self.store is not None:
                self._persist(job)
        else:
            job.status = FAILED
            job.error = envelope.get("error", "unknown failure")
        if job.seconds:
            self.estimator.observe(job.seconds)
        self.table.finish(job)
        self._refresh_gauges()
        obs.emit("serve_job_finished", id=job.id,
                 command=job.request.command, status=job.status,
                 coalesced=job.coalesced,
                 seconds=job.seconds)

    def _persist(self, job) -> None:
        """Cache a finished job's document.  A failed write (disk full)
        loses only the cache entry: the job stays done and the
        dispatcher keeps serving."""
        try:
            self.store.put(job.key, {
                "schema": f"serve-{_canonical.SERVE_SCHEMA}",
                "code": self._code,
                "command": job.request.command,
                "params": job.canonical,
                "result": job.result,
                "seconds": job.seconds,
            })
        except OSError as exc:
            metrics.counter("serve.store.write_errors").inc()
            warnings.warn(f"could not store job {job.id}: {exc}")

    # -- submission ----------------------------------------------------

    def submit(self, doc, client: str = None):
        """Accept one submission; returns (status, body, headers).

        Pure bookkeeping on the loop thread — the actual simulation
        happens in dispatcher rounds.  Exposed for in-process callers
        (tests, the perf harness); the HTTP POST handler is a thin
        wrapper.
        """
        if self.draining:
            return 503, {"error": "server is draining"}, {}
        wait = self.limiter.take(client or "anonymous")
        if wait > 0:
            metrics.counter("serve.rejected.rate_limited").inc()
            retry = max(1, int(wait + 0.999))
            return (429, {"error": "rate limited",
                          "retry_after": retry},
                    {"Retry-After": str(retry)})
        try:
            request = _canonical.parse_request(
                doc, default_engine=self.config.engine,
                default_machine=self.config.machine)
        except api.ApiError as exc:
            metrics.counter("serve.rejected.invalid").inc()
            return 400, {"error": str(exc)}, {}
        key = _canonical.request_key(request, code=self._code)
        existing = self.table.coalesce(key)
        if existing is not None:
            existing.coalesced += 1
            metrics.counter("serve.coalesced").inc()
            return 202, existing.to_json(), {}
        if self.store is not None:
            record = self.store.get(key)
            if record is not None and "result" in record:
                metrics.counter("serve.cache.hits").inc()
                job = Job(self.table.new_id(), key, request,
                          client=client)
                job.status = DONE
                job.cached = True
                job.result = record["result"]
                job.finished = job.created
                self.table.add(job)
                return 200, job.to_json(), {}
        metrics.counter("serve.cache.misses").inc()
        job = Job(self.table.new_id(), key, request, client=client)
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            metrics.counter("serve.rejected.queue_full").inc()
            retry = self.estimator.retry_after(self._queue.qsize())
            return (429, {"error": "queue full",
                          "retry_after": retry},
                    {"Retry-After": str(retry)})
        self._work.set()
        self.table.add(job)
        self._refresh_gauges()
        obs.emit("serve_job_queued", id=job.id, command=request.command,
                 depth=self._queue.qsize())
        return 202, job.to_json(), {}

    # -- metrics -------------------------------------------------------

    def _refresh_gauges(self) -> None:
        metrics.gauge("serve.queue.depth").set(self._queue.qsize())
        metrics.gauge("serve.inflight").set(len(self.table.inflight))

    def metrics_doc(self) -> dict:
        """The ``/metrics`` document: service state + registry."""
        registry = metrics.registry()

        def count(name):
            return registry.counter(name).value

        hits = count("serve.cache.hits")
        misses = count("serve.cache.misses")
        return {
            "queue": {"depth": self._queue.qsize(),
                      "capacity": self.config.queue_size},
            "inflight": len(self.table.inflight),
            "draining": self.draining,
            "jobs": self.table.counts(),
            "cache": {
                "hits": hits, "misses": misses,
                "hit_rate": round(hits / (hits + misses), 4)
                if hits + misses else None,
                "coalesced": count("serve.coalesced"),
            },
            "rejected": {
                "queue_full": count("serve.rejected.queue_full"),
                "rate_limited": count("serve.rejected.rate_limited"),
                "invalid": count("serve.rejected.invalid"),
            },
            "workers": {
                "configured": self.config.workers,
                "executed": count("serve.jobs.executed"),
                "fused_lanes": count("serve.fused_lanes"),
                "pool_restarts": count("parallel.pool_failures"),
                "task_retries": count("parallel.retries"),
                "timeouts": count("serve.worker.timeouts"),
                "requeued": count("serve.jobs.requeued"),
            },
            "store": self.store.stats() if self.store is not None
            else None,
            "metrics": registry.snapshot(),
        }

    async def _heartbeat(self) -> None:
        interval = self.config.heartbeat_interval
        if not interval:
            return
        while True:
            await asyncio.sleep(interval)
            self._refresh_gauges()
            obs.emit("serve_heartbeat", depth=self._queue.qsize(),
                     inflight=len(self.table.inflight),
                     draining=self.draining)

    # -- HTTP ----------------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        try:
            try:
                request = await protocol.read_request(reader)
            except protocol.ProtocolError as exc:
                writer.write(protocol.response_bytes(
                    400, {"error": str(exc)}))
                return
            except (ConnectionError, asyncio.IncompleteReadError):
                return
            status, body, headers = self._route(request, writer)
            writer.write(protocol.response_bytes(status, body, headers))
        except Exception as exc:    # never kill the acceptor
            try:
                writer.write(protocol.response_bytes(
                    500, {"error": f"internal error: "
                                   f"{type(exc).__name__}"}))
            except Exception:
                pass
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _route(self, request, writer):
        method, target = request.method, request.target.rstrip("/")
        if target == "/jobs" and method == "POST":
            try:
                doc = request.json()
            except protocol.ProtocolError as exc:
                return 400, {"error": str(exc)}, {}
            client = request.headers.get("x-repro-client")
            if client is None:
                peer = writer.get_extra_info("peername")
                client = peer[0] if peer else "anonymous"
            return self.submit(doc, client=client)
        if target == "/jobs" and method == "GET":
            return 200, {"jobs": [
                {"id": job.id, "command": job.request.command,
                 "status": job.status}
                for job in self.table.by_id.values()]}, {}
        if target.startswith("/jobs/"):
            if method != "GET":
                return 405, {"error": "use GET"}, {}
            job = self.table.get(target[len("/jobs/"):])
            if job is None:
                return 404, {"error": "no such job (it may have aged "
                                      "out of history)"}, {}
            return 200, job.to_json(), {}
        if target == "/metrics" and method == "GET":
            return 200, self.metrics_doc(), {}
        if target == "/healthz" and method == "GET":
            return 200, {"ok": True, "draining": self.draining,
                         "port": self.port}, {}
        return 404, {"error": f"no route for {method} {target}"}, {}
