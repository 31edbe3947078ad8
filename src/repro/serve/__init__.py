"""repro.serve: simulation-as-a-service over the :mod:`repro.api` facade.

Every other subsystem runs one command and exits; this one turns the
facade into a shared, deduplicating backend.  Clients POST
characterize/ubench/explore/validate jobs to an asyncio HTTP server
(stdlib only — :func:`asyncio.start_server` plus a minimal HTTP/1.1 +
JSON layer, :mod:`repro.serve.protocol`); the server canonicalizes each
request to a content-address key in the style of the explore store
(:mod:`repro.serve.canonical`), so

* **in-flight duplicates coalesce** — identical requests queued or
  running attach to the same job and are answered by one simulation;
* **completed duplicates are cache hits** — results persist in the
  content-addressed :class:`~repro.explore.store.ResultStore`, so any
  later identical request from any client is served without simulating
  (the determinism contracts make the cached document bit-identical to
  a fresh run).

Traffic shaping (:mod:`repro.serve.flow`): a bounded job queue answers
429 + ``Retry-After`` when full (backpressure), and a per-client token
bucket rate-limits submissions.  Execution (:mod:`repro.serve.workers`)
rides :func:`repro.workloads.parallel.run_tasks` — the same bounded
retry and pool-death fallback the sweep runner uses — and co-queued
``engine="auto"`` characterize jobs that differ only in budget fuse
through the batch engine (:mod:`repro.batch`).  ``SIGTERM``
drains: in-flight jobs finish and persist, new submissions get 503.

Surfaces: ``POST /jobs``, ``GET /jobs/<id>``, ``GET /jobs``,
``GET /metrics`` (queue depth, hit rate, in-flight, worker restarts,
store stats — backed by :mod:`repro.obs` counters), ``GET /healthz``.
``python -m repro serve`` runs it; ``python -m repro submit`` and
:class:`repro.serve.client.ServeClient` talk to it.
"""

from __future__ import annotations

from repro.serve.canonical import (COMMANDS, ServeRequest, parse_request,
                                   request_key)
from repro.serve.client import ServeClient, ServeError
from repro.serve.flow import TokenBucket
from repro.serve.jobs import Job, JobTable
from repro.serve.server import JobServer, ServeConfig

__all__ = ["COMMANDS", "Job", "JobServer", "JobTable", "ServeClient",
           "ServeConfig", "ServeError", "ServeRequest", "TokenBucket",
           "parse_request", "request_key"]
