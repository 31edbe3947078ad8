"""The serve-mix workload: a real job server under a seeded request mix.

One sample starts ``repro serve --port 0 --store <fresh dir>`` through
``serve_boot.py`` (with the pacer untraced, the span wrappers traced),
waits for its "listening on" line, and drives it with :data:`CLIENTS`
closed-loop
client threads: each sends its next request only after the previous
answer arrived.  The mix (:func:`request_stream`) is a function of the
seed alone: 75% of requests come from a hot set of five, 25% are fresh
``run-workload`` requests with unique seeds.  Each sample starts from
an empty store, so a seed always asks for the same simulations.

Under the mix, a store hit that arrives while a simulation holds the
interpreter lock waits for it, and one that arrives between
simulations does not, so hit latency there is bimodal.  After the mix,
one client replays the hot set against the idle server, round after
round for ``HIT_SECONDS`` (at least :data:`IDLE_ROUNDS` rounds): those
hits time the request path itself.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time

from sample import HIT_SECONDS, REGISTRY_COUNTERS

#: Mix requests per sample (one server per sample): 24 hot and one
#: fresh request per zoo workload.  The mix then takes about 7 s on a
#: 2-core host, so a 30-second run starts three servers and its
#: ``setup_s`` is a median of three.
REQUESTS = 32
#: Closed-loop client threads (the benchmark host has two cores).
CLIENTS = 2
#: The fewest times the idle replay sends each hot request.
IDLE_ROUNDS = 8
#: Seconds between a client's polls of a queued job.
POLL_S = 0.002
HOT_SHARE = 0.75
INSTRUCTIONS = 2_000
HOT_WORKLOADS = ("timesharing-research", "timesharing-cpu-dev",
                 "rte-educational", "rte-scientific")
FRESH_WORKLOADS = ("compiler-build", "transaction-decimal",
                   "interrupt-storm", "tb-thrash", "cache-thrash",
                   "vector-scientific", "editor-interactive",
                   "queue-kernel")
#: Seconds a server gets to print its address, or to drain and exit.
STARTUP_TIMEOUT_S = 30
#: Seconds the clients get for one pass of requests.
TRAFFIC_TIMEOUT_S = 100

#: The fewest requests one sample sends: the mix, then the idle replay.
ATTEMPTED = REQUESTS + (len(HOT_WORKLOADS) + 1) * IDLE_ROUNDS

_LISTENING = "repro.serve listening on "


def hot_requests(seed: int) -> list:
    """The five hot requests: ``[(command, params), ...]``."""
    # The smoke characterize runs the paper workloads at this budget
    # with ``seed``; the hot run-workload requests use ``seed + 1`` so
    # the server's in-process engine memo never answers one for the
    # other, and every distinct request really simulates.
    hot = [("run-workload", {"workload": name,
                             "instructions": INSTRUCTIONS,
                             "seed": seed + 1})
           for name in HOT_WORKLOADS]
    hot.append(("characterize", {"smoke": True, "table": "8",
                                 "seed": seed}))
    return hot


def request_stream(seed: int, count: int = REQUESTS) -> list:
    """The seeded mix: ``[(command, params), ...]``.

    Exactly ``HOT_SHARE`` of the requests are hot, and the fresh ones
    take the zoo workloads in turn (from a seeded starting point), so
    every seed asks the server for the same amount of simulation.
    """
    rng = random.Random(seed)
    hot = hot_requests(seed)
    hot_count = round(count * HOT_SHARE)
    fresh_base = rng.randrange(1, 1 << 30)
    first = rng.randrange(len(FRESH_WORKLOADS))
    stream = [rng.choice(hot) for _ in range(hot_count)]
    stream += [("run-workload", {
        "workload": FRESH_WORKLOADS[(first + number) % len(FRESH_WORKLOADS)],
        "instructions": INSTRUCTIONS, "seed": fresh_base + number})
        for number in range(count - hot_count)]
    rng.shuffle(stream)
    return stream


def _wait_listening(proc) -> int:
    """The server's port, read from its first "listening on" line."""
    watchdog = threading.Timer(STARTUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            if line.startswith(_LISTENING):
                return int(line.strip().rsplit(":", 1)[1])
    finally:
        watchdog.cancel()
    raise RuntimeError(f"server exited before listening "
                       f"(code {proc.wait()})")


def _client(port: int, name: str):
    from repro.serve.client import ServeClient

    return ServeClient(port=port, name=name, timeout=TRAFFIC_TIMEOUT_S)


def _request(connection, command: str, params: dict) -> dict:
    """Submit one request and wait for its answer; its record."""
    from repro.serve.client import ServeError

    started = time.monotonic()
    try:
        doc = connection.submit(command, params, poll=POLL_S,
                                timeout=TRAFFIC_TIMEOUT_S)
        error = None
    except ServeError as exc:
        doc, error = None, str(exc)
    return {"span": [started, time.monotonic()], "doc": doc, "error": error}


def _drive(port: int, stream: list, clients: int) -> list:
    """Send ``stream`` from closed-loop clients; one record per request.

    A request still unanswered after :data:`TRAFFIC_TIMEOUT_S` leaves
    its record None.
    """
    records = [None] * len(stream)
    cursor = iter(range(len(stream)))
    lock = threading.Lock()

    def client(number: int) -> None:
        connection = _client(port, f"client-{number}")
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            records[index] = _request(connection, *stream[index])

    threads = [threading.Thread(target=client, args=(number,), daemon=True)
               for number in range(clients)]
    deadline = time.monotonic() + TRAFFIC_TIMEOUT_S
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    return records


def _replay(port: int, hot: list) -> list:
    """Replay ``hot`` from one client in whole rounds; one record each.

    The replay stops at its first failed request, since a server that
    fails one may not answer the next either.
    """
    connection = _client(port, "replay")
    records, rounds = [], 0
    deadline = time.monotonic() + HIT_SECONDS
    while rounds < IDLE_ROUNDS or time.monotonic() < deadline:
        for command, params in hot:
            records.append(_request(connection, command, params))
            if records[-1]["error"] is not None:
                return records
        rounds += 1
    return records


def _vm_hwm_mb(pid: int) -> float:
    """The process's peak resident set (``VmHWM``) in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc status")


def _stop(proc) -> None:
    """Drain the server with SIGTERM and wait for it to exit."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.communicate(timeout=STARTUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()


def run_sample(src: str, seed: int, traced: bool, workdir: str) -> dict:
    """One server, the seed's mix, then the idle replay; a sample document.

    The document has the fields ``sample.py`` prints (set-up is spawn to
    "listening on", work is the mix's traffic, and untraced the server's
    pacer gives the bursts), plus the request-level detail run.py turns
    into serve metrics.
    """
    from repro.serve.client import ServeClient

    here = os.path.dirname(os.path.abspath(__file__))
    store = os.path.join(workdir, "store")
    out = os.path.join(workdir, "instrument.json")
    command = [sys.executable, os.path.join(here, "serve_boot.py"),
               "traced" if traced else "paced", out,
               "serve", "--port", "0", "--store", store]
    stream = request_stream(seed)
    with open(os.path.join(workdir, "server.err"), "w") as errors:
        spawned = time.monotonic()
        proc = subprocess.Popen(command, cwd=workdir, text=True,
                                env=dict(os.environ, PYTHONPATH=src),
                                stdout=subprocess.PIPE, stderr=errors)
        try:
            port = _wait_listening(proc)
            setup_done = time.monotonic()
            mix = _drive(port, stream, CLIENTS)
            work = [setup_done, time.monotonic()]
            replay = _replay(port, hot_requests(seed))
            served = ServeClient(port=port).metrics()
            rss_mb = _vm_hwm_mb(proc.pid)
        finally:
            _stop(proc)
    doc = _summarize(stream, mix, replay, served)
    doc.update(spawned=spawned, setup_done=setup_done, work=work,
               rss_mb=rss_mb, mix_requests=len(stream))
    with open(out) as handle:
        recorded = json.load(handle)
    if traced:
        doc["spans"] = recorded
        doc["miss_ops"] = [index for index, span in enumerate(recorded)
                           if span["parent"] is None
                           and span["name"] == "api"]
    else:
        doc["bursts"] = recorded
    return doc


def _summarize(stream, mix, replay, served) -> dict:
    """Classify requests, check every answer, and collect the numbers."""
    problems = []
    answers = {}
    jobs = {}
    mix_hits, misses, hits, requests = [], [], [], []
    answered = sorted((record["span"], index, record, phase)
                      for phase, records in (("mix", mix), ("idle", replay))
                      for index, record in enumerate(records)
                      if record is not None)
    for span, index, record, phase in answered:
        doc = record["doc"]
        if doc is None:
            problems.append(f"{phase} request {index}: {record['error']}")
            continue
        answer = json.dumps(doc["result"], sort_keys=True)
        if answers.setdefault(doc["key"], answer) != answer:
            problems.append(f"{phase} request {index}: answer differs "
                            f"from the first answer for its key")
        requests.append({"ms": (span[1] - span[0]) * 1000, "id": doc["id"],
                         "idle": phase == "idle"})
        if phase == "idle":
            if not doc["cached"]:
                problems.append(f"idle request {index} was not a store hit")
            hits.append(span)
        elif doc["cached"]:
            mix_hits.append(span)
        else:
            misses.append(span)
            # The first request to see a job id submitted it; later
            # ones were coalesced onto it.
            jobs.setdefault(doc["id"], doc)
    sent = len(answered)
    unanswered = len(stream) + len(replay) - sent
    if unanswered:
        problems.append(f"{unanswered} requests never answered")

    cache = served["cache"]
    rejected = served["rejected"]
    accounted = (cache["hits"] + cache["misses"] + cache["coalesced"]
                 + rejected["rate_limited"] + rejected["invalid"])
    if accounted != sent:
        problems.append(f"/metrics accounts for {accounted} of {sent} "
                        f"submissions")
    distinct = len({json.dumps(item, sort_keys=True) for item in stream})
    executed = served["workers"]["executed"]
    if executed != distinct:
        problems.append(f"server executed {executed} jobs for {distinct} "
                        f"distinct requests")
    registry = served["metrics"]
    jobs = list(jobs.values())
    return {
        "instructions": sum(doc["result"]["instructions_measured"]
                            for doc in jobs),
        "cycles": sum(doc["result"]["cycles"] for doc in jobs),
        "miss": misses,
        "hit": hits,
        "mix_hit": mix_hits,
        "attempted": sent + unanswered,
        "failed": len(problems),
        "problems": problems,
        "queue_wait_ms": [(doc["started"] - doc["created"]) * 1000
                          for doc in jobs],
        "exec_s": [doc["seconds"] for doc in jobs],
        "expected_counts": {
            "instructions": sum(doc["result"]["instructions_measured"]
                                for doc in jobs),
            "cycles": sum(doc["result"]["cycles"] for doc in jobs)},
        "requests": requests,
        "serve": {"hit_rate": cache["hit_rate"],
                  "coalesced": cache["coalesced"],
                  "rejected": rejected["rate_limited"]
                  + rejected["invalid"] + rejected["queue_full"]},
        "registry": {name: registry.get(name, {}).get("value", 0)
                     for name in REGISTRY_COUNTERS},
    }
