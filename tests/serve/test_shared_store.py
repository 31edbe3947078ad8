"""The job server and a design-space sweep on one store at once.

``repro serve --store DIR`` and ``repro explore --store DIR`` may name
one directory.  Here an in-process server answers jobs while a smoke
sweep runs cold and then warm from a second thread, and one of the
sweep's records is corrupted between the two passes.  The shared store
must still answer only what the code computes: every served document
equals its direct facade call, every sweep record equals one from a
sweep that never touched a store, the corrupt record is quarantined
once, and no temp file is left behind.
"""

import json
import sys
import threading

import pytest

from repro import api
from repro.explore.space import SMOKE
from repro.explore.store import ResultStore, result_key
from repro.obs import metrics
from repro.serve import ServeConfig, workers
from repro.serve.testing import ServerThread
from repro.workloads import engine

#: Served jobs, each submitted twice (a miss, then a store hit), at
#: points no other test memoises.
JOBS = (("characterize", {"instructions": 500, "seed": 4801,
                          "table": "4"}),
        ("run-workload", {"workload": "timesharing-research",
                          "instructions": 500, "seed": 4802}),
        ("characterize", {"instructions": 600, "seed": 4803,
                          "table": "8"}))

#: Seconds any thread may take before the test gives up on it.
JOIN_S = 300

#: A short thread switch interval, so the two writers interleave finely.
SWITCH_S = 1e-4


def records(result) -> list:
    return [json.dumps(entry["records"], sort_keys=True)
            for entry in result.sweep.points]


def test_serve_and_explore_share_one_store(tmp_path):
    root = tmp_path / "store"
    quarantined = metrics.counter("explore.store.quarantined").value
    baseline = SMOKE.points()[0]
    corrupt = ResultStore(root)._path(result_key(
        baseline.params(), SMOKE.workloads[0], baseline.instructions,
        baseline.seed, machine=baseline.machine))
    served, sweeps, failures = [], [], []

    def serve(handle):
        client = handle.client(timeout=JOIN_S)
        for command, params in JOBS * 2:
            served.append((command, params,
                           client.submit(command, params,
                                         timeout=JOIN_S)))

    def explore():
        sweeps.append(api.explore(smoke=True, store=str(root)))
        corrupt.write_text("{truncated")
        with pytest.warns(UserWarning, match="unreadable store entry"):
            sweeps.append(api.explore(smoke=True, store=str(root)))

    def guarded(target, *args):
        def run():
            try:
                target(*args)
            except BaseException as exc:    # asserted after the join
                failures.append(exc)
                raise
        return threading.Thread(target=run, daemon=True)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_S)
    try:
        with ServerThread(ServeConfig(store=str(root),
                                      workers=1)) as handle:
            threads = [guarded(serve, handle), guarded(explore)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(JOIN_S)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []

    assert [job["cached"] for _, _, job in served] == \
        [False] * len(JOBS) + [True] * len(JOBS)
    engine.clear_cache()
    for command, params, job in served:
        direct = workers.EXECUTORS[command](**params).to_json()
        assert json.dumps(job["result"], sort_keys=True) == \
            json.dumps(direct, sort_keys=True)

    cold, warm = sweeps
    assert warm.stats["simulated"] == 1
    assert warm.stats["cached"] == cold.stats["simulated"] - 1
    fresh = records(api.explore(smoke=True, store=None))
    assert records(cold) == fresh
    assert records(warm) == fresh

    assert metrics.counter("explore.store.quarantined").value \
        - quarantined == 1
    assert corrupt.with_name(corrupt.name + ".corrupt").exists()
    assert list(root.rglob("*.tmp")) == []
