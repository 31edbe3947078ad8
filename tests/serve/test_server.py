"""End-to-end job server behaviour: dedup, caching, backpressure, drain.

Each test uses its own (instructions, seed) point so the process-wide
engine memo never masks what the *server* deduplicated; the assertions
pin the serve-layer counters (``workers.EXECUTIONS``,
``serve.jobs.executed``) rather than simulation totals.
"""

import json
import os
import subprocess
import sys
import threading

import pytest

from repro import api
from repro.obs import metrics
from repro.serve import ServeConfig
from repro.serve import workers
from repro.serve.client import ServeError
from repro.serve.testing import ServerThread

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: A tiny but real characterize job: one table, sub-second budget.
POINT = dict(instructions=500, table="4")


def payload(seed, **extra):
    doc = dict(POINT, seed=seed)
    doc.update(extra)
    return doc


def executed():
    return metrics.counter("serve.jobs.executed").value


class TestDedup:
    def test_concurrent_duplicates_run_one_simulation(self, tmp_path):
        """The acceptance e2e: N concurrent identical submissions ->
        exactly one execution, every client gets the bit-identical
        document a direct facade call produces."""
        config = ServeConfig(store=str(tmp_path / "store"), workers=1,
                             queue_size=16)
        before_exec = workers.EXECUTIONS
        before_counter = executed()
        with ServerThread(config) as handle:
            client = handle.client()
            # Dispatch is held while four clients submit concurrently,
            # so every duplicate demonstrably arrives before anything
            # runs — then one round answers all of them.
            handle.pause_dispatch()
            accepted = []
            lock = threading.Lock()

            def submit():
                job = client.submit("characterize", payload(4601),
                                    wait=False)
                with lock:
                    accepted.append(job)

            threads = [threading.Thread(target=submit)
                       for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len({job["id"] for job in accepted}) == 1
            handle.resume_dispatch()
            results = [client.wait(job["id"]) for job in accepted]

            assert workers.EXECUTIONS - before_exec == 1
            assert executed() - before_counter == 1
            docs = {json.dumps(job["result"], sort_keys=True)
                    for job in results}
            assert len(docs) == 1
            direct = api.characterize(seed=4601, **POINT)
            assert json.dumps(direct.to_json(), sort_keys=True) \
                == docs.pop()
            assert results[0]["coalesced"] == 3

    def test_completed_duplicate_is_a_cache_hit(self, tmp_path):
        config = ServeConfig(store=str(tmp_path / "store"), workers=1)
        with ServerThread(config) as handle:
            client = handle.client()
            first = client.submit("characterize", payload(4602))
            assert first["cached"] is False
            before = executed()
            second = client.submit("characterize", payload(4602))
            assert second["cached"] is True
            assert executed() == before     # no new simulation
            assert second["result"] == first["result"]
            hit_rate = client.metrics()["cache"]["hit_rate"]
            assert hit_rate is not None and hit_rate > 0

    def test_equivalent_spellings_share_one_cache_entry(self, tmp_path):
        config = ServeConfig(store=str(tmp_path / "store"), workers=1)
        with ServerThread(config) as handle:
            client = handle.client()
            first = client.submit("characterize",
                                  payload(4603, engine=None))
            second = client.submit("characterize",
                                   payload(4603, engine="scalar"))
            assert second["cached"] is True
            assert second["key"] == first["key"]

    def test_no_store_still_coalesces_but_never_caches(self, tmp_path):
        config = ServeConfig(store=None, workers=1)
        with ServerThread(config) as handle:
            client = handle.client()
            first = client.submit("characterize", payload(4604))
            second = client.submit("characterize", payload(4604))
            assert first["cached"] is False
            assert second["cached"] is False


class TestBackpressure:
    def test_full_queue_rejects_with_retry_after(self, tmp_path):
        config = ServeConfig(store=None, workers=1, queue_size=2)
        with ServerThread(config) as handle:
            client = handle.client()
            handle.pause_dispatch()
            accepted = [client.submit("characterize",
                                      payload(4605 + n), wait=False)
                        for n in range(2)]
            with pytest.raises(ServeError) as rejected:
                client.submit("characterize", payload(4699), wait=False)
            assert rejected.value.status == 429
            assert rejected.value.retry_after >= 1
            handle.resume_dispatch()
            # Backpressure lost nothing that was accepted.
            for job in accepted:
                assert client.wait(job["id"])["status"] == "done"
            rejections = client.metrics()["rejected"]
            assert rejections["queue_full"] == 1

    def test_rate_limited_client_gets_429(self, tmp_path):
        config = ServeConfig(store=None, workers=1, rate=0.0, burst=1)
        with ServerThread(config) as handle:
            greedy = handle.client(name="greedy")
            greedy.submit("characterize", payload(4610), wait=False)
            with pytest.raises(ServeError) as rejected:
                greedy.submit("characterize", payload(4610), wait=False)
            assert rejected.value.status == 429
            assert rejected.value.retry_after is not None
            # Another identity is unaffected.
            other = handle.client(name="patient")
            job = other.submit("characterize", payload(4610))
            assert job["status"] == "done"


class TestDrain:
    def test_drain_finishes_queued_work_and_persists_it(self, tmp_path):
        config = ServeConfig(store=str(tmp_path / "store"), workers=1,
                             queue_size=8)
        handle = ServerThread(config).start()
        client = handle.client()
        handle.pause_dispatch()
        queued = [client.submit("characterize", payload(4620 + n),
                                wait=False) for n in range(2)]
        # stop(drain=True) reopens the gate and waits for in-flight
        # work; nothing accepted may be lost.
        handle.stop(drain=True)
        table = handle.server.table
        for job in queued:
            assert table.get(job["id"]).status == "done"
        assert handle.server.store.stats()["entries"] == 2

    def test_draining_server_rejects_new_submissions(self, tmp_path):
        config = ServeConfig(store=None, workers=1)
        with ServerThread(config) as handle:
            handle.do(lambda: setattr(handle.server, "draining", True))
            status, body, _ = handle.submit(
                {"command": "characterize",
                 "params": payload(4630)})
            assert status == 503
            assert "draining" in body["error"]
            handle.do(lambda: setattr(handle.server, "draining", False))


class TestHttpSurface:
    def test_jobs_listing_and_polling(self, tmp_path):
        config = ServeConfig(store=None, workers=1)
        with ServerThread(config) as handle:
            client = handle.client()
            job = client.submit("characterize", payload(4640))
            listed = client.jobs()
            assert [entry["id"] for entry in listed] == [job["id"]]
            polled = client.job(job["id"])
            assert polled["status"] == "done"
            assert polled["result"] == job["result"]

    def test_unknown_job_and_route_are_404(self, tmp_path):
        with ServerThread(ServeConfig(store=None)) as handle:
            client = handle.client()
            with pytest.raises(ServeError) as missing:
                client.job("j999999")
            assert missing.value.status == 404
            with pytest.raises(ServeError) as lost:
                client._checked("GET", "/nope")
            assert lost.value.status == 404
            with pytest.raises(ServeError) as wrong_method:
                client._checked("POST", "/jobs/j000001", {})
            assert wrong_method.value.status == 405

    def test_invalid_submissions_are_400(self, tmp_path):
        with ServerThread(ServeConfig(store=None)) as handle:
            client = handle.client()
            for command, params, pattern in (
                    ("characterize", {"bogus": 1}, "unknown field"),
                    ("characterize", {"table": "99"}, "unknown table"),
                    ("mine-bitcoin", {}, "unknown command")):
                with pytest.raises(ServeError) as rejected:
                    client.submit(command, params, wait=False)
                assert rejected.value.status == 400
                assert pattern in str(rejected.value)

    def test_metrics_document_shape(self, tmp_path):
        config = ServeConfig(store=str(tmp_path / "store"), workers=1)
        with ServerThread(config) as handle:
            client = handle.client()
            client.submit("characterize", payload(4650))
            doc = client.metrics()
            assert doc["queue"]["capacity"] == config.queue_size
            assert doc["jobs"]["done"] == 1
            assert doc["store"]["entries"] == 1
            assert doc["workers"]["configured"] == 1
            assert "serve.jobs.executed" in doc["metrics"]
            health = client.health()
            assert health["ok"] is True and not health["draining"]


class TestStoreFailures:
    def test_unusable_store_refuses_to_start(self, tmp_path):
        (tmp_path / "file").write_text("")
        root = tmp_path / "file" / "store"
        with pytest.raises(api.ApiError, match="unusable store"):
            ServerThread(ServeConfig(store=str(root), workers=1)).start()

    def test_cli_serve_exits_2_on_an_unusable_store(self, tmp_path):
        (tmp_path / "file").write_text("")
        root = tmp_path / "file" / "store"
        done = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", str(root)],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=SRC))
        assert done.returncode == 2
        assert done.stderr.splitlines() == [
            f"unusable store {str(root)!r}: Not a directory"]
        assert "listening" not in done.stdout

    def test_failed_store_write_keeps_the_dispatcher_serving(
            self, tmp_path):
        """Disk full at the cache write: the answer still reaches the
        client, and the next job is still served."""
        config = ServeConfig(store=str(tmp_path / "store"), workers=1)
        before = metrics.counter("serve.store.write_errors").value
        with ServerThread(config) as handle:
            def disk_full(key, record):
                raise OSError(28, "No space left on device")

            handle.server.store.put = disk_full
            client = handle.client()
            with pytest.warns(UserWarning, match="No space left"):
                first = client.submit("characterize", payload(4670),
                                      timeout=60)
                second = client.submit("characterize", payload(4671),
                                       timeout=60)
            assert first["status"] == second["status"] == "done"
            assert client.metrics()["inflight"] == 0
        assert metrics.counter("serve.store.write_errors").value \
            - before == 2


class TestFailureEnvelopes:
    def test_execute_returns_error_envelope(self):
        envelope = workers.execute("characterize", {"no_such": True})
        assert envelope["ok"] is False
        assert "TypeError" in envelope["error"]
        assert envelope["seconds"] >= 0

    def test_failed_job_surfaces_to_the_client(self, tmp_path):
        config = ServeConfig(store=None, workers=1)
        with ServerThread(config) as handle:
            # Bypass submission validation to reach the execution-error
            # path: corrupt the queued job's kwargs.
            client = handle.client()
            handle.pause_dispatch()
            job = client.submit("characterize", payload(4660),
                                wait=False)
            def sabotage():
                queued = handle.server.table.get(job["id"])
                queued.request = _Broken(queued.request)
            handle.do(sabotage)
            handle.resume_dispatch()
            polled = client.wait(job["id"])
            assert polled["status"] == "failed"
            assert "ApiError" in polled["error"]


class _Broken:
    """A request whose execution kwargs are garbage (tests only)."""

    def __init__(self, real):
        self.command = real.command
        self._real = real

    def fusion_group(self):
        return None

    def exec_kwargs(self):
        return {"table": "definitely-not-a-table"}

    def canonical(self):
        return self._real.canonical()
