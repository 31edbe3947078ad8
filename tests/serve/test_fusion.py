"""Engine-auto fusion: co-queued budget-only jobs share one batch run.

``repro serve --engine auto`` injects ``engine="auto"`` into
engine-less characterize submissions; jobs that then differ only in
instruction budget land in one fusion group, and the dispatcher runs
all their (workload x budget) simulations as lanes of a single
lockstep batch before assembling each job's document through the
ordinary facade path.  The lockstep engine's bit-identity contract is
what makes this invisible to clients.
"""

import json

from repro import api
from repro.obs import metrics
from repro.serve import ServeConfig
from repro.serve.canonical import COMMANDS
from repro.serve.server import JobServer
from repro.serve.testing import ServerThread
from repro.workloads.profiles import STANDARD_PROFILES

SEED = 4700
BUDGETS = (400, 600, 800)


def fused_lanes():
    return metrics.counter("serve.fused_lanes").value


class TestFusionPlanning:
    def test_budget_only_jobs_form_one_group(self):
        server = JobServer(ServeConfig(store=None))

        class FakeJob:
            def __init__(self, request):
                self.request = request

        def job(**params):
            return FakeJob(COMMANDS["characterize"].from_payload(params))

        jobs = [job(instructions=400, engine="auto"),
                job(instructions=600, engine="auto"),
                job(instructions=800, engine="auto"),
                job(instructions=400, engine="scalar"),
                job(instructions=400, seed=7, engine="auto")]
        groups = server._plan_groups(jobs)
        assert sorted(len(group) for group in groups) == [1, 1, 3]


class TestFusionExecution:
    def test_co_queued_budgets_fuse_and_stay_bit_identical(
            self, tmp_path):
        config = ServeConfig(store=str(tmp_path / "store"), workers=1,
                             queue_size=16, engine="auto")
        before = fused_lanes()
        with ServerThread(config) as handle:
            client = handle.client()
            handle.pause_dispatch()
            queued = [client.submit(
                "characterize",
                {"instructions": budget, "seed": SEED, "table": "4"},
                wait=False) for budget in BUDGETS]
            handle.resume_dispatch()
            results = [client.wait(job["id"]) for job in queued]

        assert all(job["status"] == "done" for job in results)
        # The server default turned every submission into an auto job...
        assert all(job["params"]["engine"] == "auto" for job in results)
        # ...and the whole group ran as one batch: every (workload x
        # budget) became a lane, none fell back to scalar reruns.
        assert fused_lanes() - before \
            == len(STANDARD_PROFILES) * len(BUDGETS)
        # Bit-identical to direct facade calls with the same arguments —
        # the memo is cleared first, so the comparison documents come
        # from genuinely fresh simulations, not the server's own runs.
        from repro.workloads import engine as engine_module

        engine_module.clear_cache()
        for budget, job in zip(BUDGETS, results):
            direct = api.characterize(instructions=budget, seed=SEED,
                                      table="4", engine="auto")
            assert json.dumps(direct.to_json(), sort_keys=True) \
                == json.dumps(job["result"], sort_keys=True)

    def test_scalar_submissions_never_fuse(self, tmp_path):
        config = ServeConfig(store=None, workers=1, queue_size=16)
        before = fused_lanes()
        with ServerThread(config) as handle:
            client = handle.client()
            handle.pause_dispatch()
            queued = [client.submit(
                "characterize",
                {"instructions": budget, "seed": SEED + 1,
                 "table": "4"},
                wait=False) for budget in BUDGETS[:2]]
            handle.resume_dispatch()
            for job in queued:
                assert client.wait(job["id"])["status"] == "done"
        assert fused_lanes() == before
