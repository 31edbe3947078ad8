"""One run path, one ledger: every engine and ``jobs`` counts alike.

The smoke composite runs through the cohort runner however it is
asked for — in process or across worker processes, with or without
budget fusion — so the engine's own bookkeeping must come out the same
on every path: each fresh measurement counted once, in the calling
process, and ``workloads.cycles`` equal to the cycles the composite
itself reports (a metric checked against ground truth, as cycles are).
``workloads.programs`` counts the programs generated, wherever they
were generated: one per process some run dispatched, which independent
runs of the five workloads say.
"""

from repro import api, obs
from repro.explore import Axis, SweepSpec, run_sweep
from repro.explore import runner as runner_module
from repro.obs.metrics import scoped_registry
from repro.workloads import engine
from repro.workloads.registry import get_workload, paper_workload_names
from tests.helpers import scalar_run

#: The smoke composite's budget (no other module's cache interplay).
INSTRUCTIONS = 1_500

#: (jobs, engine): serial and pooled, with and without fusion.
PATHS = ((1, "scalar"), (1, "batch"), (2, "scalar"), (2, "batch"),
         (2, "auto"))

LEDGER = ("workloads.runs", "workloads.cycles", "workloads.instructions",
          "workloads.memo_hits", "workloads.programs")


def _counters(registry) -> dict:
    return {name: registry.counter(name).value for name in LEDGER}


def _composite(jobs, engine_name):
    return api.characterize(instructions=INSTRUCTIONS, table="8",
                            jobs=jobs, engine=engine_name)


def _finished(observation) -> list:
    return [event["cached"] for event in observation.tracer.events
            if event["event"] == "workload_finished"]


class TestComposite:
    def test_every_path_leaves_the_same_ledger(self):
        ledgers = {}
        for jobs, engine_name in PATHS:
            engine.clear_cache()
            with scoped_registry() as registry:
                result = _composite(jobs, engine_name)
            ledgers[(jobs, engine_name)] = _counters(registry)
            assert registry.counter("workloads.cycles").value \
                == result.cycles, (jobs, engine_name)
        dispatched = sum(
            len(scalar_run(get_workload(name).profile, INSTRUCTIONS,
                           1984)[1])
            for name in paper_workload_names())
        assert ledgers[PATHS[0]] == {
            "workloads.runs": 5, "workloads.cycles": result.cycles,
            "workloads.instructions": 5 * INSTRUCTIONS,
            "workloads.memo_hits": 0, "workloads.programs": dispatched}
        for path, ledger in ledgers.items():
            assert ledger == ledgers[PATHS[0]], path

    def test_a_repeat_adds_only_memo_hits(self):
        for jobs, engine_name in PATHS:
            engine.clear_cache()
            with scoped_registry() as registry:
                _composite(jobs, engine_name)
                first = _counters(registry)
                _composite(jobs, engine_name)
                again = _counters(registry)
            assert again == dict(
                first, **{"workloads.memo_hits":
                          first["workloads.memo_hits"] + 5}), \
                (jobs, engine_name)

    def test_finished_events_say_whether_they_simulated(self):
        for jobs, engine_name in PATHS:
            engine.clear_cache()
            with scoped_registry():
                with obs.observe(label="first") as first:
                    _composite(jobs, engine_name)
                with obs.observe(label="repeat") as repeat:
                    _composite(jobs, engine_name)
            assert _finished(first) == [False] * 5, (jobs, engine_name)
            assert _finished(repeat) == [True] * 5, (jobs, engine_name)

    def test_an_observed_run_reports_progress_on_every_engine(self):
        for engine_name in ("scalar", "batch", "auto"):
            engine.clear_cache()
            with scoped_registry():
                with obs.observe(label=engine_name) as observation:
                    _composite(1, engine_name)
            names = [event["event"] for event in observation.tracer.events]
            assert names.count("workload_started") == 5, engine_name
            assert "progress" in names, engine_name


#: Two workloads along a budget axis: four lanes, two fusible pairs.
SWEEP = SweepSpec("ledger", (Axis("instructions", (300, 600)),),
                  instructions=300,
                  workloads=("timesharing-research", "rte-commercial"))


class TestSweep:
    def test_simulation_counts_agree_on_every_path(self):
        for jobs in (1, 2):
            for engine_name in ("scalar", "batch"):
                before = runner_module.SIMULATIONS
                with scoped_registry() as registry:
                    sweep = run_sweep(SWEEP, jobs=jobs, engine=engine_name)
                simulated = runner_module.SIMULATIONS - before
                path = (jobs, engine_name)
                assert sweep.stats["simulated"] == simulated == 4, path
                assert registry.counter("explore.simulations").value \
                    == simulated, path
                # Every simulation was a capture of the cohort runner,
                # and with a pool every cohort was one pool task.
                assert registry.counter("batch.captures").value \
                    == simulated, path
                assert registry.counter("parallel.tasks").value == (
                    registry.counter("batch.cohorts").value if jobs > 1
                    else 0), path
