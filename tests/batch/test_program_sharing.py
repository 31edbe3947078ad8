"""Program sets shared across cohorts that differ only in machine params.

A cohort's generated programs depend on its workload, seed and machine
(whose adapted profile may differ), never on MachineParams overrides.
The runner therefore generates each (workload, seed, machine) set once,
hands it to every later cohort of that key, and lets it go once the
last one has booted — and every lane still equals an independent
:meth:`~repro.osim.executive.Executive.run`.
"""

import gc
import weakref

import pytest

from repro.batch import BatchRunner, LaneSpec
from repro.batch.engine import _run_cohort
from repro.machines.registry import get_machine
from repro.workloads.codegen import ProgramGenerator
from repro.workloads.registry import get_workload, paper_workload_names
from tests.batch.test_identity import assert_identical, scalar_measure

SEED = 1984
BUDGETS = (150, 300)
CACHE_BYTES = (4096, 8192, 16384)
#: The one workload that also runs on the second machine.
BOTH_MACHINES = "rte-educational"


def sharing_lanes() -> list:
    """The paper five × three cache sizes × two budgets on the 780,
    plus one workload across the same sweep on the MicroVAX."""
    lanes = [LaneSpec(name, budget, SEED, (("cache_bytes", size),))
             for name in paper_workload_names()
             for size in CACHE_BYTES for budget in BUDGETS]
    lanes += [LaneSpec(BOTH_MACHINES, budget, SEED,
                       (("cache_bytes", size),), machine="uvax78032")
              for size in CACHE_BYTES for budget in BUDGETS]
    return lanes


def expected_generations(lanes) -> int:
    """Σ processes over the distinct (workload, seed, machine) keys."""
    keys = {(lane.workload, lane.seed, lane.machine) for lane in lanes}
    return sum(get_machine(machine).adapt_profile(
        get_workload(workload).profile).processes
        for workload, _seed, machine in keys)


class _Watch:
    """Counts ``ProgramGenerator.generate`` calls and keeps a weak
    reference to every program, filed under the key of the cohort
    whose boot generated it."""

    def __init__(self, monkeypatch) -> None:
        self.calls = 0
        self.programs = {}          # key -> [weakref]
        self.key = None
        real_generate = ProgramGenerator.generate
        real_boot = BatchRunner._boot
        watch = self

        def generate(self):
            program = real_generate(self)
            watch.calls += 1
            watch.programs.setdefault(watch.key, []).append(
                weakref.ref(program))
            return program

        def boot(self, cohort):
            watch.before_boot(self, cohort)
            watch.key = (cohort.workload, cohort.seed, cohort.machine)
            return real_boot(self, cohort)

        monkeypatch.setattr(ProgramGenerator, "generate", generate)
        monkeypatch.setattr(BatchRunner, "_boot", boot)

    def before_boot(self, runner, cohort) -> None:
        """Hook for lifetime checks; no-op by default."""


@pytest.fixture(scope="module", params=[True, False],
                ids=["fused", "unfused"])
def shared_run(request):
    monkeypatch = pytest.MonkeyPatch()
    try:
        watch = _Watch(monkeypatch)
        lanes = sharing_lanes()
        runner = BatchRunner(lanes, fuse=request.param)
        results = runner.run()
    finally:
        monkeypatch.undo()
    return lanes, runner, results, watch.calls


@pytest.fixture(scope="module")
def independent_run():
    """Each lane's independent scalar run, made once for both the fused
    and the unfused runner."""
    cache = {}

    def run(lane):
        if lane not in cache:
            cache[lane] = scalar_measure(
                get_workload(lane.workload).profile, lane.instructions,
                lane.seed, lane.machine, lane.overrides)
        return cache[lane]
    return run


class TestSharing:
    def test_each_program_set_is_generated_once(self, shared_run):
        lanes, runner, _results, calls = shared_run
        keys = {(cohort.workload, cohort.seed, cohort.machine)
                for cohort in runner.cohorts}
        assert len(keys) == 6
        assert len(runner.cohorts) > len(keys)
        assert calls == expected_generations(lanes)

    @pytest.mark.parametrize("index", range(len(sharing_lanes())))
    def test_lane_matches_an_independent_run(self, shared_run,
                                             independent_run, index):
        lanes, _runner, results, _calls = shared_run
        assert results[index].ok
        assert_identical(results[index].measurement,
                         independent_run(lanes[index]))

    def test_pool_tasks_generate_their_own(self, monkeypatch):
        """A pool task (one cohort) shares nothing with the next, and
        its answer is the in-process one."""
        profile = get_workload("rte-scientific").profile
        lanes = [LaneSpec(profile.name, 100, 7, (("cache_bytes", size),))
                 for size in (4096, 16384)]
        in_process = BatchRunner(lanes).run()
        watch = _Watch(monkeypatch)
        for lane, expected in zip(lanes, in_process):
            [result] = _run_cohort(([lane], {profile.name: profile}))
            assert_identical(result.measurement, expected.measurement)
        assert watch.calls == 2 * profile.processes


class TestProgramLifetime:
    @pytest.mark.parametrize("fuse", [True, False])
    def test_no_program_set_outlives_its_last_boot(self, monkeypatch,
                                                   fuse):
        """By the time a cohort boots, every program of a key whose
        last cohort has already booted (and run) is garbage."""
        lanes = [LaneSpec(name, budget, SEED, (("cache_bytes", size),))
                 for size in (4096, 16384)
                 for name in ("timesharing-research", "rte-commercial")
                 for budget in (20, 40)]
        lanes += [LaneSpec("rte-scientific", 20, SEED)]
        watch = _Watch(monkeypatch)
        booted = []
        released = []

        def before_boot(runner, cohort):
            gc.collect()
            last = {}
            for index, other in enumerate(runner.cohorts):
                last[(other.workload, other.seed, other.machine)] = index
            done = {key for key, index in last.items()
                    if index < len(booted)}
            for key in done:
                assert [ref() for ref in watch.programs[key]] == \
                    [None] * len(watch.programs[key]), key
            released.append(len(done))
            booted.append(cohort)

        watch.before_boot = before_boot
        results = BatchRunner(lanes, fuse=fuse).run()
        assert all(result.ok for result in results)
        # The last key is released only after the run; sharing did
        # happen: two keys, each generated once, before the third.
        assert released[-1] == 2
        assert watch.calls == sum(
            get_workload(name).profile.processes
            for name in ("timesharing-research", "rte-commercial",
                         "rte-scientific"))
        gc.collect()
        assert all(ref() is None for refs in watch.programs.values()
                   for ref in refs)
