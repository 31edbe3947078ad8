"""Program sets shared across cohorts that differ only in machine params.

A cohort's generated programs depend on its workload, seed and machine
(whose adapted profile may differ), never on MachineParams overrides.
The runner therefore keeps one (workload, seed, machine) set, hands it
to every later cohort of that key, and lets it go once the last one has
booted.  A set generates a process's program when a cohort first
dispatches that process, so each (workload, seed, machine, ASID) that
some cohort dispatches is generated exactly once and no other — and
every lane still equals an independent
:meth:`~repro.osim.executive.Executive.run`, whose dispatches are the
ground truth here.
"""

import gc
import weakref
from collections import Counter

import pytest

from repro.batch import BatchRunner, LaneSpec, run_lanes
from repro.batch.engine import _run_cohort
from repro.workloads.codegen import ProgramGenerator
from repro.workloads.registry import get_workload, paper_workload_names
from tests.batch.test_identity import assert_identical
from tests.helpers import scalar_run

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


def independent(lane) -> tuple:
    """(Measurement, dispatched ASIDs) of ``lane``'s independent run."""
    return scalar_run(get_workload(lane.workload).profile,
                      lane.instructions, lane.seed, lane.machine,
                      lane.overrides)


def expected_generations(lanes, run=independent) -> set:
    """Every (workload, seed, machine, ASID) that some lane's
    independent run dispatches."""
    return {(lane.workload, lane.seed, lane.machine, asid)
            for lane in lanes for asid in run(lane)[1]}


class _Watch:
    """Counts ``ProgramGenerator.generate`` calls, by (workload, seed,
    machine, ASID), and keeps a weak reference to every program, filed
    under the key of the cohort that was running when it was
    generated."""

    def __init__(self, monkeypatch) -> None:
        self.calls = 0
        self.generated = Counter()  # (workload, seed, machine, asid)
        self.programs = {}          # key -> [weakref]
        self.key = None
        real_init = ProgramGenerator.__init__
        real_generate = ProgramGenerator.generate
        real_boot = BatchRunner._boot
        watch = self

        def init(self, profile, seed):
            real_init(self, profile, seed)
            self.watched_seed = seed

        def generate(self):
            program = real_generate(self)
            watch.calls += 1
            # A process's generator is seeded seed * 1000 + asid.
            asid = self.watched_seed - 1000 * watch.key[1]
            watch.generated[watch.key + (asid,)] += 1
            watch.programs.setdefault(watch.key, []).append(
                weakref.ref(program))
            return program

        def boot(self, cohort):
            watch.before_boot(self, cohort)
            watch.key = (cohort.workload, cohort.seed, cohort.machine)
            return real_boot(self, cohort)

        monkeypatch.setattr(ProgramGenerator, "__init__", init)
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
        results = [None] * len(lanes)
        runner = BatchRunner(lanes, fuse=request.param,
                             on_result=results.__setitem__)
        runner.run()
    finally:
        monkeypatch.undo()
    return lanes, runner, results, watch


@pytest.fixture(scope="module")
def independent_run():
    """Each lane's independent scalar run, made once for both the fused
    and the unfused runner."""
    cache = {}

    def run(lane):
        if lane not in cache:
            cache[lane] = independent(lane)
        return cache[lane]
    return run


class TestSharing:
    def test_each_program_set_is_generated_once(self, shared_run,
                                                 independent_run):
        lanes, runner, _results, watch = shared_run
        keys = {(cohort.workload, cohort.seed, cohort.machine)
                for cohort in runner.cohorts}
        assert len(keys) == 6
        assert len(runner.cohorts) > len(keys)
        expected = expected_generations(lanes, independent_run)
        assert watch.calls == len(expected)
        assert watch.generated == Counter(expected)

    @pytest.mark.parametrize("index", range(len(sharing_lanes())))
    def test_lane_matches_an_independent_run(self, shared_run,
                                             independent_run, index):
        lanes, _runner, results, _watch = shared_run
        assert results[index].ok
        assert_identical(results[index].measurement,
                         independent_run(lanes[index])[0])

    def test_pool_tasks_generate_their_own(self, monkeypatch):
        """A pool task (one cohort) shares nothing with the next,
        generates only what its own cohort dispatches, and its answer
        is the in-process one."""
        profile = get_workload("rte-scientific").profile
        lanes = [LaneSpec(profile.name, 100, 7, (("cache_bytes", size),))
                 for size in (4096, 16384)]
        in_process = run_lanes(lanes)
        dispatched = [independent(lane)[1] for lane in lanes]
        watch = _Watch(monkeypatch)
        for lane, expected, asids in zip(lanes, in_process, dispatched):
            before = watch.calls
            [result] = _run_cohort(([lane], {profile.name: profile}))
            assert_identical(result.measurement, expected.measurement)
            assert watch.calls - before == len(asids)
        assert watch.calls == sum(len(asids) for asids in dispatched)


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
        expected = expected_generations(lanes)
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
        results = run_lanes(lanes, fuse=fuse)
        assert all(result.ok for result in results)
        # The last key is released only after the run; sharing did
        # happen: two keys, each generated once, before the third.
        assert released[-1] == 2
        assert watch.calls == len(expected)
        assert watch.generated == Counter(expected)
        gc.collect()
        assert all(ref() is None for refs in watch.programs.values()
                   for ref in refs)
