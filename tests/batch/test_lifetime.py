"""Each cohort's machine is freed as its cohort ends, and each result
as its caller lets it go.

A booted machine carries reference cycles: the EBox's processor-register
hooks are the machine's bound methods, the executive's hooks hold the
executive and its scheduler (which hold the machine), and the tracer's
pending executions reach the EBox through specifier plans.  The cohort
runner releases the machine at the end of ``_advance``, failed targets
included, so with the cycle collector off the machine, its EBox, the
executive, the tracer and the memory are all dead once ``_advance``
returns, before the next cohort boots.

The runner keeps no result either: ``on_result`` is the only way a
lane's result leaves it, so a measurement the caller does not keep is
dead once the callback returns, in process and from a pool shard, and
:func:`~repro.batch.engine.run_lanes` is the collector that keeps them
all, in lane order.
"""

import gc
import weakref

import pytest

from repro.analysis.measurement import Measurement
from repro.batch import BatchRunner, LaneSpec, run_lanes
from repro.batch import engine
from repro.batch.engine import _run_cohort
from repro.cpu.faults import SimulatorError
from repro.machines.registry import get_machine
from repro.osim.executive import Executive, run_until
from repro.workloads.profiles import TIMESHARING_RESEARCH
from repro.workloads.registry import get_workload
from tests.batch.test_identity import LIMITED, assert_identical

WORKLOAD = "rte-educational"
SEED = 1984
BUDGETS = (800, 1600)


@pytest.fixture
def collector_off():
    """Only reference counting frees anything while a test runs."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


@pytest.fixture
def booted(monkeypatch, collector_off):
    """Weakrefs to every object of each cohort the runner boots, in
    boot order."""
    booted = []

    class Watched(Executive):
        def __init__(self, machine, *args, **kwargs):
            super().__init__(machine, *args, **kwargs)
            booted.append({
                "machine": weakref.ref(machine),
                "ebox": weakref.ref(machine.ebox),
                "executive": weakref.ref(self),
                "tracer": weakref.ref(machine.tracer),
                "memory": weakref.ref(machine.mem.memory),
            })

    monkeypatch.setattr(engine, "Executive", Watched)
    return booted


def alive(refs: dict) -> list:
    return sorted(name for name, ref in refs.items() if ref() is not None)


def lanes(seeds=(SEED,)) -> list:
    return [LaneSpec(WORKLOAD, budget, seed)
            for seed in seeds for budget in BUDGETS]


class TestAdvanceFrees:
    @pytest.mark.parametrize("fuse", [True, False],
                             ids=["fused", "unfused"])
    def test_every_object_is_dead_when_advance_returns(self, booted,
                                                       fuse):
        results = [None] * len(lanes())
        runner = BatchRunner(lanes(), fuse=fuse,
                             on_result=results.__setitem__)
        assert len(runner.cohorts) == (1 if fuse else len(BUDGETS))
        for cohort in runner.cohorts:
            runner._advance(runner._boot(cohort))
            assert alive(booted[-1]) == []
        assert len(booted) == len(runner.cohorts)
        assert all(result.ok for result in results)

    def test_a_pool_task_frees_its_machine(self, booted):
        profile = get_workload(WORKLOAD).profile
        results = _run_cohort((lanes(), {WORKLOAD: profile}))
        assert [result.ok for result in results] == [True, True]
        assert len(booted) == 1
        assert alive(booted[0]) == []

    def test_a_failed_last_target_frees_its_machine(self, booted,
                                                    monkeypatch):
        """No capture flushes the tracer here, so its pending
        executions still reach the EBox when the run fails."""
        def step_then_fail(machine, target):
            while machine.tracer.instructions < 100:
                machine.step()
            raise RuntimeError("planted failure")

        monkeypatch.setattr(engine, "run_until", step_then_fail)
        results = [None] * len(BUDGETS)
        runner = BatchRunner(lanes(), on_result=results.__setitem__)
        (cohort,) = runner.cohorts
        runner._advance(runner._boot(cohort))
        assert [result.error for result in results] == \
            ["planted failure"] * len(BUDGETS)
        assert alive(booted[0]) == []

    def test_the_previous_machine_is_dead_when_the_next_boots(self,
                                                              booted):
        seen = []

        def on_start(cohort):
            seen.append([alive(refs) for refs in booted])

        BatchRunner(lanes(seeds=(SEED, 7, 11)), on_start=on_start).run()
        assert len(booted) == 3
        assert seen == [[], [[]], [[], []]]


class TestNothingKept:
    """A measurement its caller does not keep is dead once the caller's
    ``on_result`` returns: the runner holds none of them."""

    def watch(self, runner_lanes, **options) -> list:
        """Run the lanes, keeping only a weakref to each measurement;
        returns, for each lane as it settled, which of the earlier
        measurements were still alive."""
        refs = []
        alive_before = []

        def on_result(index, result):
            assert result.ok
            alive_before.append([ref() is not None for ref in refs])
            refs.append(weakref.ref(result.measurement))

        BatchRunner(runner_lanes, on_result=on_result, **options).run()
        assert len(refs) == len(runner_lanes)
        assert [ref() for ref in refs] == [None] * len(refs)
        return alive_before

    @pytest.mark.parametrize("fuse", [True, False],
                             ids=["fused", "unfused"])
    def test_in_process(self, collector_off, fuse):
        settled = self.watch(lanes(seeds=(SEED, 7)), fuse=fuse)
        assert settled == [[False] * lane for lane in range(4)]

    @pytest.mark.parametrize("fuse", [True, False],
                             ids=["fused", "unfused"])
    def test_from_a_pool_shard(self, collector_off, fuse):
        """Two fused cohorts or four unfused ones land as one shard;
        each result is dropped as it is handed on."""
        settled = self.watch(lanes(seeds=(SEED, 7)), fuse=fuse, jobs=2)
        assert settled == [[False] * lane for lane in range(4)]


class TestRunLanesCollects:
    """:func:`run_lanes` returns every result in lane order, failures
    included, although lanes settle cohort by cohort, each cohort's in
    ascending budget order."""

    LANES = [LaneSpec(TIMESHARING_RESEARCH.name, 150, 7),
             LaneSpec(LIMITED.name, 1900, 3),
             LaneSpec(TIMESHARING_RESEARCH.name, 300, 7,
                      (("cache_bytes", 4096),)),
             LaneSpec(LIMITED.name, 1600, 3),
             LaneSpec(TIMESHARING_RESEARCH.name, 300, 7)]
    PROFILES = [TIMESHARING_RESEARCH, LIMITED]

    @pytest.fixture(scope="class")
    def serial(self):
        settled = []
        results = run_lanes(
            self.LANES, strict=False, profiles=self.PROFILES,
            on_result=lambda index, result: settled.append(index))
        return results, settled

    def test_lanes_settle_out_of_lane_order(self, serial):
        _, settled = serial
        assert settled == [0, 4, 3, 1, 2]

    def test_results_in_lane_order(self, serial):
        results, _ = serial
        assert [result.spec for result in results] == self.LANES
        assert [result.ok for result in results] == \
            [True, False, True, True, True]
        assert results[1].error.startswith("cycle limit hit")
        assert results[1].measurement is None

    def test_a_pool_collects_the_same(self, serial):
        results, _ = serial
        pooled = run_lanes(self.LANES, strict=False,
                           profiles=self.PROFILES, jobs=2)
        assert [result.spec for result in pooled] == self.LANES
        assert [result.error for result in pooled] == \
            [result.error for result in results]
        for mine, theirs in zip(pooled, results):
            if theirs.ok:
                assert_identical(mine.measurement, theirs.measurement)

    def test_strict_raises_after_every_lane_ran(self):
        landed = []
        with pytest.raises(RuntimeError, match="cycle limit hit"):
            run_lanes(self.LANES, profiles=self.PROFILES,
                      on_result=lambda index, result: landed.append(index))
        assert sorted(landed) == list(range(len(self.LANES)))


class TestRelease:
    def boot(self):
        spec = get_machine("vax780")
        machine = spec.build()
        executive = Executive(
            machine, spec.adapt_profile(get_workload(WORKLOAD).profile),
            seed=SEED)
        executive.boot()
        run_until(machine, BUDGETS[0])
        return machine

    def test_release_flushes_pending_executions(self):
        """Every counter a capture reads is what an unreleased machine
        at the same state reports."""
        released, kept = self.boot(), self.boot()
        released.release()
        assert_identical(Measurement.capture(WORKLOAD, released),
                         Measurement.capture(WORKLOAD, kept))

    def test_a_released_machine_cannot_step(self):
        machine = self.boot()
        machine.release()
        with pytest.raises(SimulatorError, match="released"):
            machine.step()
