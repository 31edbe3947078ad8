"""Each cohort's machine is freed as its cohort ends.

A booted machine carries reference cycles: the EBox's processor-register
hooks are the machine's bound methods, the executive's hooks hold the
executive and its scheduler (which hold the machine), and the tracer's
pending executions reach the EBox through specifier plans.  The cohort
runner releases the machine at the end of ``_advance``, failed targets
included, so with the cycle collector off the machine, its EBox, the
executive, the tracer and the memory are all dead once ``_advance``
returns, before the next cohort boots.
"""

import gc
import weakref

import pytest

from repro.analysis.measurement import Measurement
from repro.batch import BatchRunner, LaneSpec
from repro.batch import engine
from repro.batch.engine import _run_cohort
from repro.cpu.faults import SimulatorError
from repro.machines.registry import get_machine
from repro.osim.executive import Executive, run_until
from repro.workloads.registry import get_workload
from tests.batch.test_identity import assert_identical

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
        runner = BatchRunner(lanes(), fuse=fuse)
        assert len(runner.cohorts) == (1 if fuse else len(BUDGETS))
        for cohort in runner.cohorts:
            runner._advance(runner._boot(cohort))
            assert alive(booted[-1]) == []
        assert len(booted) == len(runner.cohorts)
        assert all(result.ok for result in runner._results)

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
        runner = BatchRunner(lanes())
        (cohort,) = runner.cohorts
        runner._advance(runner._boot(cohort))
        assert [result.error for result in runner._results] == \
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
