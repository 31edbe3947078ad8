"""Scalar <-> batch bit-identity: the engine's load-bearing contract.

Every observable a Measurement carries — cycle count, both histogram
count sets bucket by bucket, every tracer scalar and counter, every
memory-subsystem statistic — must be equal bit for bit between a batch
lane and an independent scalar run of the same (workload, budget,
seed, params, machine), on every machine backend.  That includes the
failure modes: a lane that hits the cycle limit or a halted machine
must reproduce the scalar engine's exact RuntimeError message.
"""

from dataclasses import replace

import pytest

from repro.analysis.measurement import Measurement, MemoryStats, composite
from repro.batch import LaneSpec, run_lanes
from repro.cpu.machine import VAX780
from repro.osim.executive import HALTED_ERROR, Executive
from repro.workloads.profiles import STANDARD_PROFILES, \
    TIMESHARING_RESEARCH
from tests.helpers import scalar_run

PREFIX = 400
BUDGET = 800

#: Single blocked process + fast clock: the scheduler lands on the null
#: process and the measurement gate actually closes mid-run.
GATED = replace(TIMESHARING_RESEARCH, name="gated-mix",
                description="gating stress", processes=1,
                syscall_density=0.5, blocking_syscall_fraction=1.0,
                clock_period_cycles=1500, io_block_cycles=6000)

#: Same shape with a block so long the 400-cycles-per-instruction
#: budget cannot cover it: the scalar engine raises the cycle-limit
#: error at budget 1900 (seed 3) but completes 1600 clean.
LIMITED = replace(GATED, name="limited-mix",
                  description="cycle-limit stress",
                  clock_period_cycles=1000, io_block_cycles=1_000_000)

#: A params override: its lanes fuse into a cohort of their own.
OVERRIDES = (("cache_bytes", 4096),)


def scalar_measure(profile, instructions, seed, machine="vax780",
                   overrides=()) -> Measurement:
    """One fresh scalar-engine run — the reference side."""
    return scalar_run(profile, instructions, seed, machine, overrides)[0]


def assert_identical(batch: Measurement, scalar: Measurement) -> None:
    """Field-for-field equality over everything a Measurement holds."""
    assert batch.name == scalar.name
    assert batch.cycles == scalar.cycles
    assert list(batch.histogram.nonstalled) == \
        list(scalar.histogram.nonstalled)
    assert list(batch.histogram.stalled) == list(scalar.histogram.stalled)
    for name in scalar.tracer._SCALARS + scalar.tracer._COUNTERS:
        assert getattr(batch.tracer, name) == \
            getattr(scalar.tracer, name), f"tracer.{name}"
    for name in MemoryStats.__slots__:
        assert getattr(batch.memory, name) == \
            getattr(scalar.memory, name), f"memory.{name}"


class TestFiveWorkloads:
    """Fused lanes on the 780; the subclass below reruns them on the
    MicroVAX."""

    MACHINE = "vax780"

    @pytest.fixture(scope="class")
    def five_workload_batch(self):
        """All five workloads at two fused budgets, plus one overridden
        cohort, in one batch run."""
        lanes = [LaneSpec(profile.name, target, 1984,
                          machine=self.MACHINE)
                 for profile in STANDARD_PROFILES
                 for target in (PREFIX, BUDGET)]
        lanes += [LaneSpec(TIMESHARING_RESEARCH.name, target, 1984,
                           OVERRIDES, self.MACHINE)
                  for target in (PREFIX, BUDGET)]
        results = run_lanes(lanes)
        return {(r.spec.workload, r.spec.instructions,
                 r.spec.overrides): r.measurement for r in results}

    @pytest.mark.parametrize("profile", STANDARD_PROFILES,
                             ids=lambda p: p.name)
    @pytest.mark.parametrize("target", (PREFIX, BUDGET))
    def test_lane_matches_scalar_run(self, five_workload_batch,
                                     profile, target):
        batch = five_workload_batch[(profile.name, target, ())]
        assert_identical(batch, scalar_measure(profile, target, 1984,
                                               self.MACHINE))

    @pytest.mark.parametrize("target", (PREFIX, BUDGET))
    def test_overridden_lane_matches_scalar_run(self, five_workload_batch,
                                                target):
        batch = five_workload_batch[(TIMESHARING_RESEARCH.name, target,
                                     OVERRIDES)]
        assert_identical(batch, scalar_measure(
            TIMESHARING_RESEARCH, target, 1984, self.MACHINE, OVERRIDES))


class TestFiveWorkloadsOnMicroVAX(TestFiveWorkloads):
    MACHINE = "uvax78032"


class TestComposite:
    def test_batched_standard_runs_compose_identically(self):
        from repro.obs import metrics
        from repro.workloads import engine

        lanes = metrics.counter("batch.lanes").value
        batched = engine.run_many(None, 600, seed=7)
        assert metrics.counter("batch.lanes").value - lanes == 5
        scalar = {p.name: scalar_measure(p, 600, 7)
                  for p in STANDARD_PROFILES}
        assert list(batched) == [p.name for p in STANDARD_PROFILES]
        for name, measurement in batched.items():
            assert_identical(measurement, scalar[name])
        ours = composite(list(batched.values()))
        theirs = composite(list(scalar.values()))
        assert ours.cycles == theirs.cycles
        assert list(ours.histogram.nonstalled) == \
            list(theirs.histogram.nonstalled)
        assert list(ours.histogram.stalled) == \
            list(theirs.histogram.stalled)

    def test_engine_facade_memoises_batch_results(self):
        from repro.workloads import engine

        results = engine.run_standard_experiments(
            instructions=500, seed=11)
        for profile in STANDARD_PROFILES:
            assert engine._CACHE[LaneSpec(profile.name, 500, 11)] is \
                results[profile.name]
            assert_identical(results[profile.name],
                             scalar_measure(profile, 500, 11))

    def test_memo_keys_the_params_overrides(self, monkeypatch):
        """A lane run off the stock params never answers the stock
        lane: the memo keys the whole lane, overrides included."""
        from repro.workloads import engine

        monkeypatch.setattr(engine, "_CACHE", {})
        stock = LaneSpec("timesharing-research", 500, 1)
        small = LaneSpec("timesharing-research", 500, 1,
                         overrides=(("cache_bytes", 1024),))
        [small_cache] = engine.measure([small])
        [measured] = engine.measure([stock])
        [reference] = run_lanes([stock])
        assert small_cache.cycles == 3517
        assert measured.cycles == 3505
        assert_identical(measured, reference.measurement)

    def test_measure_answers_what_it_landed_when_the_memo_drops_it(
            self, monkeypatch):
        """The memo may lose an entry between a lane landing and the
        answer (a bound on the memo, a timed-out serve round): measure
        still returns every lane's measurement."""
        from repro.workloads import engine

        monkeypatch.setattr(engine, "_CACHE", {})
        finish = engine._finish

        def finish_and_drop(key, measurement):
            landed = finish(key, measurement)
            engine._CACHE.clear()
            return landed

        monkeypatch.setattr(engine, "_finish", finish_and_drop)
        profiles = STANDARD_PROFILES[:2]
        lanes = [LaneSpec(profile.name, 500, 13) for profile in profiles]
        measurements = engine.measure(lanes)
        assert engine._CACHE == {}
        for profile, measurement in zip(profiles, measurements):
            assert_identical(measurement, scalar_measure(profile, 500, 13))


class TestGatedLane:
    def test_gated_run_is_bit_identical(self):
        scalar = scalar_measure(GATED, 3000, 3)
        # The profile earns its keep: the gate really closed.
        assert scalar.tracer.gated_off_cycles > 0
        result = run_lanes([LaneSpec(GATED.name, 3000, 3)],
                           profiles=[GATED])[0]
        assert_identical(result.measurement, scalar)


class TestErrorIdentity:
    def scalar_error(self, profile, instructions, seed) -> str:
        machine = VAX780()
        executive = Executive(machine, profile, seed=seed)
        executive.boot()
        with pytest.raises(RuntimeError) as exc:
            executive.run(instructions)
        return str(exc.value)

    def test_cycle_limited_lane_reproduces_scalar_error(self):
        lanes = [LaneSpec(LIMITED.name, 1600, 3),
                 LaneSpec(LIMITED.name, 1900, 3)]
        results = run_lanes(lanes, profiles=[LIMITED], strict=False)
        # The short lane captured cleanly before the fatal block...
        assert results[0].ok
        assert_identical(results[0].measurement,
                         scalar_measure(LIMITED, 1600, 3))
        # ...and the long lane failed with the scalar message verbatim.
        expected = self.scalar_error(LIMITED, 1900, 3)
        assert expected.startswith("cycle limit hit")
        assert results[1].error == expected
        assert results[1].measurement is None
        assert not results[1].ok

    def test_strict_mode_raises_the_lane_error(self):
        lanes = [LaneSpec(LIMITED.name, 1900, 3)]
        with pytest.raises(RuntimeError, match="cycle limit hit"):
            run_lanes(lanes, profiles=[LIMITED])

    def test_halted_machine_fails_all_remaining_lanes(self, monkeypatch):
        real_step = VAX780.step

        def step(self):
            real_step(self)
            if self.tracer.instructions >= 150:
                self.halted = True

        monkeypatch.setattr(VAX780, "step", step)
        name = TIMESHARING_RESEARCH.name
        lanes = [LaneSpec(name, 100, 1984), LaneSpec(name, 300, 1984),
                 LaneSpec(name, 500, 1984)]
        results = run_lanes(lanes, strict=False)
        assert results[0].ok
        assert results[1].error == HALTED_ERROR
        assert results[2].error == HALTED_ERROR
        # The scalar engine says the same thing under the same halt.
        assert self.scalar_error(TIMESHARING_RESEARCH, 300,
                                 1984) == HALTED_ERROR
