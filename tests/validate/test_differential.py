"""Differential fuzzing harness: clean engines agree, broken ones shrink.

The load-bearing tests plant real bugs in the fast path only — an
off-by-one stall charge in the IB take, a histogram count moved to the
wrong µPC, a skewed memory statistic, a MicroVAX-only extra cycle — and
demand the harness catch each *and* shrink it to a reproducer of at
most ten instructions, which is what makes a divergence report
actionable.
"""

import random

import pytest

from repro.analysis import Measurement
from repro.cpu.ebox import EBox
from repro.machines.registry import get_machine
from repro.osim.executive import Executive
from repro.validate import check_measurement
from repro.validate.differential import (FuzzCase, WINDOW, fuzz,
                                         random_case, run_case, shrink)
from repro.workloads.profiles import COMMERCIAL, TIMESHARING_RESEARCH
from repro.workloads.registry import WORKLOADS


class TestCleanEngines:
    def test_standard_profile_runs_clean(self):
        case = FuzzCase(TIMESHARING_RESEARCH, seed=1984, instructions=300)
        assert run_case(case) is None

    def test_fuzz_batch_runs_clean(self):
        results = fuzz(2, seed=0, instructions=250)
        assert len(results) == 2
        assert all(r["ok"] for r in results)
        assert all(r["reproducer"] is None for r in results)

    def test_fuzz_runs_clean_on_the_microvax(self):
        results = fuzz(2, seed=0, instructions=250, machine="uvax78032")
        assert [r["ok"] for r in results] == [True, True]
        assert all(r["label"].endswith(" on uvax78032") for r in results)

    def test_random_cases_are_deterministic(self):
        a = [random_case(random.Random(7), i, 100) for i in range(4)]
        b = [random_case(random.Random(7), i, 100) for i in range(4)]
        assert [c.label() for c in a] == [c.label() for c in b]
        # The knob perturbations actually vary the profiles.
        assert len({c.profile.name for c in a}) == 4

    @pytest.mark.parametrize("machine, pool", [("vax780", 13),
                                               ("uvax78032", 12)])
    def test_cases_draw_every_generator_workload_the_machine_runs(
            self, machine, pool):
        rng = random.Random(0)
        cases = [random_case(rng, i, 100, machine) for i in range(300)]
        drawn = {case.profile.name.split("-", 1)[1] for case in cases}
        assert len(drawn) == pool
        assert all(WORKLOADS[name].supported_on(machine)
                   for name in drawn)
        assert {case.machine for case in cases} == {machine}


class TestBrokenFastPath:
    @pytest.fixture
    def broken_ib_take(self, monkeypatch):
        """Plant an off-by-one stall in the *fast* engine only.

        ``ReferenceEBox`` overrides ``ib_take``, so patching the base
        class skews just the optimised path — exactly the bug class the
        harness exists to catch.
        """
        original = EBox.ib_take

        def skewed(self, nbytes, stall_upc):
            original(self, nbytes, stall_upc)
            self.tick(1)

        monkeypatch.setattr(EBox, "ib_take", skewed)

    def test_divergence_caught_and_shrunk(self, broken_ib_take):
        case = FuzzCase(COMMERCIAL, seed=3, instructions=300)
        divergence = run_case(case)
        assert divergence is not None
        assert divergence.field == "now"
        assert divergence.fast > divergence.reference

        reproducer = shrink(divergence)
        assert reproducer.case.instructions <= 10
        assert reproducer.divergence.field == "now"
        assert len(reproducer.divergence.window) <= WINDOW
        text = reproducer.describe()
        assert "minimal reproducer" in text
        assert "fast=" in text and "reference=" in text

    def test_fuzz_reports_the_divergence(self, broken_ib_take):
        results = fuzz(1, seed=0, instructions=120)
        assert not results[0]["ok"]
        assert results[0]["reproducer"].case.instructions <= 10


class TestFirstDivergentBoundary:
    @pytest.fixture
    def moved_count(self, monkeypatch):
        """Each fast read moves one nonstalled count to the next µPC.

        Time and state stay identical, so only a measurement compare
        sees it; the search finds it at a checkpoint, long after the
        first read.
        """
        original = EBox.read

        def read(self, va, size, upc):
            value = original(self, va, size, upc)
            self.board.nonstalled[upc] -= 1
            self.board.nonstalled[upc + 1] += 1
            return value

        monkeypatch.setattr(EBox, "read", read)

    def test_shrinks_to_the_first_divergent_boundary(self, moved_count):
        divergence = run_case(FuzzCase(COMMERCIAL, seed=3,
                                       instructions=300))
        assert divergence is not None
        assert divergence.field.startswith("histogram.nonstalled[")
        reproducer = shrink(divergence)
        assert reproducer.case.instructions <= 10
        assert reproducer.case.instructions == \
            reproducer.divergence.instructions + 1
        assert len(reproducer.divergence.window) <= WINDOW


class TestMemoryStatisticDefect:
    @pytest.fixture
    def extra_read_hit(self, monkeypatch):
        """Each fast read counts one extra D-stream cache read hit."""
        original = EBox.read

        def read(self, va, size, upc):
            self.mem.cache.stats.read_hits["d"] += 1
            return original(self, va, size, upc)

        monkeypatch.setattr(EBox, "read", read)

    def test_reference_axis_names_the_statistic(self, extra_read_hit):
        divergence = run_case(FuzzCase(COMMERCIAL, seed=3,
                                       instructions=300))
        assert divergence is not None
        assert divergence.field == "memory.cache_read_hits"
        reproducer = shrink(divergence)
        assert reproducer.divergence.field == "memory.cache_read_hits"
        assert reproducer.case.instructions <= 10


class TestMicroVAXFastPath:
    @pytest.fixture
    def short_free_take(self, monkeypatch):
        """Fast ``ib_take`` charges one counted compute cycle whenever
        the machine has no IB engine and the bytes are short.

        Only a machine without the fill engine takes that branch, and
        the cycle is counted, so the conservation laws still hold.
        """
        original = EBox.ib_take

        def ib_take(self, nbytes, stall_upc):
            if self._ib_free and self.ib.count < nbytes:
                self._cycle_raw(self.u.unaligned_calc)
            original(self, nbytes, stall_upc)

        monkeypatch.setattr(EBox, "ib_take", ib_take)

    def test_fuzz_catches_and_shrinks_it(self, short_free_take):
        results = fuzz(2, seed=0, instructions=150, machine="uvax78032")
        for result in results:
            assert not result["ok"]
            reproducer = result["reproducer"]
            assert reproducer.case.machine == "uvax78032"
            assert reproducer.divergence.field == "now"
            assert reproducer.case.instructions <= 10
            assert "on uvax78032" in reproducer.describe()

    def test_vax780_fuzz_stays_clean(self, short_free_take):
        assert all(r["ok"] for r in fuzz(2, seed=0, instructions=150))

    def test_conservation_laws_miss_it(self, short_free_take):
        spec = get_machine("uvax78032")
        machine = spec.build()
        executive = Executive(machine, spec.adapt_profile(COMMERCIAL),
                              seed=1984)
        executive.boot()
        executive.run(2000)
        report = check_measurement(Measurement.capture("planted", machine),
                                   machine="uvax78032")
        assert report.ok
