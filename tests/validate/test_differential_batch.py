"""The scalar<->batch differential axis: clean runs agree, planted
corruption is caught and shrinks to a minimal budget.

The broken-engine test installs the ``batch-capture-extra-count``
plant — a single corrupted bucket in every batch capture — and demands
the harness name the divergent field exactly and shrink the reproducer
to the first capture boundary that exhibits it.
"""

import pytest

from repro.machines.registry import machine_names
from repro.refute.perturb import perturbation
from repro.validate.differential import (FuzzCase, batch_targets,
                                         fuzz_batch, run_case_batch,
                                         shrink_batch)
from repro.workloads.profiles import TIMESHARING_RESEARCH


class TestTargets:
    def test_prefix_boundaries_ascend_and_end_at_the_budget(self):
        assert batch_targets(400) == [133, 200, 400]
        assert batch_targets(3) == [1, 3]
        assert batch_targets(1) == [1]


class TestCleanEngines:
    def test_standard_profile_runs_clean(self):
        case = FuzzCase(TIMESHARING_RESEARCH, seed=1984,
                        instructions=300)
        assert run_case_batch(case) is None

    def test_fuzz_batch_runs_clean(self):
        results = fuzz_batch(2, seed=0, instructions=250)
        assert len(results) == 2
        assert all(r["ok"] for r in results)
        assert all(r["reproducer"] is None for r in results)

    def test_fuzz_batch_runs_clean_on_the_microvax(self):
        results = fuzz_batch(2, seed=0, instructions=200,
                             machine="uvax78032")
        assert [r["ok"] for r in results] == [True, True]

    def test_fuzz_batch_draws_the_same_cases_as_fuzz(self):
        """Same (seed, count) -> same labels, so a divergence found on
        one axis can be replayed on the other."""
        from repro.validate.differential import fuzz

        for machine in machine_names():
            batch = fuzz_batch(2, seed=3, instructions=200,
                               machine=machine)
            scalar = fuzz(2, seed=3, instructions=200, machine=machine)
            assert [r["label"] for r in batch] == \
                [r["label"] for r in scalar]


class TestBrokenSink:
    @pytest.fixture
    def corrupted_bucket(self):
        """Plant a one-count error in bucket 7 of every capture."""
        with perturbation("batch-capture-extra-count"):
            yield

    def test_divergence_names_the_corrupted_bucket(self,
                                                   corrupted_bucket):
        case = FuzzCase(TIMESHARING_RESEARCH, seed=1984,
                        instructions=300)
        divergence = run_case_batch(case)
        assert divergence is not None
        assert divergence.field == "histogram.nonstalled[7]"
        assert divergence.fast == divergence.reference + 1
        # Caught at the very first capture boundary.
        assert divergence.step == 0
        assert divergence.instructions == batch_targets(300)[0]

    def test_shrinks_to_the_first_boundary(self, corrupted_bucket):
        case = FuzzCase(TIMESHARING_RESEARCH, seed=1984,
                        instructions=300)
        reproducer = shrink_batch(run_case_batch(case))
        assert reproducer.divergence.instructions == 1
        assert reproducer.case.instructions == 1
        assert "histogram.nonstalled[7]" in reproducer.describe()

    def test_fuzz_batch_reports_the_reproducer(self, corrupted_bucket):
        results = fuzz_batch(1, seed=0, instructions=120)
        assert not results[0]["ok"]
        reproducer = results[0]["reproducer"]
        assert reproducer is not None
        assert reproducer.divergence.field == "histogram.nonstalled[7]"

    def test_caught_on_the_microvax(self, corrupted_bucket):
        results = fuzz_batch(1, seed=0, instructions=120,
                             machine="uvax78032")
        reproducer = results[0]["reproducer"]
        assert reproducer.case.machine == "uvax78032"
        assert reproducer.divergence.field == "histogram.nonstalled[7]"
        assert reproducer.case.instructions == 1


class TestErrorMismatch:
    def test_one_sided_failure_is_an_error_divergence(self, monkeypatch):
        """If only the batch side fails a target, the field is 'error'."""
        from repro.batch import engine as engine_module

        def capture(self, state):
            self._fail_target(state, "injected batch-only failure")

        monkeypatch.setattr(engine_module.BatchRunner, "_capture",
                            capture)
        case = FuzzCase(TIMESHARING_RESEARCH, seed=1984,
                        instructions=300)
        divergence = run_case_batch(case)
        assert divergence is not None
        assert divergence.field == "error"
        assert divergence.fast == "injected batch-only failure"
        assert divergence.reference is None
