"""Lane planning, cohort lifetime, engine validation."""

import gc
import weakref

import pytest

from repro.batch import (BatchRunner, ENGINES, EngineError, LaneSpec,
                         plan_cohorts, run_lanes, validate_engine)


class TestLaneSpec:
    def test_overrides_normalise_to_sorted_pairs(self):
        spec = LaneSpec("w", 10, 1, {"tb_rows": 64, "cache_kb": 4})
        assert spec.overrides == (("cache_kb", 4), ("tb_rows", 64))

    def test_override_order_does_not_split_cohorts(self):
        a = LaneSpec("w", 10, 1, (("x", 1), ("y", 2)))
        b = LaneSpec("w", 20, 1, (("y", 2), ("x", 1)))
        assert a.cohort_key() == b.cohort_key()

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError, match="positive budget"):
            LaneSpec("w", 0, 1)

    def test_label_mentions_everything(self):
        spec = LaneSpec("w", 10, 5, {"tb_rows": 64})
        assert spec.label() == "w n=10 seed=5 [tb_rows=64]"


class TestPlanCohorts:
    def test_budget_only_variants_fuse(self):
        lanes = [LaneSpec("w", 100, 1), LaneSpec("w", 300, 1),
                 LaneSpec("w", 200, 1)]
        cohorts = plan_cohorts(lanes)
        assert len(cohorts) == 1
        assert cohorts[0].targets == (100, 200, 300)
        assert cohorts[0].lanes_at(200) == (2,)

    def test_duplicate_lanes_share_one_capture(self):
        lanes = [LaneSpec("w", 100, 1), LaneSpec("w", 100, 1)]
        cohorts = plan_cohorts(lanes)
        assert len(cohorts) == 1
        assert cohorts[0].targets == (100,)
        assert cohorts[0].lanes_at(100) == (0, 1)

    def test_workload_seed_and_params_split(self):
        lanes = [LaneSpec("w", 100, 1),
                 LaneSpec("v", 100, 1),
                 LaneSpec("w", 100, 2),
                 LaneSpec("w", 100, 1, {"tb_rows": 64})]
        assert len(plan_cohorts(lanes)) == 4

    def test_machine_splits(self):
        lanes = [LaneSpec("w", 100, 1), LaneSpec("w", 200, 1),
                 LaneSpec("w", 100, 1, machine="uvax78032"),
                 LaneSpec("w", 200, 1, machine="uvax78032")]
        cohorts = plan_cohorts(lanes)
        assert [(c.machine, c.targets) for c in cohorts] == \
            [("vax780", (100, 200)), ("uvax78032", (100, 200))]

    def test_first_seen_order_preserved(self):
        lanes = [LaneSpec("b", 100, 1), LaneSpec("a", 100, 1),
                 LaneSpec("b", 200, 1)]
        assert [c.workload for c in plan_cohorts(lanes)] == ["b", "a"]


class TestValidateEngine:
    def test_none_means_scalar(self):
        assert validate_engine(None) == "scalar"

    @pytest.mark.parametrize("name", ENGINES)
    def test_known_names_pass_through(self, name):
        assert validate_engine(name) == name

    def test_unknown_name_lists_the_choices(self):
        with pytest.raises(EngineError) as exc:
            validate_engine("turbo")
        message = str(exc.value)
        assert "unknown engine 'turbo'" in message
        for name in ENGINES:
            assert name in message

    def test_engine_error_is_a_value_error(self):
        assert issubclass(EngineError, ValueError)

    def test_restricted_choices(self):
        with pytest.raises(EngineError, match="scalar, batch"):
            validate_engine("auto", choices=("scalar", "batch"))


class TestBatchRunnerValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one lane"):
            BatchRunner([])

    def test_unknown_workload_lists_the_valid_ones(self):
        with pytest.raises(ValueError, match="unknown workload 'nope'"):
            BatchRunner([LaneSpec("nope", 10, 1)])


class TestCohortLifetime:
    def test_each_machine_is_released_before_the_next_boot(
            self, monkeypatch):
        """One cohort's machine at a time: the previous one is garbage
        by the time the next cohort boots."""
        booted = []
        real_boot = BatchRunner._boot

        def boot(self, *args):
            gc.collect()
            assert [ref() for ref in booted] == [None] * len(booted)
            state = real_boot(self, *args)
            booted.append(weakref.ref(state.machine))
            return state

        monkeypatch.setattr(BatchRunner, "_boot", boot)
        lanes = [LaneSpec(name, budget, 1984)
                 for name in ("timesharing-research", "rte-commercial",
                              "rte-scientific")
                 for budget in (20, 40)]
        results = run_lanes(lanes)
        assert len(booted) == 3
        assert all(result.ok for result in results)
