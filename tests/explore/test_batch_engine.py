"""The batch engine behind run_sweep: same records, fewer machines."""

import pytest

from repro.explore import Axis, ResultStore, SweepSpec, run_sweep
from repro.explore import runner as runner_module

#: Budget-axis sweep: every point shares (workload, seed, params), so
#: the whole thing fuses onto one machine per workload.
FUSING = SweepSpec(
    "fusing", (Axis("instructions", (300, 600, 900)),),
    instructions=300, workloads=("timesharing-research",))

#: The same budget axis on the MicroVAX backend.
UVAX_FUSING = SweepSpec(
    "fusing-uvax", (Axis("instructions", (300, 600, 900)),),
    instructions=300, workloads=("timesharing-research",),
    machine="uvax78032")

#: Param-axis sweep: every point is its own cohort; auto stays scalar.
SPLITTING = SweepSpec(
    "splitting", (Axis("overlapped_decode", (False, True)),),
    instructions=300, workloads=("timesharing-research",))


class TestRecordEquality:
    def test_batch_records_equal_scalar_records(self, tmp_path):
        scalar = run_sweep(FUSING, jobs=1, engine="scalar")
        batch = run_sweep(FUSING, engine="batch")
        assert scalar.stats["engine"] == "scalar"
        assert batch.stats["engine"] == "batch"
        for a, b in zip(scalar.points, batch.points):
            assert a["label"] == b["label"]
            assert a["records"] == b["records"]
            assert a["composite"] == b["composite"]

    def test_batch_counts_simulations_and_fills_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        before = runner_module.SIMULATIONS
        cold = run_sweep(FUSING, store=store, engine="batch")
        assert cold.stats["simulated"] == 3
        assert runner_module.SIMULATIONS == before + 3
        assert len(store) == 3
        # A scalar rerun over the batch-filled store is all cache hits.
        warm = run_sweep(FUSING, store=store, jobs=1, engine="scalar")
        assert warm.stats["simulated"] == 0
        for a, b in zip(cold.points, warm.points):
            assert a["records"] == b["records"]


class TestAutoSelection:
    def test_auto_fuses_a_budget_axis(self):
        sweep = run_sweep(FUSING, engine="auto")
        assert sweep.stats["engine"] == "batch"

    def test_auto_fuses_a_budget_axis_on_the_microvax(self):
        scalar = run_sweep(UVAX_FUSING, jobs=1, engine="scalar")
        auto = run_sweep(UVAX_FUSING, engine="auto")
        assert auto.stats["engine"] == "batch"
        for a, b in zip(scalar.points, auto.points):
            assert a["records"] == b["records"]
            assert b["records"]["timesharing-research"]["machine"] \
                == "uvax78032"

    def test_auto_stays_scalar_when_nothing_fuses(self):
        sweep = run_sweep(SPLITTING, jobs=1, engine="auto")
        assert sweep.stats["engine"] == "scalar"

    def test_auto_on_a_warm_store_reports_scalar(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_sweep(FUSING, store=store, engine="batch")
        warm = run_sweep(FUSING, store=store, engine="auto")
        assert warm.stats["simulated"] == 0
        assert warm.stats["engine"] == "scalar"

    def test_unknown_engine_rejected_before_simulating(self):
        before = runner_module.SIMULATIONS
        with pytest.raises(ValueError, match="unknown engine 'warp'"):
            run_sweep(FUSING, engine="warp")
        assert runner_module.SIMULATIONS == before


class TestProgress:
    def test_progress_reports_fused_cohorts(self):
        lines = []
        run_sweep(FUSING, engine="batch", progress=lines.append)
        assert any("cohort" in line for line in lines)
        assert any("3/3 lanes" in line for line in lines)
