"""Sweep runner: baseline identity, warm-store resume, composition.

The two contracts the subsystem stands on:

* the default-params point is *bit-identical* (cycle counts, histogram
  totals and digest) to the standard composite's per-workload runs;
* a warm store performs zero new simulations.
"""

import hashlib

from repro.explore import SMOKE, run_sweep
from repro.explore import runner as runner_module
from repro.workloads import engine
from repro.workloads.profiles import STANDARD_PROFILES


def _digest(histogram) -> str:
    digest = hashlib.sha256()
    digest.update(histogram.nonstalled.tobytes())
    digest.update(histogram.stalled.tobytes())
    return digest.hexdigest()


class TestBaselineIdentity:
    def test_default_point_matches_run_workload_bit_for_bit(
            self, smoke_sweep):
        baseline = smoke_sweep.point()
        for profile in STANDARD_PROFILES:
            measurement = engine.run_workload(
                profile.name, SMOKE.instructions, SMOKE.seed)
            record = baseline["records"][profile.name]
            assert record["cycles"] == measurement.cycles
            assert record["histogram"]["sha256"] == \
                _digest(measurement.histogram)
            assert record["histogram"]["nonstalled_total"] == \
                sum(measurement.histogram.nonstalled)
            assert record["histogram"]["stalled_total"] == \
                sum(measurement.histogram.stalled)

    def test_baseline_composite_matches_standard_composite(
            self, smoke_sweep):
        composite = engine.standard_composite(
            instructions=SMOKE.instructions, seed=SMOKE.seed)
        baseline = smoke_sweep.point()["composite"]
        assert baseline["cycles"] == composite.cycles
        assert baseline["histogram"]["nonstalled_total"] == \
            sum(composite.histogram.nonstalled)
        assert baseline["histogram"]["stalled_total"] == \
            sum(composite.histogram.stalled)


class TestWarmStore:
    def test_cached_rerun_performs_zero_simulations(self, smoke_sweep,
                                                    smoke_store):
        before = runner_module.SIMULATIONS
        warm = run_sweep(SMOKE, store=smoke_store, jobs=1)
        assert runner_module.SIMULATIONS == before, \
            "warm store must not re-simulate"
        assert warm.stats["simulated"] == 0
        assert warm.stats["cached"] == warm.stats["tasks"]

    def test_warm_results_equal_cold_results(self, smoke_sweep,
                                             smoke_store):
        warm = run_sweep(SMOKE, store=smoke_store, jobs=1)
        for cold_entry, warm_entry in zip(smoke_sweep.points,
                                          warm.points):
            assert cold_entry["label"] == warm_entry["label"]
            assert cold_entry["records"] == warm_entry["records"]

    def test_no_resume_simulates_again(self, smoke_sweep, smoke_store,
                                       tmp_path):
        from repro.explore import SweepSpec, Axis
        tiny = SweepSpec("tiny", (Axis("overlapped_decode",
                                       (False, True)),),
                         instructions=300,
                         workloads=("timesharing-research",))
        cold = run_sweep(tiny, store=smoke_store, jobs=1)
        assert cold.stats["simulated"] == 2
        warm = run_sweep(tiny, store=smoke_store, jobs=1)
        assert warm.stats["simulated"] == 0
        forced = run_sweep(tiny, store=smoke_store, jobs=1,
                           resume=False)
        assert forced.stats["simulated"] == 2
        assert forced.points[0]["records"] == cold.points[0]["records"]


class TestComposition:
    def test_composite_is_sum_of_workload_records(self, smoke_sweep):
        for entry in smoke_sweep.points:
            records = entry["records"].values()
            composite = entry["composite"]
            assert composite["cycles"] == \
                sum(r["cycles"] for r in records)
            assert composite["instructions_measured"] == \
                sum(r["instructions_measured"] for r in records)
            total_cells = sum(c for r in records
                              for cols in r["cells"].values()
                              for c in cols.values())
            assert total_cells == sum(
                c for cols in composite["cells"].values()
                for c in cols.values())

    def test_point_lookup(self, smoke_sweep):
        assert smoke_sweep.point()["label"] == "baseline"
        entry = smoke_sweep.point(cache_bytes=4096)
        assert entry["point"].params().cache_bytes == 4096
        assert smoke_sweep.point(cache_bytes=999) is None

    def test_stats_shape(self, smoke_sweep):
        stats = smoke_sweep.stats
        assert stats["points"] == 3
        assert stats["workloads"] == 5
        assert stats["tasks"] == 15
        assert stats["simulated"] + stats["cached"] == 15
