"""The workload sweep axis: population selection, eager validation,
and the store's per-workload inventory.

``workload=a,b`` is not a per-point parameter override — it replaces
the sweep's workload population.  The contracts: suffixes resolve to
full registered names before anything simulates, unknown and
trace-backed workloads fail eagerly (a typo must not surface an hour
into a sweep), an unsupported (machine, workload) pair fails before
the first shard, and stored records bucket by workload in
``stats()``.
"""

import pytest

from repro import api
from repro.explore import (Axis, ResultStore, SpaceError, SweepSpec,
                           parse_axis, run_sweep, valid_axes)
from repro.workloads.registry import WorkloadError, paper_workload_names

PAPER = paper_workload_names()


class TestAxisParsing:
    def test_workload_is_a_valid_axis_name(self):
        assert "workload" in valid_axes()

    def test_suffixes_resolve_to_full_names(self):
        axis = parse_axis("workload=research,compiler-build")
        assert axis.values == ("timesharing-research",
                               "compiler-build")

    def test_unknown_workload_fails_at_parse_time(self):
        with pytest.raises(SpaceError) as err:
            parse_axis("workload=research,no-such-load")
        assert "no-such-load" in str(err.value)


class TestSpecValidation:
    def test_workload_axis_cannot_be_a_point_axis(self):
        with pytest.raises(SpaceError):
            SweepSpec(name="bad",
                      axes=(Axis("workload", ("rte-commercial",)),),
                      instructions=400)

    def test_unknown_population_workload_is_rejected(self):
        with pytest.raises(SpaceError) as err:
            SweepSpec(name="bad",
                      axes=(Axis("instructions", (400,)),),
                      instructions=400,
                      workloads=("no-such-load",))
        assert "no-such-load" in str(err.value)

    def test_empty_population_is_rejected(self):
        with pytest.raises(SpaceError):
            SweepSpec(name="bad",
                      axes=(Axis("instructions", (400,)),),
                      instructions=400, workloads=())

    def test_facade_pops_the_axis_into_the_population(self):
        spec = api.explore_spec(
            spec="smoke", axes=("workload=compiler-build,research",))
        assert spec.workloads == ("compiler-build",
                                  "timesharing-research")

    def test_unsupported_pair_fails_before_any_shard(self):
        with pytest.raises(WorkloadError) as err:
            SweepSpec(
                name="refused",
                axes=(Axis("machine", ("uvax78032",)),),
                instructions=400,
                workloads=("transaction-decimal",))
        assert "transaction-decimal" in str(err.value)


class TestZooSweep:
    def test_sweeping_a_zoo_workload_end_to_end(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = SweepSpec(
            name="zoo-axis",
            axes=(Axis("instructions", (300, 600)),),
            mode="ofat", instructions=600, seed=7,
            workloads=("compiler-build",))
        result = run_sweep(spec, store=store, jobs=1)
        assert result.stats["simulated"] > 0
        for entry in result.points:
            assert set(entry["records"]) == {"compiler-build"}
        buckets = store.stats()["workloads"]
        assert buckets.get("compiler-build", 0) > 0
