"""The assumption registry, its probes, and the measurement shrinker."""

import pytest

from repro.refute import ASSUMPTIONS, ProbePoint, shrink_measurement
from repro.refute.assumptions import (mix_from_records,
                                      probe_capability,
                                      probe_conservation, record_cpi,
                                      simulate_point, violation)

POINT = ProbePoint(machine="vax780", instructions=300, seed=7,
                   workload="rte-educational")


class TestRegistry:
    def test_six_assumptions_with_unique_names(self):
        names = [a.name for a in ASSUMPTIONS]
        assert len(names) == 6
        assert len(set(names)) == 6

    def test_kinds_partition_the_probe_machinery(self):
        assert {a.kind for a in ASSUMPTIONS} == {
            "measurement", "analytical", "ubench", "differential"}

    def test_every_assumption_documents_its_bound(self):
        for assumption in ASSUMPTIONS:
            assert assumption.bound
            assert assumption.description


class TestViolationRecord:
    def test_numeric_delta_is_computed(self):
        item = violation("conservation-laws", POINT, "cycles", 105, 100)
        assert item["delta"] == 5
        assert item["label"] == POINT.label()

    def test_non_numeric_observations_carry_no_delta(self):
        item = violation("batch-scalar-identity", POINT, "error",
                         "boom", None)
        assert item["delta"] is None


class TestMeasurementProbes:
    @pytest.fixture(scope="class")
    def measurement(self):
        return simulate_point(POINT)

    def test_conservation_holds_on_a_clean_run(self, measurement):
        probe = probe_conservation(POINT, measurement)
        assert probe["ok"] and not probe["violations"]
        assert probe["checks"] > 0

    def test_capability_laws_use_the_effective_params(self, measurement):
        # The stock 780 has no overlapped decode, so the law applies
        # and holds; overriding the feature on waives it.
        probe = probe_capability(POINT, measurement)
        assert probe["ok"]
        assert probe["checks"] == 1  # overlapped-decodes only
        overridden = ProbePoint(
            machine="vax780", instructions=300, seed=7,
            workload="rte-educational",
            overrides=(("overlapped_decode", True),))
        waived = probe_capability(overridden,
                                  simulate_point(overridden))
        assert waived["checks"] == 0

    def test_uvax_feature_counters_stay_zero(self):
        point = ProbePoint(machine="uvax78032", instructions=300,
                           seed=7, workload="rte-educational")
        probe = probe_capability(point, simulate_point(point))
        assert probe["ok"]
        assert probe["checks"] == 3  # ib refs, ib stalls, decodes


class TestShrink:
    def test_planted_violation_shrinks_to_ten_or_fewer(self):
        point = ProbePoint(machine="vax780", instructions=64, seed=7,
                           workload="rte-educational")
        reproducer = shrink_measurement("conservation-laws", point,
                                        plant="stall-charge-dropped")
        assert reproducer["instructions"] <= 10
        assert reproducer["violations"]
        assert reproducer["kind"] == "budget-bisection"


class TestStoreBackedCalibration:
    def test_mix_from_records_matches_a_direct_calibration(self):
        from repro.explore.runner import run_sweep
        from repro.explore.space import Axis, SweepSpec
        from repro.machines.analytical import calibrate

        anchors = (200, 400, 600)
        spec = SweepSpec(name="refute-test", mode="ofat",
                         axes=(Axis("instructions", anchors),),
                         instructions=anchors[-1], seed=1984,
                         workloads=("rte-educational",),
                         machine="vax780")
        sweep = run_sweep(spec, store=None)
        records = {entry["point"].instructions:
                   entry["records"]["rte-educational"]
                   for entry in sweep.points}
        mix = mix_from_records("rte-educational", "vax780", anchors,
                               records)
        direct = calibrate("rte-educational", "vax780", anchors=anchors)
        assert mix.estimate(300).cpi == pytest.approx(
            direct.estimate(300).cpi)
        assert record_cpi(records[600]) == pytest.approx(
            direct.estimate(600).cpi, rel=0.05)
