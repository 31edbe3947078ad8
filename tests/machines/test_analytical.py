"""The analytical CPI tier: error bounds, kernel exactness, MACHINES.json."""

import json
import pathlib

import pytest

from repro.machines.analytical import (CALIBRATION_ANCHORS, ERROR_BOUND,
                                       EXTRAPOLATION_BOUND,
                                       TRANSIENT_BOUND, AnalyticalError,
                                       calibrate, check_estimate,
                                       kernel_mix)
from repro.machines.registry import machine_names
from repro.obs.metrics import scoped_registry
from repro.ubench import model, suite
from repro.workloads import engine
from repro.workloads.profiles import STANDARD_PROFILES

#: Scaled-down anchor envelope so the whole-workload checks run in
#: test time; the full-scale envelope backs the committed MACHINES.json.
MINI_ANCHORS = (1000, 3000, 5000, 7000, 9000)
#: Validation budgets inside the mini envelope, off every anchor.
MINI_TARGETS = (4000, 6000)

PROFILE_NAMES = [p.name for p in STANDARD_PROFILES]


class TestWorkloadEstimates:
    @pytest.mark.parametrize("machine", machine_names())
    @pytest.mark.parametrize("profile", PROFILE_NAMES)
    def test_within_recorded_bound_on_every_workload(self, profile,
                                                     machine):
        mix = calibrate(profile, machine, anchors=MINI_ANCHORS)
        for target in MINI_TARGETS:
            check = check_estimate(mix, target)
            assert check["ok"], (
                f"{profile} on {machine} at {target}: analytical "
                f"{check['analytical_cpi']} vs simulated "
                f"{check['simulated_cpi']} "
                f"(rel_err {check['rel_err']} > {ERROR_BOUND})")

    def test_estimate_carries_the_decomposition(self):
        mix = calibrate("rte-educational", "vax780",
                        anchors=MINI_ANCHORS)
        est = mix.estimate(MINI_TARGETS[0])
        assert est.cpi == pytest.approx(sum(est.row_totals.values()))
        assert est.cpi == pytest.approx(sum(est.column_totals.values()))
        assert est.cycles == pytest.approx(est.cpi * est.instructions)

    def test_uvax_has_no_stall_columns(self):
        # no IB, no miss penalty, no write recycle: every cycle is busy
        mix = calibrate("rte-educational", "uvax78032",
                        anchors=MINI_ANCHORS)
        est = mix.estimate(MINI_TARGETS[0])
        for column in ("RSTALL", "WSTALL", "IBSTALL"):
            assert est.column_totals.get(column, 0.0) == 0.0

    def test_calibration_rejects_degenerate_anchors(self):
        with pytest.raises(AnalyticalError):
            calibrate("rte-educational", anchors=(2000,))
        with pytest.raises(AnalyticalError):
            calibrate("rte-educational", anchors=(0, 2000))

    def test_estimate_rejects_a_nonpositive_budget(self):
        mix = calibrate("rte-educational", anchors=MINI_ANCHORS)
        with pytest.raises(AnalyticalError):
            mix.estimate(0)

    def test_unknown_profile_is_an_analytical_error(self):
        with pytest.raises(AnalyticalError):
            calibrate("no-such-workload", anchors=MINI_ANCHORS)

    @pytest.mark.parametrize("machine", machine_names())
    def test_anchors_run_as_one_cohort(self, machine):
        anchors = (400, 800, 1200)
        engine.clear_cache()
        with scoped_registry() as registry:
            fused = calibrate("queue-kernel", machine, anchors=anchors)
        assert registry.counter("batch.cohorts").value == 1
        assert registry.counter("batch.captures").value == len(anchors)
        # The same mix from independent per-anchor runs (memoised, so
        # the second calibration simulates nothing).
        engine.clear_cache()
        for budget in anchors:
            engine.run_workload("queue-kernel", budget, machine=machine)
        with scoped_registry() as registry:
            separate = calibrate("queue-kernel", machine, anchors=anchors)
        assert registry.counter("batch.cohorts").value == 0
        assert separate == fused

    def test_refused_workload_is_a_workload_error(self):
        from repro.workloads.registry import WorkloadError

        with pytest.raises(WorkloadError):
            calibrate("transaction-decimal", "uvax78032",
                      anchors=MINI_ANCHORS)


class TestColdStartSegment:
    """Budgets between the first two anchors carry the widened,
    documented transient bound — the divergence the refute campaign
    surfaced (rel err up to 0.117 at the segment midpoint, where the
    warmup transient makes the cycle curve concave)."""

    def test_first_segment_interior_is_flagged_transient(self):
        mix = calibrate("timesharing-cpu-dev", "vax780",
                        anchors=MINI_ANCHORS)
        est = mix.estimate(1500)
        assert est.transient and not est.extrapolated
        assert est.error_bound == TRANSIENT_BOUND

    def test_anchors_and_later_segments_keep_the_tight_bound(self):
        mix = calibrate("timesharing-cpu-dev", "vax780",
                        anchors=MINI_ANCHORS)
        for budget in (MINI_ANCHORS[0], MINI_ANCHORS[1],
                       MINI_TARGETS[0]):
            est = mix.estimate(budget)
            assert not est.transient, budget
            assert est.error_bound == ERROR_BOUND

    @pytest.mark.parametrize("machine", machine_names())
    def test_worst_observed_midpoints_hold_the_transient_bound(
            self, machine):
        # The exact points the refute campaign refuted under the old
        # uniform 5% bound (worst: timesharing-cpu-dev at 1500).
        mix = calibrate("timesharing-cpu-dev", machine,
                        anchors=MINI_ANCHORS)
        for budget in (1500, 2000, 2500):
            check = check_estimate(mix, budget)
            assert check["transient"]
            assert check["error_bound"] == TRANSIENT_BOUND
            assert check["ok"], (
                f"{machine} at {budget}: rel_err {check['rel_err']} > "
                f"{TRANSIENT_BOUND}")


class TestExtrapolationEdges:
    """Outside-envelope behavior is explicit: flagged, bounded, or
    refused — on each machine, at both edges."""

    @pytest.fixture(scope="class")
    def mixes(self):
        return {machine: calibrate("rte-educational", machine,
                                   anchors=MINI_ANCHORS)
                for machine in machine_names()}

    def test_window_widens_the_envelope_by_a_quarter(self, mixes):
        for mix in mixes.values():
            assert mix.envelope == (MINI_ANCHORS[0], MINI_ANCHORS[-1])
            assert mix.window == (750, 11250)

    @pytest.mark.parametrize("machine", machine_names())
    def test_below_envelope_extrapolates_within_the_wider_bound(
            self, mixes, machine):
        mix = mixes[machine]
        est = mix.estimate(mix.window[0])
        assert est.extrapolated
        assert est.error_bound == EXTRAPOLATION_BOUND
        check = check_estimate(mix, mix.window[0])
        assert check["extrapolated"]
        assert check["ok"], (
            f"{machine} low edge: rel_err {check['rel_err']} > "
            f"{EXTRAPOLATION_BOUND}")

    @pytest.mark.parametrize("machine", machine_names())
    def test_above_envelope_extrapolates_within_the_wider_bound(
            self, mixes, machine):
        mix = mixes[machine]
        est = mix.estimate(mix.window[1])
        assert est.extrapolated
        assert est.error_bound == EXTRAPOLATION_BOUND
        check = check_estimate(mix, mix.window[1])
        assert check["extrapolated"]
        assert check["ok"], (
            f"{machine} high edge: rel_err {check['rel_err']} > "
            f"{EXTRAPOLATION_BOUND}")

    @pytest.mark.parametrize("machine", machine_names())
    def test_beyond_the_window_refuses_both_ways(self, mixes, machine):
        mix = mixes[machine]
        with pytest.raises(AnalyticalError, match="honored window"):
            mix.estimate(mix.window[0] - 1)
        with pytest.raises(AnalyticalError, match="honored window"):
            mix.estimate(mix.window[1] + 1)

    def test_declining_extrapolation_raises_inside_the_window(self,
                                                              mixes):
        mix = mixes["vax780"]
        with pytest.raises(AnalyticalError, match="declined"):
            mix.estimate(mix.window[0], extrapolate=False)
        # Inside the envelope the flag is irrelevant.
        est = mix.estimate(MINI_TARGETS[0], extrapolate=False)
        assert not est.extrapolated
        assert est.error_bound == ERROR_BOUND

    def test_single_anchor_kernel_mixes_are_exempt(self):
        kernel = suite.select(smoke=True, machine="vax780")[0]
        mix = kernel_mix(kernel, "vax780")
        est = mix.estimate(40 * kernel.ipc)  # far past the one anchor
        assert not est.extrapolated
        assert est.error_bound == 0.0
        assert est.to_json()["error_bound"] == 0.0


class TestKernelExactness:
    """kernel_mix agrees with the ubench busy-cycle model exactly."""

    @pytest.mark.parametrize("machine", machine_names())
    def test_matches_predict_kernel_at_any_copy_count(self, machine):
        from repro.machines.registry import get_machine

        spec = get_machine(machine)
        kernels = suite.select(smoke=True, machine=machine)
        assert kernels, f"smoke suite empty on {machine}"
        for kernel in kernels:
            predicted = model.predict_kernel(kernel, spec.params)
            per_copy = sum(predicted[b] for b in model.BUCKETS)
            mix = kernel_mix(kernel, machine)
            for copies in (1, 7):
                est = mix.estimate(copies * kernel.ipc)
                assert est.cycles == pytest.approx(copies * per_copy), \
                    f"{kernel.name} on {machine} at {copies} copies"


class TestCommittedMachinesReport:
    """The committed MACHINES.json holds the acceptance numbers."""

    @pytest.fixture(scope="class")
    def doc(self):
        path = (pathlib.Path(__file__).resolve().parents[2]
                / "MACHINES.json")
        assert path.exists(), "MACHINES.json missing from the repo root"
        return json.loads(path.read_text())

    def test_schema_and_provenance(self, doc):
        from repro.report.machines import MACHINES_SCHEMA

        assert doc["schema"] == MACHINES_SCHEMA
        assert tuple(doc["anchors"]) == CALIBRATION_ANCHORS
        assert doc["error_bound"] == ERROR_BOUND
        assert set(doc["machines"]) == set(machine_names())

    def test_every_workload_is_inside_the_error_bound(self, doc):
        for name, machine in doc["machines"].items():
            assert set(machine["workloads"]) == set(PROFILE_NAMES)
            for wname, row in machine["workloads"].items():
                assert row["analytical_ok"], f"{name}/{wname}"
                assert row["analytical_error"] <= doc["error_bound"]
        assert doc["analytical_all_ok"]
        assert doc["analytical_worst_error"] <= doc["error_bound"]

    def test_the_780_composite_is_bit_identical_to_the_seed(self, doc):
        composite = doc["machines"]["vax780"]["composite"]
        assert composite["instructions"] == 300_000
        assert composite["cycles"] == 2_082_708

    def test_the_78032_lands_at_its_published_cpi(self, doc):
        composite = doc["machines"]["uvax78032"]["composite"]
        assert 5.0 <= composite["cpi"] <= 6.0

    def test_comparison_carries_cpi_ratios(self, doc):
        assert set(doc["comparison"]) == set(PROFILE_NAMES)
        for row in doc["comparison"].values():
            ratio = row["cpi_ratio_uvax78032"]
            assert ratio == pytest.approx(
                row["vax780"] / row["uvax78032"], rel=1e-4)
