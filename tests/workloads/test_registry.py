"""The workload registry: the front door every layer resolves through.

The contracts the rest of the stack leans on: the paper's five come
first and resolve to the *same* profile objects as
``STANDARD_PROFILES`` (so registry resolution is bit-identical to
direct construction), the zoo brings the count to at least twelve,
unknown names fail with the full roster, suffix matching is
deterministic and paper-first, and registration rules keep generator
workloads permanent while traces come and go.
"""

import pytest

from repro.workloads import engine
from repro.workloads.profiles import STANDARD_PROFILES
from repro.workloads.registry import (DEFAULT_WORKLOAD, WORKLOADS,
                                      WorkloadError, WorkloadSpec,
                                      find_workload, get_workload,
                                      paper_workload_names,
                                      paper_workloads, register,
                                      unregister, validate_workload,
                                      workload_names)


class TestRoster:
    def test_at_least_twelve_workloads(self):
        assert len(WORKLOADS) >= 12

    def test_paper_five_come_first_in_order(self):
        names = workload_names()
        assert names[:5] == tuple(p.name for p in STANDARD_PROFILES)
        assert paper_workload_names() == names[:5]

    def test_paper_specs_hold_the_standard_profile_objects(self):
        for spec, profile in zip(paper_workloads(), STANDARD_PROFILES):
            assert spec.profile is profile
            assert spec.paper and spec.kind == "paper"

    def test_default_is_the_papers_first_workload(self):
        assert DEFAULT_WORKLOAD == STANDARD_PROFILES[0].name
        assert validate_workload(None) == DEFAULT_WORKLOAD

    def test_zoo_specs_are_generator_kind(self):
        zoo = [spec for spec in WORKLOADS.values() if not spec.paper]
        assert len(zoo) >= 7
        assert all(spec.kind == "generator" for spec in zoo)


class TestResolution:
    def test_get_workload_by_exact_name(self):
        for name in workload_names():
            assert get_workload(name).name == name

    def test_unknown_name_lists_the_roster(self):
        with pytest.raises(WorkloadError) as err:
            get_workload("nope")
        message = str(err.value)
        for name in workload_names():
            assert name in message

    def test_find_workload_suffix_match(self):
        assert find_workload("research").name == "timesharing-research"
        assert find_workload("educational").name == "rte-educational"

    def test_find_workload_passes_specs_through(self):
        spec = get_workload("rte-commercial")
        assert find_workload(spec) is spec

    def test_registry_resolution_is_bit_identical_to_direct(self):
        """The acceptance pin: running by name equals running the
        profile object directly, cycle for cycle."""
        from repro.analysis.measurement import Measurement
        from repro.cpu.machine import VAX780
        from repro.osim.executive import Executive

        for profile in STANDARD_PROFILES[:2]:
            machine = VAX780()
            executive = Executive(machine, profile, seed=1984)
            executive.boot()
            executive.run(1500)
            direct = Measurement.capture(profile.name, machine)
            via_registry = engine.run_workload(profile.name, 1500,
                                               seed=1984)
            assert via_registry.cycles == direct.cycles
            assert via_registry.histogram.nonstalled == \
                direct.histogram.nonstalled
            assert via_registry.histogram.stalled == \
                direct.histogram.stalled


class TestMachineSupport:
    def test_paper_five_run_everywhere(self):
        from repro.machines.registry import MACHINES

        for spec in paper_workloads():
            for machine in MACHINES:
                assert spec.supported_on(machine)

    def test_transaction_decimal_refused_on_the_subset_machine(self):
        spec = get_workload("transaction-decimal")
        assert not spec.supported_on("uvax78032")
        with pytest.raises(WorkloadError) as err:
            spec.check_machine("uvax78032")
        assert "ADDP" in str(err.value)

    def test_refused_families_name_the_gap(self):
        spec = get_workload("transaction-decimal")
        refused = spec.refused_families("uvax78032")
        assert set(refused) <= set(spec.requires_families)
        assert refused


class TestRegistrationRules:
    def test_duplicate_name_needs_replace(self):
        spec = get_workload("cache-thrash")
        clone = WorkloadSpec(name=spec.name, description="dup",
                             generator=spec.generator,
                             profile=spec.profile)
        with pytest.raises(WorkloadError):
            register(clone)

    def test_generator_workloads_are_permanent(self):
        with pytest.raises(WorkloadError):
            unregister("cache-thrash")
        assert "cache-thrash" in WORKLOADS

    def test_unregister_unknown_name_errors(self):
        with pytest.raises(WorkloadError):
            unregister("never-registered")
