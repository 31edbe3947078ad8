"""The machine registry: names, defaults, validation, facade."""

import pytest

from repro import api
from repro.machines.registry import (DEFAULT_MACHINE, MACHINES,
                                     MachineError, get_machine,
                                     machine_names, validate_machine)
from repro.params import VAX780 as VAX780_PARAMS


class TestRegistry:
    def test_both_machines_registered(self):
        assert machine_names() == ("vax780", "uvax78032")

    def test_default_is_the_papers_machine(self):
        assert DEFAULT_MACHINE == "vax780"
        assert validate_machine(None) == "vax780"

    def test_unknown_machine_lists_the_registry(self):
        with pytest.raises(MachineError) as err:
            validate_machine("pdp11")
        assert "pdp11" in str(err.value)
        for name in machine_names():
            assert name in str(err.value)

    def test_vax780_spec_is_the_stock_params(self):
        spec = get_machine("vax780")
        assert spec.params is VAX780_PARAMS
        assert not spec.subset

    def test_uvax_is_a_subset_machine(self):
        spec = get_machine("uvax78032")
        assert spec.subset
        unsupported = set(spec.params.unsupported_families)
        # all packed decimal, every string family except the MOVCs
        assert "MOVP" in unsupported and "CMPC" in unsupported
        assert "MOVC" not in unsupported

    def test_uvax_profile_adaptation_strips_the_subset(self):
        from repro.workloads.profiles import STANDARD_PROFILES

        spec = get_machine("uvax78032")
        for profile in STANDARD_PROFILES:
            adapted = spec.adapt_profile(profile)
            assert adapted.decimal_ops == 0.0
            assert set(adapted.char_opcodes) <= {"MOVC3", "MOVC5"}

    def test_vax780_profile_adaptation_is_identity(self):
        from repro.workloads.profiles import STANDARD_PROFILES

        spec = get_machine("vax780")
        for profile in STANDARD_PROFILES:
            assert spec.adapt_profile(profile) is profile

    def test_built_machines_carry_their_registry_name(self):
        for name in machine_names():
            assert get_machine(name).build().name == name


class TestFacade:
    def test_machines_facade_lists_the_registry(self):
        result = api.machines()
        names = [m["name"] for m in result.machines]
        assert names == list(machine_names())
        by_name = {m["name"]: m for m in result.machines}
        assert by_name["vax780"]["default"]
        assert not by_name["uvax78032"]["default"]
        assert by_name["uvax78032"]["subset"]
        assert by_name["vax780"]["cpi_nominal"] == 10.6

    def test_unknown_machine_rejected_before_simulation(self):
        for call in (
                lambda: api.characterize(machine="pdp11", smoke=True),
                lambda: api.run_workload("rte-educational",
                                         machine="pdp11", smoke=True),
                lambda: api.ubench(machine="pdp11", smoke=True),
                lambda: api.validate(machine="pdp11", smoke=True),
        ):
            with pytest.raises(api.ApiError) as err:
                call()
            assert "pdp11" in str(err.value)
            assert "vax780" in str(err.value)

    def test_fuzzing_runs_on_a_subset_machine(self):
        result = api.validate(machine="uvax78032", fuzz_cases=2,
                              smoke=True)
        assert result.ok and result.machine == "uvax78032"
        assert len(result.fuzz_results) == 2
        assert all(r["label"].endswith(" on uvax78032")
                   for r in result.fuzz_results)
