"""Backend isolation: the 780 is untouched, the 78032 refuses its gaps."""

import pytest

from repro.cpu.faults import UnsupportedInstructionError
from repro.cpu.machine import VAX780
from repro.machines.registry import get_machine
from repro.ubench import runner, suite
from repro.ubench.kernels import emit

#: Kernels exercising microcode the 78032 does not carry.
SUBSET_KERNELS = ("cmpc3_8", "movp_4")


class TestSubsetRefusal:
    @pytest.mark.parametrize("name", SUBSET_KERNELS)
    def test_uvax_refuses_paper_only_instructions(self, name):
        kernel = suite.kernel_by_name(name)
        with pytest.raises(UnsupportedInstructionError) as err:
            runner.run_kernel(kernel, machine="uvax78032")
        message = str(err.value)
        assert "uvax78032" in message
        assert "not implemented" in message

    @pytest.mark.parametrize("name", SUBSET_KERNELS)
    def test_the_780_still_runs_them(self, name):
        kernel = suite.kernel_by_name(name)
        result = runner.run_kernel(kernel, machine="vax780")
        assert result["exact"] and result["reconciled"]

    def test_suite_selection_hides_unsupported_kernels(self):
        names_780 = {k.name for k in suite.select(machine="vax780")}
        names_uvax = {k.name for k in suite.select(machine="uvax78032")}
        assert set(SUBSET_KERNELS) <= names_780
        assert not set(SUBSET_KERNELS) & names_uvax
        assert names_uvax < names_780


class TestVax780BitIdentity:
    """The registry's vax780 is the pre-registry simulator, exactly."""

    def _cycles(self, machine, emitted):
        machine.boot(emitted.image)
        total = (emitted.setup_instructions + emitted.warmup_instructions
                 + emitted.measured_instructions)
        ran = machine.run(max_instructions=total)
        assert ran == total
        return machine.cycles

    @pytest.mark.parametrize("name", ["movl_literal", "cmpc3_8"])
    def test_registry_build_matches_direct_construction(self, name):
        emitted = emit(suite.kernel_by_name(name), warmup=1, copies=3)
        direct = self._cycles(VAX780(), emitted)
        via_registry = self._cycles(get_machine("vax780").build(),
                                    emitted)
        assert direct == via_registry
