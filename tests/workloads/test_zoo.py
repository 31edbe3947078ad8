"""Every zoo workload obeys the cycle-conservation laws on every
machine that accepts it — and the one that needs the decimal executors
is refused, not silently adapted, where they are missing.

The laws (:mod:`repro.validate.invariants`) are the repo's strongest
correctness net: a generator that emitted impossible instruction
sequences, leaked cycles, or double-counted stalls fails them
immediately.  Running each new generator through the full checker on
both backends is what makes the zoo trustworthy rather than merely
plausible.
"""

import pytest

from repro.machines.registry import MACHINES
from repro.validate import check_measurement
from repro.workloads import engine
from repro.workloads.registry import (WORKLOADS, WorkloadError,
                                      get_workload)
from repro.workloads.zoo import ZOO_PROFILES

ZOO_NAMES = tuple(p.name for p in ZOO_PROFILES)

#: (workload, machine) pairs the registry claims are runnable.
SUPPORTED = [(name, machine)
             for name in ZOO_NAMES
             for machine in MACHINES
             if get_workload(name).supported_on(machine)]


class TestZooRoster:
    def test_at_least_seven_new_generators(self):
        assert len(ZOO_PROFILES) >= 7

    def test_all_registered(self):
        for name in ZOO_NAMES:
            assert name in WORKLOADS

    def test_distinct_names_and_no_paper_collisions(self):
        assert len(set(ZOO_NAMES)) == len(ZOO_NAMES)
        from repro.workloads.profiles import STANDARD_PROFILES

        assert not set(ZOO_NAMES) & {p.name for p in STANDARD_PROFILES}


class TestConservationLaws:
    @pytest.mark.parametrize("name,machine", SUPPORTED,
                             ids=[f"{n}-{m}" for n, m in SUPPORTED])
    def test_all_laws_hold(self, name, machine):
        measurement = engine.run_workload(name, 2000, seed=1984,
                                          machine=machine)
        report = check_measurement(measurement, machine=machine)
        report.raise_on_failure()
        assert len(report.checks) >= 24

    def test_every_zoo_workload_runs_on_the_default_machine(self):
        supported_on_780 = {name for name, machine in SUPPORTED
                            if machine == "vax780"}
        assert supported_on_780 == set(ZOO_NAMES)


class TestSubsetRefusal:
    def test_transaction_decimal_refused_cleanly_on_uvax(self):
        with pytest.raises(WorkloadError) as err:
            engine.run_workload("transaction-decimal", 2000,
                                machine="uvax78032")
        message = str(err.value)
        assert "transaction-decimal" in message
        assert "uvax78032" in message

    def test_refusal_happens_before_any_simulation(self):
        from repro.obs import metrics

        before = metrics.counter("workloads.runs").value
        with pytest.raises(WorkloadError):
            engine.run_workload("transaction-decimal", 2000,
                                machine="uvax78032")
        assert metrics.counter("workloads.runs").value == before
