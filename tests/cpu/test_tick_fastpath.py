"""Fast-path vs reference-implementation equivalence for the EBOX.

The optimised EBOX fast-forwards provably idle fill-engine windows,
batches IB-stall charging, and inlines the common-case D-stream
reference sequencing.  :class:`repro.validate.differential.ReferenceEBox`
re-creates the original per-cycle implementations (``tick_reference`` /
``ib_take_reference`` plus straightforward read/write through the memory
subsystem), and the tests run whole workloads under both engines, each
machine built through the registry on every registered backend: every
observable — histogram count sets, cycle totals, tracer and memory
statistics — must be bit-identical.
"""

import pytest

from repro.analysis import Measurement
from repro.machines.registry import get_machine, machine_names
from repro.osim.executive import Executive
from repro.validate.differential import ReferenceEBox
from repro.workloads.profiles import MixProfile, STANDARD_PROFILES

INSTRUCTIONS = 2500
SEED = 1984


def _run(profile, reference=False, machine="vax780",
         instructions=INSTRUCTIONS):
    spec = get_machine(machine)
    built = spec.build(ebox=ReferenceEBox if reference else None)
    assert isinstance(built.ebox, ReferenceEBox) == reference
    executive = Executive(built, spec.adapt_profile(profile), seed=SEED)
    executive.boot()
    executive.run(instructions, cycle_limit=instructions * 1000)
    return Measurement.capture(profile.name, built)


def _fingerprint(measurement):
    h = measurement.histogram
    return (
        measurement.cycles,
        list(h.nonstalled),
        list(h.stalled),
        {name: getattr(measurement.tracer, name)
         for name in measurement.tracer._SCALARS},
        measurement.tracer.group_counts,
    )


@pytest.mark.parametrize("machine", machine_names())
@pytest.mark.parametrize("profile", STANDARD_PROFILES[:3],
                         ids=lambda p: p.name)
def test_fastpath_matches_reference_on_standard_workloads(profile,
                                                          machine):
    fast = _fingerprint(_run(profile, machine=machine))
    reference = _fingerprint(_run(profile, reference=True,
                                  machine=machine))
    assert fast[0] == reference[0], "cycle totals diverged"
    assert fast == reference


def test_fastpath_matches_reference_under_memory_pressure():
    """An interrupt/stall-heavy profile exercises the batched paths."""
    profile = MixProfile(name="fastpath-pressure",
                         description="frequent interrupts, string-heavy",
                         char_ops=20.0, syscall_density=0.06,
                         terminal_period_cycles=3000)
    fast = _fingerprint(_run(profile))
    reference = _fingerprint(_run(profile, reference=True))
    assert fast == reference
