"""Every setting acts: no machine or workload knob is read by nothing.

Each :class:`~repro.params.MachineParams` field and each
:class:`~repro.workloads.profiles.MixProfile` field but the labels
``name`` and ``description`` is set, one at a time, to another valid
value.  A small run's measurement or a generated program must then
differ from the stock one, or the run must be refused.  The walk goes
over the declared fields, so a field without an entry in the tables
below fails: a new setting comes with a value that shows it acts.
"""

from dataclasses import fields, replace

import pytest

from repro.cpu.faults import UnsupportedInstructionError
from repro.errors import ApiError
from repro.osim.executive import generate_programs
from repro.params import VAX780, MachineParams
from repro.workloads.profiles import TIMESHARING_RESEARCH, MixProfile
from tests.helpers import scalar_run

BUDGET = 2000
SEED = 1984

#: A paper workload paced so its scheduler acts inside the budget: two
#: processes, each blocking at every system service.
BASE = replace(TIMESHARING_RESEARCH, processes=2, syscall_density=0.2,
               blocking_syscall_fraction=1.0, clock_period_cycles=6000,
               io_block_cycles=6000)

#: MachineParams field -> another valid value.
MACHINE_VALUES = dict(
    memory_bytes=512 * 1024,               # too small for BASE: refused
    cache_bytes=4096, cache_ways=1, cache_block_bytes=16,
    read_miss_penalty=7, write_recycle=4, write_buffer_depth=2,
    ib_bytes=16, tb_entries=64, tb_ways=1, overlapped_decode=True,
    patched_families=(), ib_prefetch=False,
    exec_extra_cycles=(("SIMPLE", 1),),
    unsupported_families=("CALL",),        # BASE calls procedures
)

#: MixProfile field -> another valid value than BASE's.
PROFILE_VALUES = dict(
    move=20.0, arith=8.0, boolean=5.0, cmp_test=12.0, mova_push=2.0,
    field_ops=5.0, bit_branch=7.0, low_bit_test=4.0, float_ops=9.0,
    int_muldiv=2.0, char_ops=12.0, decimal_ops=2.0, queue_ops=1.0,
    probe_ops=1.0, case_branch=2.0, cond_branch=50.0, uncond_branch=5.0,
    jmp_branch=1.5, call_density=0.5, jsb_density=0.5,
    syscall_density=0.1, blocking_syscall_fraction=0.5, string_length=20,
    char_opcodes=("MOVC3",), decimal_digits=6, save_mask_bits=2,
    code_kb=32, data_kb=32, string_kb=16, processes=3,
    clock_period_cycles=9000, terminal_period_cycles=3000,
    quantum_ticks=4, io_block_cycles=12000,
)

LABELS = ("name", "description")


def outcome(profile=BASE, **overrides):
    """A run's cycles and histogram, or the name of its refusal."""
    try:
        measurement, _ = scalar_run(profile, BUDGET, SEED,
                                    overrides=tuple(overrides.items()))
    except (ApiError, UnsupportedInstructionError) as exc:
        return type(exc).__name__
    histogram = measurement.histogram
    return (measurement.cycles, histogram.nonstalled.tobytes(),
            histogram.stalled.tobytes())


def programs(profile) -> list:
    """Every process's generated program: its bytes and entry points."""
    generated = generate_programs(profile, SEED)
    return [(program.code, program.data_init, program.string_init,
             program.entry, program.subroutine_entries)
            for program in (generated[asid]
                            for asid in range(1, profile.processes + 1))]


@pytest.fixture(scope="module")
def stock():
    return outcome()


@pytest.mark.parametrize("field", MachineParams.field_names())
def test_machine_setting_changes_the_run(field, stock):
    value = MACHINE_VALUES[field]
    assert value != getattr(VAX780, field)
    assert outcome(**{field: value}) != stock, \
        f"{field}={value!r} measures the stock machine"


@pytest.mark.parametrize("field", [spec.name for spec in fields(MixProfile)
                                   if spec.name not in LABELS])
def test_profile_setting_changes_a_program_or_the_run(field, stock):
    value = PROFILE_VALUES[field]
    assert value != getattr(BASE, field)
    changed = replace(BASE, **{field: value})
    assert programs(changed) != programs(BASE) \
        or outcome(changed) != stock, \
        f"{field}={value!r} generates and measures the stock workload"
