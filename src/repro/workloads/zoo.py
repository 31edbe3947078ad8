"""The workload zoo: generator classes beyond the paper's five.

The paper's stated limitation (§2.2) is that it characterizes only
five timesharing environments.  Each profile here is a new *generator
class* for the same profile-driven synthetic code generator
(:mod:`repro.workloads.codegen`) — no new emission code, just a point
in mix/structure/memory/pacing space the 1984 study could not
measure.  All of them obey the generator's geometry (``data_kb`` is
capped by the fixed 64 KB scalar region between ``data_base`` and
``string_base``; ``code_kb`` by the 124 KB code window), and every one
must pass the full conservation-law battery on the stock 780
(``tests/workloads/test_zoo.py`` enforces this per generator, per
machine).

Profiles that lean on packed decimal declare the dependency in the
registry (``requires_families``) so that subset machines refuse them
*cleanly* instead of silently measuring a decimal-free imitation; the
paper's five keep the registry's silent-adaptation behaviour for
backward compatibility.
"""

from __future__ import annotations

from repro.workloads.profiles import MixProfile

#: Compiler/linker batch: dense integer compare-and-branch work, deep
#: call chains, case dispatch over parser states, near-zero float.
COMPILER_BUILD = MixProfile(
    name="compiler-build",
    description="Compiler and linker batch: parse tables, symbol "
                "lookup, deep call chains, case dispatch",
    move=26.0, arith=12.0, boolean=6.0, cmp_test=20.0, mova_push=4.5,
    field_ops=5.5, bit_branch=11.0, low_bit_test=7.0, float_ops=0.4,
    int_muldiv=1.0, char_ops=6.0, decimal_ops=0.0, queue_ops=0.3,
    probe_ops=0.4, case_branch=6.5, cond_branch=74.0, jmp_branch=1.2,
    call_density=1.0, jsb_density=1.0, syscall_density=0.02,
    blocking_syscall_fraction=0.08, string_length=24,
    code_kb=96, processes=4, quantum_ticks=2,
)

#: Transaction processing, decimal-heavy: COBOL-style packed-decimal
#: arithmetic over journal records.  Leans on the MOVP/ADDP/CVT*P
#: executor families, so subset machines must refuse it (declared via
#: ``requires_families`` in the registry) rather than adapt it away.
TRANSACTION_DECIMAL = MixProfile(
    name="transaction-decimal",
    description="Decimal-heavy transaction processing: packed-decimal "
                "ledger arithmetic, journalled updates, record moves",
    move=22.0, arith=6.0, cmp_test=14.0, field_ops=4.0, float_ops=0.2,
    int_muldiv=0.8, char_ops=18.0, decimal_ops=8.0, queue_ops=1.2,
    probe_ops=1.0, case_branch=3.6, cond_branch=60.0,
    decimal_digits=24, string_length=64,
    syscall_density=0.06, blocking_syscall_fraction=0.45,
    terminal_period_cycles=6000, io_block_cycles=9000, processes=6,
)

#: Interrupt storm: a machine saturated with device interrupts and
#: blocking I/O — terminal input every ~900 cycles, short disk waits,
#: constant rescheduling.  Exercises the SYSTEM rows and context-switch
#: microcode far beyond the paper's environments.
INTERRUPT_STORM = MixProfile(
    name="interrupt-storm",
    description="Interrupt-storm I/O: saturating terminal traffic, "
                "short blocking waits, constant rescheduling",
    move=25.0, arith=8.0, cmp_test=15.0, char_ops=7.0, float_ops=1.0,
    decimal_ops=0.0, queue_ops=1.5, probe_ops=1.2,
    syscall_density=0.10, blocking_syscall_fraction=0.60,
    clock_period_cycles=9000, terminal_period_cycles=900,
    io_block_cycles=2500, quantum_ticks=1, processes=10,
)

#: Pathological TB thrasher: many large-footprint processes switched on
#: every quantum tick, hopping across a 96 KB code image — the working
#: set never fits the translation buffer.
TB_THRASH = MixProfile(
    name="tb-thrash",
    description="Pathological TB thrasher: a dozen large processes, "
                "rapid switching, sparse touches over wide images",
    move=28.0, arith=9.0, cmp_test=16.0, char_ops=5.0, float_ops=1.5,
    decimal_ops=0.0, case_branch=5.0, jmp_branch=3.0,
    call_density=1.0, jsb_density=0.6, syscall_density=0.03,
    code_kb=96, string_kb=32, processes=12,
    clock_period_cycles=12000, quantum_ticks=1,
)

#: Pathological cache thrasher: streaming string moves long enough to
#: sweep the 8 KB cache over a wide string region, so the cached lines
#: are evicted before reuse.
CACHE_THRASH = MixProfile(
    name="cache-thrash",
    description="Pathological cache thrasher: long streaming string "
                "moves and scattered scalar traffic defeating reuse",
    move=30.0, arith=7.0, cmp_test=18.0, char_ops=22.0, float_ops=0.6,
    decimal_ops=0.0, bit_branch=10.0, string_length=120,
    code_kb=80, string_kb=24, processes=9,
)

#: Batch scientific vectors: a floating-point and multiply/divide-heavy
#: mix, little I/O — closer to a dedicated array machine than to any
#: timesharing load.
VECTOR_SCIENTIFIC = MixProfile(
    name="vector-scientific",
    description="Batch vector numerics: long floating-point inner "
                "loops, heavy multiply/divide, minimal I/O",
    move=20.0, arith=16.0, cmp_test=12.0, float_ops=25.0,
    int_muldiv=8.0, char_ops=0.8, decimal_ops=0.0, field_ops=2.0,
    call_density=0.5, jsb_density=0.4,
    syscall_density=0.010, blocking_syscall_fraction=0.05,
    terminal_period_cycles=40000, processes=3, quantum_ticks=4,
)

#: Interactive editing: short bursts of string and move work between
#: fast terminal interactions, many small blocked waits.
EDITOR_INTERACTIVE = MixProfile(
    name="editor-interactive",
    description="Interactive editing: bursty string scans and moves "
                "driven by fast terminal traffic",
    move=30.0, arith=6.0, cmp_test=20.0, char_ops=16.0, float_ops=0.2,
    decimal_ops=0.0, low_bit_test=7.0,
    string_length=28, syscall_density=0.07,
    blocking_syscall_fraction=0.50,
    terminal_period_cycles=2500, io_block_cycles=5000, processes=10,
)

#: Kernel-service stress: queue and probe instructions plus a system
#: service rate triple the paper's — most of its time below the user
#: boundary.
QUEUE_KERNEL = MixProfile(
    name="queue-kernel",
    description="Kernel-service stress: queue/probe instructions and "
                "a system-service rate far past the measured loads",
    move=24.0, arith=9.0, cmp_test=15.0, mova_push=6.0, char_ops=4.0,
    float_ops=1.0, decimal_ops=0.0, queue_ops=3.0, probe_ops=2.5,
    syscall_density=0.12, blocking_syscall_fraction=0.25,
    save_mask_bits=6, processes=8,
)

#: The zoo, in registration order (after the paper's five).
ZOO_PROFILES = (
    COMPILER_BUILD,
    TRANSACTION_DECIMAL,
    INTERRUPT_STORM,
    TB_THRASH,
    CACHE_THRASH,
    VECTOR_SCIENTIFIC,
    EDITOR_INTERACTIVE,
    QUEUE_KERNEL,
)
