"""Workload mix profiles for the five measured environments.

The paper measured two live timesharing machines and three RTE-driven
synthetic environments (§2.2).  Each profile shapes the synthetic code
generator: relative weights of instruction categories, string/decimal
operand sizes, procedure-call density, system-service rate, and the
working-set sizes that drive cache/TB behaviour.

The *composite* of the five profiles is calibrated so that the summed
histograms land near Table 1's group frequencies (SIMPLE 83.6 %, FIELD
6.9 %, FLOAT 3.6 %, CALL/RET 3.2 %, SYSTEM 2.1 %, CHARACTER 0.4 %,
DECIMAL 0.03 %) — the downstream tables then follow from the simulated
machine rather than from further fitting.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MixProfile:
    """Generation parameters for one workload class."""

    name: str
    description: str

    # -- straight-line instruction category weights ----------------------
    move: float = 24.0
    arith: float = 10.0
    boolean: float = 4.0
    cmp_test: float = 16.0
    mova_push: float = 3.5
    field_ops: float = 3.6
    bit_branch: float = 9.0
    low_bit_test: float = 5.0
    float_ops: float = 5.5
    int_muldiv: float = 1.4
    char_ops: float = 8.5
    decimal_ops: float = 1.2
    queue_ops: float = 0.60
    probe_ops: float = 0.50
    case_branch: float = 3.2
    cond_branch: float = 68.0
    uncond_branch: float = 3.0
    jmp_branch: float = 0.8

    # -- structural parameters ---------------------------------------------
    #: probability a block ends with a procedure call site.
    call_density: float = 1.0
    #: probability a block contains a JSB/RSB subroutine pair site.
    jsb_density: float = 0.85
    #: CHMK system services per generated block.
    syscall_density: float = 0.035
    #: fraction of syscalls that block the process (QIO-style).
    blocking_syscall_fraction: float = 0.11
    #: mean character-string length in bytes (paper: 36-44).
    string_length: int = 44
    #: character-string mnemonics the generator may emit.  Subset-VAX
    #: machine backends restrict this (the 78032 implements only the
    #: MOVC forms in its base microcode); draws for a restricted
    #: mnemonic substitute an equivalent full-scan MOVC so the string
    #: workload volume is preserved.
    char_opcodes: tuple = ("MOVC3", "CMPC3", "LOCC", "SKPC", "MOVC5",
                           "SCANC")
    #: packed-decimal digit count (paper: ~101-cycle average).
    decimal_digits: int = 12
    #: registers pushed by PUSHR/POPR pairs and typical entry masks.
    save_mask_bits: int = 4

    # -- memory behaviour -----------------------------------------------------
    code_kb: int = 64          #: generated code footprint per process
    data_kb: int = 64          #: scalar/pointer data region
    string_kb: int = 8         #: string/decimal region
    processes: int = 8         #: simultaneously active processes

    # -- executive pacing ------------------------------------------------------
    clock_period_cycles: int = 46000
    terminal_period_cycles: int = 7500
    quantum_ticks: int = 1
    io_block_cycles: int = 12000


#: The research-group machine: editing, mail, program development (§2.2).
TIMESHARING_RESEARCH = MixProfile(
    name="timesharing-research",
    description="General timesharing, ~15 users: editing, program "
                "development, electronic mail",
    char_ops=10.0, field_ops=3.9, call_density=1.0,
    terminal_period_cycles=7500, processes=7,
)

#: The CPU-development machine: heavier load, circuit simulation (§2.2).
TIMESHARING_CPU_DEV = MixProfile(
    name="timesharing-cpu-dev",
    description="General timesharing plus circuit simulation and "
                "microcode development, ~30 users",
    float_ops=6.0, int_muldiv=2.0, arith=11.0, char_ops=5.0,
    terminal_period_cycles=7500, processes=8,
)

#: RTE educational environment: 40 users doing program development.
EDUCATIONAL = MixProfile(
    name="rte-educational",
    description="RTE, 40 simulated users: program development in several "
                "languages, file manipulation",
    field_ops=4.6, cond_branch=70.0, char_ops=10.0,
    call_density=1.0, syscall_density=0.038,
    terminal_period_cycles=7500, processes=8,
)

#: RTE scientific/engineering environment.
SCIENTIFIC = MixProfile(
    name="rte-scientific",
    description="RTE, 40 simulated users: scientific computation and "
                "program development",
    float_ops=13.0, int_muldiv=4.0, arith=12.0, char_ops=3.4,
    decimal_ops=0.30, call_density=1.0,
    terminal_period_cycles=7500, processes=8,
)

#: RTE commercial transaction-processing environment.
COMMERCIAL = MixProfile(
    name="rte-commercial",
    description="RTE, 32 simulated users: transactional database "
                "inquiries and updates",
    decimal_ops=3.5, char_ops=15.0, field_ops=4.4, float_ops=1.2,
    queue_ops=0.4, syscall_density=0.045,
    blocking_syscall_fraction=0.35,
    terminal_period_cycles=7000, processes=6,
)

#: The paper's five experiments, in its order.
STANDARD_PROFILES = (
    TIMESHARING_RESEARCH,
    TIMESHARING_CPU_DEV,
    EDUCATIONAL,
    SCIENTIFIC,
    COMMERCIAL,
)
