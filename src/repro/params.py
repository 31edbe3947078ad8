"""Machine-wide configuration for the simulated VAX-11/780.

The defaults reproduce the 11/780 as described by the paper (§2.1) and its
companion cache/TB studies: an 8 KB two-way write-through cache with
8-byte blocks, a one-longword (4-byte) write buffer that recycles in 6
cycles, a 6-cycle read-miss penalty in the simplest case, an 8-byte
instruction buffer, and a 128-entry two-way translation buffer split
into system and process halves.

Every field changes the simulated machine.  Facts of the 11/780 that no
field varies are stated once where they are used: the 200 ns cycle
(:data:`repro.report.paper.CYCLE_NS`), the 512-byte page
(:data:`repro.vm.address.PAGE_BYTES`), the IB's longword I-stream fill
(:mod:`repro.cpu.ibuffer`), and the microcode listing, which is
allocated once per process (:func:`repro.cpu.executors.listing`).

Benchmarks that ablate an implementation choice (cache size, TB size,
write-buffer depth...) construct a modified :class:`MachineParams` instead
of monkey-patching the machine.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace


def _is_pow2(n: int) -> bool:
    return n > 0 and not (n & (n - 1))


@dataclass(frozen=True)
class MachineParams:
    """Implementation parameters of the simulated 11/780.

    Construction validates the geometry: sizes must be positive, the
    cache and TB must divide evenly into their ways and blocks, and the
    derived set counts must be powers of two (both structures index by
    address bits, not modulo).  Inconsistent configurations raise
    :class:`ValueError` with the offending numbers instead of silently
    mis-deriving ``cache_sets``/``tb_sets_per_half``.
    """

    #: Physical memory size in bytes (the paper's machines had 8 MB).
    memory_bytes: int = 8 * 1024 * 1024

    # -- data cache ------------------------------------------------------
    cache_bytes: int = 8 * 1024
    cache_ways: int = 2
    cache_block_bytes: int = 8
    #: Cycles an EBOX read stalls on a cache miss with an idle SBI (§4.3).
    read_miss_penalty: int = 6

    # -- write path ------------------------------------------------------
    #: Write-buffer recycle time: a write stalls if issued fewer than this
    #: many cycles after the previous write (§2.1, §4.3).
    write_recycle: int = 6
    #: Number of outstanding buffered writes (the 780 has one longword).
    write_buffer_depth: int = 1

    # -- instruction buffer ----------------------------------------------
    ib_bytes: int = 8

    # -- translation buffer ----------------------------------------------
    tb_entries: int = 128
    tb_ways: int = 2

    # -- decode overlap (§5: "saving the non-overlapped I-Decode cycle
    # -- could save one cycle on each non-PC-changing instruction.  (The
    # -- later VAX model 11/750 did exactly this.)") ------------------------
    #: When True, the machine models the 11/750-style improvement: the
    #: decode cycle overlaps the previous instruction's execution except
    #: after a PC change (which restarts the pipeline).
    overlapped_decode: bool = False

    # -- microcode patches -------------------------------------------------
    #: Microcode families carrying a field-installed patch.  The 11/780
    #: takes one abort cycle per executed patched microword (§5's Aborts
    #: row: "one for each microcode trap and one for each microcode
    #: patch"); the measured machines ran patched microcode.
    patched_families: tuple = ("ADDSUB", "CALL", "CHM", "MOVC")

    # -- timing policy (machine backends) ---------------------------------
    #: When False the machine has no autonomous I-Fetch/IB engine (the
    #: MicroVAX-class single-chip implementations fetch I-stream bytes as
    #: part of decode): decoded bytes cost nothing per byte and the fetch
    #: time is folded into the per-group execute cycles instead
    #: (``exec_extra_cycles``).  The 11/780 keeps the prefetching IB.
    ib_prefetch: bool = True

    #: Extra execute-flow compute cycles per instruction, by opcode group:
    #: ``((group_name, cycles), ...)`` with names from
    #: :class:`repro.arch.groups.OpcodeGroup` members.  This is the
    #: per-category base-cycle table of a slower microcoded
    #: implementation, layered on the 780 flows rather than forking them.
    exec_extra_cycles: tuple = ()

    #: Executor families the machine does not implement (subset-VAX
    #: backends).  Executing one raises
    #: :class:`repro.cpu.faults.UnsupportedInstructionError`.
    unsupported_families: tuple = ()

    def __post_init__(self) -> None:
        positive = ("memory_bytes", "cache_bytes", "cache_ways",
                    "cache_block_bytes", "write_buffer_depth", "ib_bytes",
                    "tb_entries", "tb_ways")
        for name in positive:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                raise ValueError(
                    f"{name} must be a positive integer, got {value!r}")
        for name in ("read_miss_penalty", "write_recycle"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 0:
                raise ValueError(
                    f"{name} must be a non-negative integer, got {value!r}")
        row = self.cache_ways * self.cache_block_bytes
        if self.cache_bytes % row:
            raise ValueError(
                f"cache_bytes={self.cache_bytes} is not divisible by "
                f"cache_ways*cache_block_bytes={row}")
        if not _is_pow2(self.cache_bytes // row):
            raise ValueError(
                f"cache geometry {self.cache_bytes}B/{self.cache_ways}-way/"
                f"{self.cache_block_bytes}B-block implies "
                f"{self.cache_bytes // row} sets, which is not a power "
                "of two (the cache indexes by address bits)")
        if self.tb_entries % (2 * self.tb_ways):
            raise ValueError(
                f"tb_entries={self.tb_entries} is not divisible by "
                f"2*tb_ways={2 * self.tb_ways} (the TB is split into "
                "system and process halves)")
        if not _is_pow2(self.tb_entries // (2 * self.tb_ways)):
            raise ValueError(
                f"tb_entries={self.tb_entries}, tb_ways={self.tb_ways} "
                f"imply {self.tb_entries // (2 * self.tb_ways)} sets per "
                "half, which is not a power of two")
        if not isinstance(self.ib_prefetch, bool):
            raise ValueError(
                f"ib_prefetch must be a bool, got {self.ib_prefetch!r}")
        for entry in self.exec_extra_cycles:
            ok = (isinstance(entry, tuple) and len(entry) == 2
                  and isinstance(entry[0], str)
                  and isinstance(entry[1], int)
                  and not isinstance(entry[1], bool) and entry[1] >= 0)
            if not ok:
                raise ValueError(
                    "exec_extra_cycles entries must be (group_name, "
                    f"non-negative cycles) pairs, got {entry!r}")
        seen = [name for name, _ in self.exec_extra_cycles]
        if len(seen) != len(set(seen)):
            raise ValueError(
                f"exec_extra_cycles names duplicate a group: {seen}")
        for family in self.unsupported_families:
            if not isinstance(family, str):
                raise ValueError(
                    "unsupported_families entries must be family name "
                    f"strings, got {family!r}")

    def with_overrides(self, **kwargs) -> "MachineParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    @classmethod
    def field_names(cls) -> tuple:
        """All parameter field names, in declaration order."""
        return tuple(f.name for f in fields(cls))

    @property
    def cache_sets(self) -> int:
        """Number of cache sets implied by size, ways and block size."""
        return self.cache_bytes // (self.cache_block_bytes * self.cache_ways)

    @property
    def tb_sets_per_half(self) -> int:
        """TB sets in each of the system/process halves."""
        return self.tb_entries // (2 * self.tb_ways)


#: The stock 11/780 configuration used by all paper reproductions.
VAX780 = MachineParams()
