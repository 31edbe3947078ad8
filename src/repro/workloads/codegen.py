"""Synthetic VAX program generation.

The RTE scripts of the paper drove real programs; we generate them.  A
:class:`ProgramGenerator` emits a complete user program for one process —
a DAG of CALLS-able subroutines with loops, conditional branches, scalar
work, field operations, string/decimal blocks and system-service requests
— with instruction-category frequencies and operand addressing modes drawn
from a :class:`~repro.workloads.profiles.MixProfile`.

Register conventions in generated code::

    r0-r5   scratch (volatile across string/decimal ops and calls)
    r6      subroutine loop counter (saved by entry masks)
    r7      small index value, 0..7
    r8      pointer-table cursor (autoincrement deferred)
    r9      roving data pointer
    r10     string/decimal region base
    r11     scalar data region base

The generator also produces the *initial contents* of the data regions
(pointer tables that point back into the region, valid packed decimals,
text for string operations) so that every generated instruction executes
on well-formed operands.

A program is a pure function of (profile, seed), and where it lives is
a function of the profile alone: :meth:`ProgramLayout.of` gives the
region bases and ``main``'s entry, from which the executive maps and
initialises a process before its program exists, so that only the
processes a run dispatches need generating.  The generator's fast
paths keep it so: :func:`weighted_draw` bisects weights summed once, as
``Random.choices`` does after summing them on every call,
:func:`printable_text` draws the string region in batches that consume
the same generator words as one ``randrange(0x20, 0x7F)`` per byte, and
operands are encoded once, when built, with registers and short
literals shared.  ``tests/workloads/program_digests.json`` pins every
generated program byte for byte.
"""

from __future__ import annotations

import random
import struct
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate

from repro.arch import encode as enc
from repro.arch.specifiers import AddressingMode
from repro.asm.program import ProgramBuilder
from repro.workloads.profiles import MixProfile

_WORD = 0xFFFFFFFF

#: Scalar data occupies the start of the region, so that the hot zone is
#: reachable with byte displacements off r11 (the paper: byte most often).
SCALAR_OFFSET = 0
#: bytes reserved at the end of the data region for the pointer table.
POINTER_TABLE_BYTES = 512
#: queue area: heads and entries, just below the pointer table.
QUEUE_AREA_BYTES = 256

#: offset of the packed-decimal area within the string region.
DECIMAL_AREA_OFFSET = 4096
DECIMAL_SLOTS = 64
DECIMAL_SLOT_BYTES = 16

#: fixed size of each subroutine slot in the code region.
SUBROUTINE_SLOT = 0x700

#: entry mask saving r6-r9 (the registers every generated body uses).
ENTRY_MASK = 0x03C0


#: The BBx and Bcc mnemonics, with their cumulative weights.
_BIT_BRANCHES = ("BBS", "BBC", "BBSS", "BBCC", "BBCS", "BBSC")
_BIT_BRANCH_CUM = list(accumulate((32, 32, 12, 12, 6, 6)))
_COND_BRANCHES = ("BLSS", "BGEQ", "BGTR", "BLEQ", "BNEQ", "BEQL", "BCC",
                  "BCS", "BGTRU")
_COND_BRANCH_CUM = list(accumulate((18, 18, 18, 18, 11, 11, 2, 2, 2)))


def weighted_draw(random, population, cum_weights):
    """``Random.choices(population, cum_weights=cum_weights)[0]``.

    The same ``random()`` (a ``Random.random``) bisected over the same
    weights, without the argument checks ``choices`` repeats on every
    call, which cost several times the draw itself.
    """
    return population[bisect(cum_weights, random() * cum_weights[-1],
                              0, len(population) - 1)]


#: ``getrandbits(7)`` keeps the top 7 bits of one 32-bit generator word,
#: that is, the word's top byte shifted right once.  A printable byte is
#: 0x20 plus a 7-bit draw below 95, so top bytes of 190 and up reject.
_PRINTABLE = bytes(0x20 + (top >> 1) if top < 190 else 0
                   for top in range(256))
_REJECTED = bytes(range(190, 256))


def printable_text(rng: random.Random, count: int) -> bytearray:
    """``count`` printable bytes, drawn as ``randrange(0x20, 0x7F)`` would.

    Range 95 has bit_length 7, so CPython's ``_randbelow`` draws
    ``getrandbits(7)`` until one fits: one 32-bit word per attempt.
    Here ``getrandbits(32 * need)`` draws ``need`` words at once (the
    first word least significant), whose top bytes the table maps to
    text and whose rejections it deletes.  Every accepted byte costs at
    least one word, so a batch of exactly ``need`` words never draws
    past the last word the one-at-a-time loop would have used: the
    bytes and the generator's state afterwards are the same.
    """
    out = bytearray()
    need = count
    while need > 0:
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        out += words[3::4].translate(_PRINTABLE, _REJECTED)
        need = count - len(out)
    return out


#: Where every generated program lives in its process's P0 space.
CODE_BASE = 0x1000
DATA_BASE = 0x20000
STRING_BASE = 0x30000


@dataclass(frozen=True)
class ProgramLayout:
    """Where the programs of one profile live: the same for every seed."""

    code_base: int
    data_base: int
    string_base: int
    subroutines: int      #: subroutine slots ahead of ``main``
    entry: int            #: VA of ``main``, past the last subroutine slot
    end: int              #: first VA past the string region

    @classmethod
    def of(cls, profile: MixProfile) -> "ProgramLayout":
        """The layout of every program generated from ``profile``."""
        subroutines = max(2, profile.code_kb * 1024 // SUBROUTINE_SLOT - 1)
        return cls(CODE_BASE, DATA_BASE, STRING_BASE, subroutines,
                   CODE_BASE + subroutines * SUBROUTINE_SLOT,
                   STRING_BASE + profile.string_kb * 1024)


@dataclass(frozen=True)
class GeneratedProgram:
    """A complete generated user program plus its initial data images.

    Read-only: one program backs every machine a run boots for the same
    (workload, seed, machine), and an executive only copies it in.
    """

    code: bytes           #: machine code, loaded at ``code_base``
    entry: int            #: VA of the first instruction of ``main``
    code_base: int
    data_base: int
    data_init: bytes      #: initial contents of the data region
    string_base: int
    string_init: bytes    #: initial contents of the string region
    subroutine_entries: tuple


class ProgramGenerator:
    """Emits one process's program from a mix profile."""

    def __init__(self, profile: MixProfile, seed: int) -> None:
        self.profile = profile
        self.rng = random.Random(seed)
        self.layout = ProgramLayout.of(profile)
        self.data_base = self.layout.data_base
        self.data_bytes = profile.data_kb * 1024
        self.string_bytes = profile.string_kb * 1024
        self._ptr_table = self.data_bytes - POINTER_TABLE_BYTES
        self._queue_area = self._ptr_table - QUEUE_AREA_BYTES
        self._scalar_limit = self._queue_area - 64
        self._emitters, self._light_emitters, self._cum_weights = \
            self._item_table()
        self._label_counter = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def generate(self) -> GeneratedProgram:
        """Generate the program and its initial data images."""
        layout = self.layout
        entries = []
        chunks = []
        for index in range(layout.subroutines):
            slot_base = layout.code_base + index * SUBROUTINE_SLOT
            chunk, entry = self._generate_subroutine(slot_base, entries)
            chunks.append(chunk)
            entries.append(entry)
        chunks.append(self._generate_main(layout.entry, entries))
        code = b"".join(chunks)
        return GeneratedProgram(
            code=code, entry=layout.entry, code_base=layout.code_base,
            data_base=layout.data_base, data_init=self._build_data_init(),
            string_base=layout.string_base,
            string_init=self._build_string_init(),
            subroutine_entries=tuple(entries))

    # ------------------------------------------------------------------
    # data region initial contents
    # ------------------------------------------------------------------

    def _build_data_init(self) -> bytes:
        rng = random.Random(self.rng.randrange(1 << 30))
        out = bytearray(rng.randbytes(self.data_bytes))
        # Pointer table: longwords pointing at aligned scalar data.
        for i in range(POINTER_TABLE_BYTES // 4):
            target = self.data_base + 4 * rng.randrange(
                self._scalar_limit // 4)
            offset = self._ptr_table + 4 * i
            out[offset:offset + 4] = struct.pack("<I", target)
        # Queue heads: self-referential (empty queues).
        for offset in range(self._queue_area, self._queue_area + 128, 16):
            head = self.data_base + offset
            out[offset:offset + 4] = struct.pack("<I", head)
            out[offset + 4:offset + 8] = struct.pack("<I", head)
        return bytes(out)

    def _build_string_init(self) -> bytes:
        rng = random.Random(self.rng.randrange(1 << 30))
        out = printable_text(rng, self.string_bytes)
        # Valid packed decimals in the decimal area.
        digits = self.profile.decimal_digits
        nbytes = digits // 2 + 1
        for slot in range(DECIMAL_SLOTS):
            offset = DECIMAL_AREA_OFFSET + slot * DECIMAL_SLOT_BYTES
            packed = bytearray()
            for i in range(nbytes - 1):
                packed.append((rng.randrange(10) << 4) | rng.randrange(10))
            packed.append((rng.randrange(10) << 4)
                          | (0xC if rng.random() < 0.8 else 0xD))
            out[offset:offset + nbytes] = packed
        return bytes(out)

    # ------------------------------------------------------------------
    # program structure
    # ------------------------------------------------------------------

    def _label(self, stem: str) -> str:
        self._label_counter += 1
        return f"{stem}_{self._label_counter}"

    def _generate_subroutine(self, slot_base: int, earlier_entries):
        b = ProgramBuilder()
        # Local JSB helper first, so its absolute address is known.
        helper_offset = b.offset
        self._emit_straight_line(b, self.rng.randrange(3, 7),
                                 allow_heavy=False)
        b.emit("RSB")
        helper_addr = slot_base + helper_offset

        entry_offset = b.offset
        b.data(struct.pack("<H", ENTRY_MASK))  # CALLS entry mask
        if self.rng.random() < 0.40:
            # Straight-line subroutine: every visit streams cold code,
            # the way editors/compilers traverse large texts of code.
            self._emit_loop_body(b, slot_base, earlier_entries,
                                 helper_addr)
            self._emit_straight_line(b, self.rng.randrange(12, 24),
                                     allow_heavy=True)
            if self.rng.random() < self.profile.syscall_density * 20:
                self._emit_syscall(b)
            for _ in range(self.rng.randrange(0, 3)):
                if earlier_entries and self.rng.random() < \
                        self.profile.call_density:
                    self._emit_call_site(b, slot_base, earlier_entries)
            b.emit("RET")
            image = b.assemble(slot_base)
            chunk = image.data
            if len(chunk) > SUBROUTINE_SLOT:
                raise AssertionError(
                    f"subroutine overflow: {len(chunk)} > "
                    f"{SUBROUTINE_SLOT}")
            chunk += bytes(SUBROUTINE_SLOT - len(chunk))
            return chunk, slot_base + entry_offset
        loop_reg = 6
        iters = self._loop_iterations()
        b.emit("MOVL", enc.literal(min(iters, 63)), enc.register(loop_reg))
        streaming = iters >= 20
        if streaming:
            # Array-scan loop: r9 marches through the data region, one
            # fresh stretch per iteration — the data-streaming pattern
            # (string scans, array sweeps) that keeps live D-streams from
            # being cache-warm.
            start = 4 * self.rng.randrange(
                max(1, (self._scalar_limit - 8192) // 4))
            b.emit("MOVAB", enc.displacement(11, start), enc.register(9))
        loop_label = self._label("loop")
        b.label(loop_label)
        loop_start = b.offset
        if streaming:
            # Re-anchor the pointer-table cursor every iteration: the
            # body's autoincrement-deferred operands advance it, and a
            # long scan loop would otherwise walk it off the table.
            b.emit("MOVAB",
                   enc.displacement(11, self._ptr_table
                                    + 4 * self.rng.randrange(64)),
                   enc.register(8))
            # Scan a fresh stretch: small-displacement reads off the
            # marching base, one store, then advance the base.
            for i in range(self.rng.randrange(2, 4)):
                b.emit("MOVL", enc.displacement(9, 4 * i),
                       enc.register(self.rng.randrange(3)))
            b.emit("MOVL", enc.register(self.rng.randrange(3)),
                   enc.displacement(9, 12))
            b.emit("ADDL2", enc.literal(self.rng.choice((16, 24, 32, 48))),
                   enc.register(9))
            self._emit_straight_line(b, self.rng.randrange(5, 11),
                                     allow_heavy=False)
        else:
            self._emit_loop_body(b, slot_base, earlier_entries,
                                 helper_addr)
        # Close the loop: SOBGTR's byte displacement reaches short bodies;
        # longer ones use ACBL's word displacement (or AOBLSS when the
        # body happens to be mid-sized) — the compiler-like mix the
        # paper's loop-branch row aggregates.
        body = b.offset - loop_start
        if body <= 118:
            b.branch(self.rng.choice(("SOBGTR", "SOBGEQ")), loop_label,
                     enc.register(loop_reg))
        else:
            b.branch("ACBL", loop_label, enc.literal(1),
                     enc.immediate(0xFFFFFFFF), enc.register(loop_reg))
        # Post-loop call sites: executed once per invocation, so callee
        # bodies stream fresh code without 10x loop amplification.
        for _ in range(self.rng.randrange(0, 3)):
            if earlier_entries and self.rng.random() < \
                    self.profile.call_density * 4:
                self._emit_call_site(b, slot_base, earlier_entries)
        b.emit("RET")

        image = b.assemble(slot_base)
        chunk = image.data
        if len(chunk) > SUBROUTINE_SLOT:
            raise AssertionError(
                f"subroutine overflow: {len(chunk)} > {SUBROUTINE_SLOT}")
        chunk += bytes(SUBROUTINE_SLOT - len(chunk))
        return chunk, slot_base + entry_offset

    def _loop_iterations(self) -> int:
        """Loop trip counts: a mix of short, medium and long loops whose
        per-execution taken ratio averages the paper's ~91 % while most
        subroutine visits get little code reuse (live code is not 10x
        warm everywhere)."""
        roll = self.rng.random()
        if roll < 0.62:
            return self.rng.randrange(2, 6)
        if roll < 0.87:
            return self.rng.randrange(8, 13)
        return self.rng.randrange(25, 50)

    def _generate_main(self, main_base: int, entries) -> bytes:
        b = ProgramBuilder()
        # Establish the roving registers before any generated operand
        # uses them (r10/r11 come preloaded from the PCB).
        b.emit("MOVAB", enc.displacement(11, 64, 1), enc.register(9))
        b.emit("MOVAB", enc.displacement(11, self._ptr_table),
               enc.register(8))
        b.emit("CLRL", enc.register(7))
        main_loop = self._label("main")
        b.label(main_loop)
        # Call a shuffled selection of subroutines, with occasional
        # syscalls between call sites (think: an RTE script iteration).
        picks = self.rng.sample(entries,
                                k=min(len(entries),
                                      self.rng.randrange(12, 20)))
        for entry in picks:
            self._emit_calls(b, main_base, entry, 0)
            if self.rng.random() < self.profile.syscall_density * 4:
                self._emit_syscall(b)
        self._emit_straight_line(b, 6, allow_heavy=False)
        b.branch("BRW", main_loop)
        return b.assemble(main_base).data

    def _emit_calls(self, b, slot_base: int, target: int,
                    nargs: int) -> None:
        """CALLS with a PC-relative (word displacement) target, the way
        compilers emit it; falls back to absolute when out of range."""
        site = slot_base + b.offset
        disp = target - (site + 5)  # opcode + numarg literal + 3-byte spec
        if -32768 <= disp <= 32767:
            b.emit("CALLS", enc.literal(nargs),
                   enc.displacement(15, disp, size=2))
        else:
            b.emit("CALLS", enc.literal(nargs), enc.absolute(target))

    def _emit_jsb(self, b, slot_base: int, target: int) -> None:
        """JSB or BSBW to the local helper (PC-relative)."""
        site = slot_base + b.offset
        if self.rng.random() < 0.40:
            b.branch("BSBW", target - (site + 3))
            return
        disp = target - (site + 4)
        if -32768 <= disp <= 32767:
            b.emit("JSB", enc.displacement(15, disp, size=2))
        else:
            b.emit("JSB", enc.absolute(target))

    def _emit_loop_body(self, b, slot_base, earlier_entries,
                        helper_addr) -> None:
        profile = self.profile
        rng = self.rng
        # Reset the roving registers every iteration to keep all memory
        # operands inside the data region.
        b.emit("MOVAB",
               enc.displacement(11,
                                4 * rng.randrange(self._scalar_limit // 4
                                                  - 64)),
               enc.register(9))
        b.emit("MOVAB",
               enc.displacement(11, self._ptr_table
                                + 4 * rng.randrange(64)),
               enc.register(8))
        b.emit("EXTZV", enc.literal(0), enc.literal(3), enc.register(6),
               enc.register(7))

        n_items = rng.randrange(5, 10)
        self._emit_straight_line(b, n_items, allow_heavy=False)

        if earlier_entries and rng.random() < profile.call_density:
            self._emit_call_site(b, slot_base, earlier_entries)
        if earlier_entries and rng.random() < profile.call_density * 0.6:
            self._emit_call_site(b, slot_base, earlier_entries)
        if rng.random() < profile.jsb_density:
            self._emit_jsb(b, slot_base, helper_addr)
        if rng.random() < 0.04:
            self._emit_pushr_popr(b)

    def _emit_call_site(self, b, slot_base, earlier_entries) -> None:
        """A procedure call to one of the nearest preceding subroutines.

        Restricting targets to close predecessors keeps call chains
        shallow and spreads execution across the whole code region
        (uniform choice over all predecessors concentrates execution
        exponentially in the lowest-numbered subroutines)."""
        rng = self.rng
        target = rng.choice(earlier_entries[-6:])
        nargs = rng.randrange(3)
        for _ in range(nargs):
            b.emit("PUSHL", self._read_operand())
        self._emit_calls(b, slot_base, target, nargs)

    def _emit_syscall(self, b) -> None:
        if self.rng.random() < self.profile.blocking_syscall_fraction:
            code = 2  # QIO-style blocking service
        else:
            code = self.rng.choice((0, 1, 3))
        b.emit("CHMK", enc.literal(code))

    def _emit_pushr_popr(self, b) -> None:
        mask = 0
        bits = self.rng.sample(range(6), k=self.profile.save_mask_bits)
        for bit in bits:
            mask |= 1 << bit
        b.emit("PUSHR", enc.literal(mask) if mask <= 63
               else enc.immediate(mask))
        b.emit("POPR", enc.literal(mask) if mask <= 63
               else enc.immediate(mask))

    # ------------------------------------------------------------------
    # straight-line item emission
    # ------------------------------------------------------------------

    def _item_table(self) -> tuple:
        """One straight-line item's emitter per category, the same with
        each heavy category emitting a move, and the cumulative weights."""
        p = self.profile
        table = [
            ("move", p.move), ("arith", p.arith), ("boolean", p.boolean),
            ("cmp_test", p.cmp_test), ("mova_push", p.mova_push),
            ("field", p.field_ops), ("bit_branch", p.bit_branch),
            ("low_bit", p.low_bit_test), ("float", p.float_ops),
            ("muldiv", p.int_muldiv), ("char", p.char_ops),
            ("decimal", p.decimal_ops), ("queue", p.queue_ops),
            ("probe", p.probe_ops), ("case", p.case_branch),
            ("cond_branch", p.cond_branch), ("brb", p.uncond_branch),
            ("jmp", p.jmp_branch),
        ]
        emitters = [getattr(self, f"_emit_{name}") for name, _ in table]
        light = [self._emit_move if name in self._HEAVY else emitter
                 for (name, _), emitter in zip(table, emitters)]
        return emitters, light, list(accumulate(w for _, w in table))

    _HEAVY = frozenset({"char", "decimal", "case", "queue"})

    def _emit_straight_line(self, b, n_items: int,
                            allow_heavy: bool) -> None:
        emitters = self._emitters if allow_heavy else self._light_emitters
        cum_weights = self._cum_weights
        random = self.rng.random
        for _ in range(n_items):
            weighted_draw(random, emitters, cum_weights)(b)

    # -- operand construction ------------------------------------------------

    def _scalar_offset(self) -> int:
        rng = self.rng
        roll = rng.random()
        if roll < 0.50:
            return 4 * rng.randrange(31)  # hot zone, byte displacement
        if roll < 0.74:
            return 4 * rng.randrange(1024)  # warm 4 KB
        return 4 * rng.randrange(self._scalar_limit // 4)

    def _read_operand(self, size: int = 4):
        """A read operand following (approximately) Table 4's mix."""
        rng = self.rng
        roll = rng.random()
        if roll < 0.36:
            return enc.register(rng.randrange(6))
        if roll < 0.52:
            return enc.literal(rng.randrange(64))
        if roll < 0.555:
            return enc.immediate(rng.randrange(1 << 16))
        operand = self._memory_operand(size)
        if operand.mode not in (AddressingMode.SHORT_LITERAL,
                                AddressingMode.REGISTER,
                                AddressingMode.IMMEDIATE) and \
                rng.random() < 0.65:
            operand = operand.indexed(7)
        return operand

    def _read_operand_memory_biased(self, size: int = 4):
        """Second/middle read operands: the paper's Spec 2-6 read rate
        implies these are memory more often than first operands."""
        rng = self.rng
        if rng.random() < 0.30:
            roll = rng.random()
            if roll < 0.55:
                return enc.register(rng.randrange(6))
            if roll < 0.9:
                return enc.literal(rng.randrange(64))
            return enc.immediate(rng.randrange(1 << 12))
        operand = self._memory_operand(size)
        if operand.mode not in (AddressingMode.SHORT_LITERAL,
                                AddressingMode.REGISTER,
                                AddressingMode.IMMEDIATE) and \
                rng.random() < 0.4:
            operand = operand.indexed(7)
        return operand

    def _memory_operand(self, size: int = 4):
        rng = self.rng
        roll = rng.random()
        if roll < 0.70:
            return enc.displacement(11, self._scalar_offset())
        if roll < 0.78:
            return enc.register_deferred(9)
        if roll < 0.86 and size == 4:
            # Sub-longword autoincrement would knock r9 off alignment
            # for every later longword reference through it.
            return enc.autoincrement(9)
        if roll < 0.89 and size == 4:
            return enc.autodecrement(9)
        if roll < 0.965:
            return enc.disp_deferred(11, self._ptr_table + 4 * rng.randrange(
                POINTER_TABLE_BYTES // 4))
        if roll < 0.985:
            return enc.absolute(self.data_base + self._scalar_offset())
        return enc.autoinc_deferred(8)

    def _modify_operand(self, size: int = 4):
        """Destination of a 2-operand op (read-modify-write): memory
        more often than a plain store target, per the Spec 2-6 read rate
        of Table 5."""
        rng = self.rng
        if rng.random() < 0.35:
            return enc.register(rng.randrange(6))
        if rng.random() < 0.8:
            return enc.displacement(11, self._scalar_offset())
        return enc.register_deferred(9)

    def _write_operand(self, size: int = 4):
        rng = self.rng
        roll = rng.random()
        if roll < 0.55:
            return enc.register(rng.randrange(6))
        if roll < 0.88:
            return enc.displacement(11, self._scalar_offset())
        if roll < 0.95:
            return enc.register_deferred(9)
        return enc.displacement(11, self._scalar_offset())

    # -- category emitters -------------------------------------------------

    def _emit_move(self, b) -> None:
        rng = self.rng
        roll = rng.random()
        if roll < 0.55:
            b.emit("MOVL", self._read_operand(), self._write_operand())
        elif roll < 0.70:
            mnem = rng.choice(("MOVB", "MOVW"))
            b.emit(mnem, self._read_operand(), self._write_operand())
        elif roll < 0.80:
            b.emit(rng.choice(("MOVZBL", "MOVZWL", "MOVZBW")),
                   self._read_operand(), self._write_operand())
        elif roll < 0.88:
            b.emit(rng.choice(("CLRL", "CLRB", "CLRW")),
                   self._write_operand())
        elif roll < 0.94:
            b.emit(rng.choice(("CVTBL", "CVTWL", "CVTLB", "CVTLW")),
                   self._read_operand(), self._write_operand())
        else:
            b.emit(rng.choice(("MCOML", "MNEGL", "MCOMB")),
                   self._read_operand(), self._write_operand())

    def _emit_arith(self, b) -> None:
        rng = self.rng
        roll = rng.random()
        if roll < 0.25:
            b.emit(rng.choice(("ADDL2", "SUBL2")), self._read_operand(),
                   self._modify_operand())
        elif roll < 0.70:
            b.emit(rng.choice(("ADDL3", "SUBL3")), self._read_operand(),
                   self._read_operand_memory_biased(),
                   self._write_operand())
        elif roll < 0.80:
            b.emit(rng.choice(("INCL", "DECL", "INCW", "DECB")),
                   self._write_operand())
        elif roll < 0.86:
            b.emit(rng.choice(("ADDW2", "SUBB2")), self._read_operand(),
                   self._write_operand())
        elif roll < 0.90:
            if rng.random() < 0.5:
                b.emit("ADAWI", enc.literal(rng.randrange(16)),
                       enc.displacement(11, self._scalar_offset() & ~1))
            else:
                b.emit("INDEX", enc.register(7), enc.literal(0),
                       enc.literal(7), enc.literal(4),
                       enc.literal(0), enc.register(1))
        else:
            b.emit(rng.choice(("ASHL", "ROTL")),
                   enc.literal(rng.randrange(16)), self._read_operand(),
                   self._write_operand())

    def _emit_boolean(self, b) -> None:
        rng = self.rng
        if rng.random() < 0.55:
            b.emit(rng.choice(("BISL2", "BICL2", "XORL2")),
                   self._read_operand(), self._modify_operand())
        elif rng.random() < 0.7:
            b.emit(rng.choice(("XORB2", "BISB2", "BICW2")),
                   self._read_operand(), self._modify_operand())
        else:
            b.emit(rng.choice(("BISL3", "BICL3", "XORL3")),
                   self._read_operand(),
                   self._read_operand() if rng.random() < 0.5
                   else enc.register(2),
                   self._write_operand())

    def _emit_cmp_test(self, b) -> None:
        rng = self.rng
        if rng.random() < 0.55:
            b.emit(rng.choice(("CMPL", "CMPB", "CMPW")),
                   self._read_operand(),
                   self._read_operand_memory_biased())
        elif rng.random() < 0.75:
            b.emit(rng.choice(("TSTL", "TSTB", "TSTW")),
                   self._read_operand())
        else:
            b.emit(rng.choice(("BITL", "BITW")), self._read_operand(),
                   self._read_operand_memory_biased())

    def _emit_mova_push(self, b) -> None:
        rng = self.rng
        roll = rng.random()
        if roll < 0.4:
            b.emit("MOVAB", enc.displacement(11, self._scalar_offset()),
                   enc.register(rng.randrange(6)))
        elif roll < 0.6:
            b.emit("MOVAL", enc.displacement(11, self._scalar_offset()),
                   enc.register(rng.randrange(6)))
        elif roll < 0.8:
            b.emit("PUSHL", self._read_operand())
            b.emit("MOVL", enc.autoincrement(14), enc.register(0))
        else:
            b.emit("PUSHAB", enc.displacement(11, self._scalar_offset()))
            b.emit("TSTL", enc.autoincrement(14))

    def _emit_field(self, b) -> None:
        rng = self.rng
        roll = rng.random()
        pos = enc.literal(rng.randrange(24)) if rng.random() < 0.6 \
            else enc.register(7)
        size = enc.literal(rng.choice((1, 2, 3, 4, 8, 12, 16)))
        base = enc.register(3) if rng.random() < 0.5 \
            else enc.displacement(11, self._scalar_offset())
        if roll < 0.45:
            b.emit(rng.choice(("EXTZV", "EXTV")), pos, size, base,
                   enc.register(rng.randrange(6)))
        elif roll < 0.70:
            # INSV into a register field must fit one register; into
            # memory the field must fit a longword read-modify-write.
            b.emit("INSV", enc.register(rng.randrange(6)),
                   enc.literal(rng.randrange(8)),
                   enc.literal(rng.choice((1, 2, 4, 8, 12))), base)
        elif roll < 0.85:
            b.emit(rng.choice(("CMPV", "CMPZV")), pos, size, base,
                   self._read_operand())
        else:
            b.emit(rng.choice(("FFS", "FFC")), enc.literal(0),
                   enc.literal(rng.choice((8, 16, 32))), base,
                   enc.register(rng.randrange(6)))

    def _emit_bit_branch(self, b) -> None:
        rng = self.rng
        mnem = weighted_draw(rng.random, _BIT_BRANCHES, _BIT_BRANCH_CUM)
        pos = enc.literal(rng.randrange(8)) if rng.random() < 0.4 \
            else enc.register(7)
        base = enc.displacement(11, self._scalar_offset()) \
            if rng.random() < 0.6 else enc.register(4)
        skip = self._label("bb")
        b.branch(mnem, skip, pos, base)
        self._emit_filler(b, rng.randrange(1, 3))
        b.label(skip)

    def _emit_low_bit(self, b) -> None:
        rng = self.rng
        skip = self._label("blb")
        roll = rng.random()
        if roll < 0.40:
            operand = enc.register(7)  # cycles 0..7: bit 0 alternates
        elif roll < 0.85:
            operand = enc.displacement(11, self._scalar_offset())
        else:
            operand = enc.register(rng.randrange(6))
        b.branch(rng.choice(("BLBS", "BLBC")), skip, operand)
        self._emit_filler(b, rng.randrange(1, 3))
        b.label(skip)

    def _emit_float(self, b) -> None:
        rng = self.rng
        roll = rng.random()
        fsrc = enc.displacement(11, self._scalar_offset())
        if roll < 0.25:
            b.emit("MOVF", fsrc, enc.register(2))
        elif roll < 0.55:
            b.emit(rng.choice(("ADDF2", "SUBF2", "MULF2")),
                   fsrc, enc.register(2))
        elif roll < 0.70:
            b.emit(rng.choice(("ADDF3", "MULF3", "SUBF3")),
                   enc.register(2), fsrc, self._write_operand())
        elif roll < 0.80:
            b.emit("DIVF2", enc.register(2), enc.register(3))
        elif roll < 0.88:
            b.emit(rng.choice(("CVTLF", "CVTFL", "CVTWF", "CVTFW",
                               "CVTBF")), self._read_operand(),
                   enc.register(rng.randrange(6)))
        elif roll < 0.92:
            b.emit(rng.choice(("CVTLD", "CVTDL")), enc.register(2),
                   enc.register(4))
        elif roll < 0.95:
            b.emit(rng.choice(("CMPF", "MNEGF")), enc.register(2),
                   enc.register(3))
        else:
            b.emit("TSTF", enc.register(2))

    def _emit_muldiv(self, b) -> None:
        rng = self.rng
        roll = rng.random()
        if roll < 0.25:
            b.emit("MULL2", self._read_operand(), self._write_operand())
        elif roll < 0.5:
            b.emit("MULL3", self._read_operand(), self._read_operand(),
                   self._write_operand())
        elif roll < 0.65:
            b.emit("DIVL2", self._read_operand(), self._write_operand())
        elif roll < 0.8:
            b.emit("DIVL3", self._read_operand(), self._read_operand(),
                   self._write_operand())
        elif roll < 0.92:
            b.emit("EMUL", self._read_operand(), self._read_operand(),
                   self._read_operand(), enc.register(2))
        else:
            b.emit("EDIV", enc.literal(7), enc.register(2),
                   enc.register(4), enc.register(5))

    def _string_site(self, length: int):
        """Source/destination offsets in the string region, no overlap."""
        rng = self.rng
        half = DECIMAL_AREA_OFFSET // 2
        src = 4 * rng.randrange(0, (half - length - 8) // 4)
        dst = half + 4 * rng.randrange(0, (half - length - 8) // 4)
        if rng.random() < 0.3:
            src += rng.randrange(4)  # unaligned strings happen (§3.3.1)
        return src, dst

    def _emit_char(self, b) -> None:
        rng = self.rng
        length = max(4, int(rng.gauss(self.profile.string_length, 8)))
        src, dst = self._string_site(length)
        roll = rng.random()
        len_op = enc.literal(length) if length <= 63 \
            else enc.immediate(length)
        # Subset machines restrict the mnemonic set; draws happen
        # unconditionally so the rng stream (and hence everything
        # generated afterwards) is identical across machines.
        supported = self.profile.char_opcodes
        if roll < 0.55:
            b.emit("MOVC3", len_op, enc.displacement(10, src),
                   enc.displacement(10, dst))
        elif roll < 0.70:
            # Compare a string against itself: equal bytes, so the
            # microcode scans the whole length (random-vs-random data
            # would mismatch after a byte or two and undercount work).
            if "CMPC3" in supported:
                b.emit("CMPC3", len_op, enc.displacement(10, src),
                       enc.displacement(10, src))
            else:
                b.emit("MOVC3", len_op, enc.displacement(10, src),
                       enc.displacement(10, dst))
        elif roll < 0.85:
            # Search printable text for a control character: full scan.
            mnemonic = rng.choice(("LOCC", "SKPC"))
            char_op = enc.literal(1 if rng.random() < 0.5 else 0)
            if mnemonic in supported:
                b.emit(mnemonic, char_op, len_op,
                       enc.displacement(10, src))
            else:
                b.emit("MOVC3", len_op, enc.displacement(10, src),
                       enc.displacement(10, dst))
        elif roll < 0.95:
            if "MOVC5" in supported:
                b.emit("MOVC5", enc.literal(min(63, length // 2)),
                       enc.displacement(10, src), enc.literal(0x20),
                       len_op, enc.displacement(10, dst))
            else:
                b.emit("MOVC3", len_op, enc.displacement(10, src),
                       enc.displacement(10, dst))
        elif "SCANC" in supported:
            # Mask 0x80 never matches printable table bytes: full scan.
            b.emit("SCANC", len_op, enc.displacement(10, src),
                   enc.displacement(10, dst & ~0xFF), enc.immediate(0x80))
        else:
            b.emit("MOVC3", len_op, enc.displacement(10, src),
                   enc.displacement(10, dst))

    def _emit_decimal(self, b) -> None:
        rng = self.rng
        digits = self.profile.decimal_digits
        slot_a = DECIMAL_AREA_OFFSET + DECIMAL_SLOT_BYTES * \
            rng.randrange(DECIMAL_SLOTS)
        slot_b = DECIMAL_AREA_OFFSET + DECIMAL_SLOT_BYTES * \
            rng.randrange(DECIMAL_SLOTS)
        roll = rng.random()
        dig = enc.literal(digits)
        if roll < 0.35:
            b.emit(rng.choice(("ADDP4", "SUBP4")), dig,
                   enc.displacement(10, slot_a), dig,
                   enc.displacement(10, slot_b))
        elif roll < 0.55:
            b.emit("MOVP", dig, enc.displacement(10, slot_a),
                   enc.displacement(10, slot_b))
        elif roll < 0.75:
            b.emit("CMPP3", dig, enc.displacement(10, slot_a),
                   enc.displacement(10, slot_b))
        elif roll < 0.90:
            b.emit("CVTLP", self._read_operand(), dig,
                   enc.displacement(10, slot_a))
        else:
            b.emit("CVTPL", dig, enc.displacement(10, slot_a),
                   enc.register(rng.randrange(6)))

    def _emit_queue(self, b) -> None:
        rng = self.rng
        site = rng.randrange(4)
        head = self._queue_area + 16 * site
        entry = self._queue_area + 128 + 16 * site
        b.emit("INSQUE", enc.displacement(11, entry),
               enc.displacement(11, head))
        b.emit("REMQUE", enc.displacement(11, entry), enc.register(0))

    def _emit_probe(self, b) -> None:
        b.emit(self.rng.choice(("PROBER", "PROBEW")), enc.literal(3),
               enc.literal(4), enc.displacement(11, self._scalar_offset()))

    def _emit_case(self, b) -> None:
        rng = self.rng
        n = rng.randrange(2, 5)
        labels = [self._label("case") for _ in range(n)]
        done = self._label("case_done")
        # Bound the selector into [0, 3] first.
        b.emit("EXTZV", enc.literal(0), enc.literal(2), enc.register(7),
               enc.register(1))
        b.case("CASEL", enc.register(1), enc.literal(0),
               enc.literal(n - 1), labels)
        # Out-of-range selectors fall through to here.
        b.branch("BRB", done)
        for label in labels:
            b.label(label)
            self._emit_filler(b, rng.randrange(1, 3))
            b.branch("BRB", done)
        b.label(done)

    def _emit_cond_branch(self, b) -> None:
        rng = self.rng
        skip = self._label("if")
        if rng.random() < 0.55:
            # Fresh comparison against the data region.
            b.emit("CMPB", enc.displacement(11, self._scalar_offset()),
                   enc.literal(rng.randrange(64)))
        # else: branch on whatever the preceding instruction left in the
        # condition codes, as compiled code often does.
        mnem = weighted_draw(rng.random, _COND_BRANCHES, _COND_BRANCH_CUM)
        b.branch(mnem, skip)
        self._emit_filler(b, rng.randrange(1, 3))
        b.label(skip)

    def _emit_brb(self, b) -> None:
        """Unconditional short branch over dead code (BRB/BRW share the
        conditional-branch microcode, as the paper notes)."""
        target = self._label("brb")
        b.branch(self.rng.choice(("BRB", "BRB", "BRW")), target)
        self._emit_filler(b, self.rng.randrange(1, 3))
        b.label(target)

    def _emit_jmp(self, b) -> None:
        # JMP with a PC-relative address operand targeting the next
        # instruction (displacement 0 past the specifier).
        b.emit("JMP", enc.displacement(15, 0, size=1))

    def _emit_filler(self, b, n: int) -> None:
        for _ in range(n):
            roll = self.rng.random()
            if roll < 0.5:
                b.emit("MOVL", self._read_operand(), self._write_operand())
            elif roll < 0.8:
                b.emit("ADDL2", self._read_operand(), enc.register(0))
            else:
                b.emit("INCL", enc.register(1))
