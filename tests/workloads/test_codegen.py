"""Workload generator tests: determinism, well-formedness, profiles."""

import dataclasses
import random

import pytest

from repro.arch.decode import decode_instruction
from repro.arch.opcodes import OPCODES_BY_VALUE
from repro.machines.registry import MACHINES
from repro.workloads.codegen import (_BIT_BRANCH_CUM, _BIT_BRANCHES,
                                     _COND_BRANCH_CUM, _COND_BRANCHES,
                                     GeneratedProgram, ProgramGenerator,
                                     ProgramLayout, printable_text,
                                     weighted_draw)
from repro.workloads.profiles import (COMMERCIAL, SCIENTIFIC,
                                      STANDARD_PROFILES,
                                      TIMESHARING_RESEARCH)
from repro.workloads.registry import WORKLOADS


def generate(profile=TIMESHARING_RESEARCH, seed=4242):
    return ProgramGenerator(profile, seed=seed).generate()


class TestDeterminism:
    def test_same_seed_same_program(self):
        a = generate(seed=99)
        b = generate(seed=99)
        assert a.code == b.code
        assert a.data_init == b.data_init
        assert a.string_init == b.string_init

    def test_different_seed_different_program(self):
        assert generate(seed=1).code != generate(seed=2).code

    def test_profiles_differ(self):
        a = generate(TIMESHARING_RESEARCH, seed=5)
        b = generate(SCIENTIFIC, seed=5)
        assert a.code != b.code


class TestLayout:
    @pytest.mark.parametrize("name,machine", [
        (name, machine) for name, spec in WORKLOADS.items()
        if spec.trace is None
        for machine in MACHINES if spec.supported_on(machine)])
    def test_each_image_stays_inside_its_region(self, name, machine):
        """The executive lays a process out from the profile alone and
        copies each image to its base: code below the data region,
        data below the strings, and the strings ending at the
        layout's end."""
        profile = MACHINES[machine].adapt_profile(WORKLOADS[name].profile)
        layout = ProgramLayout.of(profile)
        program = ProgramGenerator(profile, seed=5).generate()
        assert (program.code_base, program.data_base, program.string_base,
                program.entry) == (layout.code_base, layout.data_base,
                                   layout.string_base, layout.entry)
        assert program.code_base + len(program.code) <= program.data_base
        assert program.data_base + len(program.data_init) \
            <= program.string_base
        assert program.string_base + len(program.string_init) \
            == layout.end


class TestWellFormedness:
    def test_entry_points_inside_code(self):
        prog = generate()
        for entry in prog.subroutine_entries:
            offset = entry - prog.code_base
            assert 0 <= offset < len(prog.code)

    def test_entry_masks_save_loop_registers(self):
        prog = generate()
        for entry in prog.subroutine_entries:
            offset = entry - prog.code_base
            mask = prog.code[offset] | (prog.code[offset + 1] << 8)
            # r6-r9 must be preserved by every generated subroutine.
            assert mask & 0x03C0 == 0x03C0

    def test_main_decodes_from_entry(self):
        prog = generate()

        def fetch(addr):
            return prog.code[addr - prog.code_base]

        addr = prog.entry
        for _ in range(20):
            inst = decode_instruction(fetch, addr)
            addr = inst.next_pc
            assert inst.info.value in OPCODES_BY_VALUE

    def test_subroutine_bodies_decode(self):
        prog = generate()

        def fetch(addr):
            return prog.code[addr - prog.code_base]

        for entry in prog.subroutine_entries[:5]:
            addr = entry + 2  # skip the entry mask word
            for _ in range(10):
                inst = decode_instruction(fetch, addr)
                addr = inst.next_pc

    def test_generated_program_is_read_only(self):
        prog = generate()
        assert isinstance(prog.subroutine_entries, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            prog.code = b""

    def test_data_regions_sized_to_profile(self):
        prog = generate()
        assert len(prog.data_init) == TIMESHARING_RESEARCH.data_kb * 1024
        assert len(prog.string_init) == \
            TIMESHARING_RESEARCH.string_kb * 1024

    def test_pointer_table_points_into_region(self):
        gen = ProgramGenerator(TIMESHARING_RESEARCH, seed=7)
        prog = gen.generate()
        import struct
        for i in range(16):
            offset = gen._ptr_table + 4 * i
            target = struct.unpack_from("<I", prog.data_init, offset)[0]
            assert prog.data_base <= target < \
                prog.data_base + len(prog.data_init)

    def test_queue_heads_self_referential(self):
        gen = ProgramGenerator(TIMESHARING_RESEARCH, seed=7)
        prog = gen.generate()
        import struct
        head_va = prog.data_base + gen._queue_area
        flink = struct.unpack_from("<I", prog.data_init, gen._queue_area)[0]
        assert flink == head_va

    def test_decimal_area_valid_bcd(self):
        from repro.workloads.codegen import (DECIMAL_AREA_OFFSET,
                                             DECIMAL_SLOT_BYTES)
        prog = generate(COMMERCIAL)
        digits = COMMERCIAL.decimal_digits
        nbytes = digits // 2 + 1
        for slot in range(8):
            base = DECIMAL_AREA_OFFSET + slot * DECIMAL_SLOT_BYTES
            packed = prog.string_init[base:base + nbytes]
            for i, byte in enumerate(packed):
                high, low = byte >> 4, byte & 0xF
                assert high <= 9
                if i < nbytes - 1:
                    assert low <= 9
                else:
                    assert low in (0xC, 0xD)  # sign nibble


class TestProfiles:
    def test_five_standard_profiles(self):
        assert len(STANDARD_PROFILES) == 5
        names = {p.name for p in STANDARD_PROFILES}
        assert len(names) == 5

    def test_commercial_is_decimal_heavy(self):
        base = TIMESHARING_RESEARCH
        assert COMMERCIAL.decimal_ops > base.decimal_ops

    def test_scientific_is_float_heavy(self):
        assert SCIENTIFIC.float_ops > TIMESHARING_RESEARCH.float_ops

    def test_profiles_are_frozen(self):
        with pytest.raises(Exception):
            TIMESHARING_RESEARCH.move = 1.0

    @pytest.mark.parametrize("profile", STANDARD_PROFILES,
                             ids=lambda p: p.name)
    def test_every_profile_generates(self, profile):
        prog = ProgramGenerator(profile, seed=11).generate()
        assert isinstance(prog, GeneratedProgram)
        assert len(prog.code) > 4096


def printable_text_per_byte(rng, count):
    """The generator's string region the slow way: one ``getrandbits(7)``
    per attempt, rejecting draws of 95 and up, exactly as
    ``randrange(0x20, 0x7F)`` draws.  Returns (text, words drawn)."""
    out = bytearray(count)
    words = 0
    for i in range(count):
        r = rng.getrandbits(7)
        words += 1
        while r >= 95:
            r = rng.getrandbits(7)
            words += 1
        out[i] = 0x20 + r
    return out, words


class TestFastPathReferences:
    """Each batched draw equals the slow draw it replaced, byte for byte
    and with the generator left in the same state."""

    @pytest.mark.parametrize("seed,string_kb", [
        (0, 1), (1984, 8), (2024, 16), (7, 4), (123456789, 2)])
    def test_string_region_equals_the_per_byte_loop(self, seed, string_kb):
        count = string_kb * 1024
        slow, fast = random.Random(seed), random.Random(seed)
        expected, words = printable_text_per_byte(slow, count)
        # Rejections leave the first batch of ``count`` words short, so
        # the batched draw needs a second batch.
        assert words > count
        assert printable_text(fast, count) == expected
        assert fast.getstate() == slow.getstate()

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 50])
    def test_short_string_regions(self, count):
        for seed in range(40):
            slow, fast = random.Random(seed), random.Random(seed)
            assert printable_text(fast, count) == \
                printable_text_per_byte(slow, count)[0]
            assert fast.getstate() == slow.getstate()

    @pytest.mark.parametrize("population,cum_weights", [
        (_BIT_BRANCHES, _BIT_BRANCH_CUM), (_COND_BRANCHES, _COND_BRANCH_CUM),
        (("a", "b", "c", "d"), [0.5, 0.5, 2.75, 3.75])])
    def test_weighted_draw_equals_random_choices(self, population,
                                                 cum_weights):
        slow, fast = random.Random(99), random.Random(99)
        for _ in range(2000):
            assert weighted_draw(fast.random, population, cum_weights) == \
                slow.choices(population, cum_weights=cum_weights)[0]
        assert fast.getstate() == slow.getstate()

    def test_category_draw_equals_random_choices(self):
        """The generator's summed-once weights draw the emitter that
        ``choices(weights=...)`` over the profile's weights draws."""
        p = TIMESHARING_RESEARCH
        gen = ProgramGenerator(p, seed=3)
        weights = (p.move, p.arith, p.boolean, p.cmp_test, p.mova_push,
                   p.field_ops, p.bit_branch, p.low_bit_test, p.float_ops,
                   p.int_muldiv, p.char_ops, p.decimal_ops, p.queue_ops,
                   p.probe_ops, p.case_branch, p.cond_branch,
                   p.uncond_branch, p.jmp_branch)
        emitters = gen._emitters
        slow, fast = random.Random(5), random.Random(5)
        for _ in range(2000):
            assert weighted_draw(fast.random, emitters, gen._cum_weights) \
                == slow.choices(emitters, weights=weights)[0]
        assert fast.getstate() == slow.getstate()
