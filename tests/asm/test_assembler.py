"""Tests for the text assembler and program builder."""

import pytest

from repro.arch import encode as enc
from repro.arch.decode import decode_instruction
from repro.arch.specifiers import AddressingMode
from repro.asm import AssemblyError, ProgramBuilder, assemble_text
from repro.asm.assembler import SourceError


def decode_at(image, address):
    def fetch(addr):
        return image.data[addr - image.base]
    return decode_instruction(fetch, address)


class TestProgramBuilder:
    def test_emit_and_labels(self):
        b = ProgramBuilder()
        b.label("start")
        b.emit("MOVL", enc.register(0), enc.register(1))
        b.emit("HALT")
        image = b.assemble(0x1000)
        assert image.address_of("start") == 0x1000
        assert image.data[-1] == 0x00

    def test_backward_branch_fixup(self):
        b = ProgramBuilder()
        b.label("loop")
        b.emit("INCL", enc.register(0))
        b.branch("BRB", "loop")
        image = b.assemble(0x1000)
        inst = decode_at(image, 0x1000 + 2)
        assert inst.branch_target() == 0x1000

    def test_forward_branch_fixup(self):
        b = ProgramBuilder()
        b.branch("BNEQ", "done")
        b.emit("INCL", enc.register(0))
        b.label("done")
        b.emit("HALT")
        image = b.assemble(0)
        inst = decode_at(image, 0)
        assert inst.branch_target() == image.address_of("done")

    def test_undefined_label_raises(self):
        b = ProgramBuilder()
        b.branch("BRB", "nowhere")
        with pytest.raises(AssemblyError):
            b.assemble(0)

    def test_duplicate_label_raises(self):
        b = ProgramBuilder()
        b.label("x")
        with pytest.raises(AssemblyError):
            b.label("x")

    def test_branch_out_of_range_raises(self):
        b = ProgramBuilder()
        b.branch("BRB", "far")
        b.space(200)
        b.label("far")
        with pytest.raises(AssemblyError):
            b.assemble(0)

    def test_case_table_targets(self):
        b = ProgramBuilder()
        b.case("CASEL", enc.register(0), enc.literal(0), enc.literal(1),
               ["c0", "c1"])
        b.label("c0")
        b.emit("NOP")
        b.label("c1")
        b.emit("HALT")
        image = b.assemble(0x400)
        inst = decode_at(image, 0x400)
        # Displacements are relative to the start of the table.
        table_base = 0x400 + inst.length - 4
        assert table_base + inst.case_table[0] == image.address_of("c0")
        assert table_base + inst.case_table[1] == image.address_of("c1")


class TestEmitErrors:
    """A failed ``emit`` raises as the encoder or assembler does and
    leaves the builder as it was."""

    def test_wrong_operand_count_raises_encode_error(self):
        b = ProgramBuilder()
        b.emit("HALT")
        with pytest.raises(enc.EncodeError, match="takes 2 specifier"):
            b.emit("MOVL", enc.register(0))
        with pytest.raises(enc.EncodeError):
            b.emit("MOVL", enc.register(0), enc.register(1),
                   enc.register(2))
        assert b.assemble(0).data == bytes([0x00])

    def test_branch_mnemonic_raises_assembly_error(self):
        with pytest.raises(AssemblyError, match="use branch"):
            ProgramBuilder().emit("BRB")


class TestTextAssembler:
    def test_simple_program(self):
        image = assemble_text("""
        start:
            movl    #100, r0
            clrl    r1
        loop:
            addl2   r0, r1
            sobgtr  r0, loop
            halt
        """, base=0x200)
        assert image.entry == 0x200
        inst = decode_at(image, 0x200)
        assert inst.mnemonic == "MOVL"
        assert inst.specifiers[0].mode is AddressingMode.IMMEDIATE
        assert inst.specifiers[0].value == 100

    def test_short_literal_auto(self):
        image = assemble_text("tstl #5", base=0)
        inst = decode_at(image, 0)
        assert inst.specifiers[0].mode is AddressingMode.SHORT_LITERAL

    def test_forced_immediate(self):
        image = assemble_text("tstl i^#5", base=0)
        inst = decode_at(image, 0)
        assert inst.specifiers[0].mode is AddressingMode.IMMEDIATE

    def test_addressing_modes(self):
        image = assemble_text("""
            movl (r2), r3
            movl (r2)+, r3
            movl -(r2), r3
            movl @(r2)+, r3
            movl 8(r2), r3
            movl @8(r2), r3
            movl @#^x1000, r3
        """, base=0)
        modes = []
        addr = 0
        for _ in range(7):
            inst = decode_at(image, addr)
            modes.append(inst.specifiers[0].mode)
            addr += inst.length
        assert modes == [
            AddressingMode.REGISTER_DEFERRED,
            AddressingMode.AUTOINCREMENT,
            AddressingMode.AUTODECREMENT,
            AddressingMode.AUTOINC_DEFERRED,
            AddressingMode.DISPLACEMENT,
            AddressingMode.DISP_DEFERRED,
            AddressingMode.ABSOLUTE,
        ]

    def test_indexed_operand(self):
        image = assemble_text("""
            movl 4(r2)[r4], r3
        """, base=0)
        inst = decode_at(image, 0)
        assert inst.specifiers[0].index_register == 4

    def test_label_as_absolute(self):
        image = assemble_text("""
            movl @#counter, r0
            halt
        counter:
            .long 42
        """, base=0x100)
        inst = decode_at(image, 0x100)
        assert inst.specifiers[0].value == image.address_of("counter")

    def test_data_directives(self):
        image = assemble_text("""
            .byte 1, 2, 3
            .word ^x1234
            .long ^xDEADBEEF
            .space 4
        """, base=0)
        assert image.data[:3] == bytes([1, 2, 3])
        assert image.data[3:5] == bytes([0x34, 0x12])
        assert image.data[5:9] == bytes([0xEF, 0xBE, 0xAD, 0xDE])
        assert len(image.data) == 13

    def test_case_statement(self):
        image = assemble_text("""
            casel r0, #0, #1, (c0, c1)
        c0: nop
        c1: halt
        """, base=0)
        inst = decode_at(image, 0)
        assert inst.mnemonic == "CASEL"
        assert len(inst.case_table) == 2

    def test_error_reports_line(self):
        with pytest.raises(AssemblyError, match="line 2"):
            assemble_text("nop\nbogus r0\n", base=0)

    def test_forward_data_reference(self):
        image = assemble_text("""
            movl @#buf, r0
            halt
        buf:
            .space 16
        """, base=0x800)
        inst = decode_at(image, 0x800)
        assert inst.specifiers[0].value == image.address_of("buf")

    def test_forward_immediate_label_sizes_to_settle(self):
        # Sized with fwd at 0, #fwd is a short literal; at its real
        # address it is an immediate, four bytes longer.
        image = assemble_text("movl #fwd, r0\nfwd: halt", base=0x200)
        inst = decode_at(image, 0x200)
        assert image.address_of("fwd") == 0x207
        assert inst.specifiers[0].mode is AddressingMode.IMMEDIATE
        assert inst.specifiers[0].value == 0x207
        assert 0x200 + inst.length == 0x207

    def test_forward_displacement_label_sizes_to_settle(self):
        # fwd(r1) sizes as a byte displacement at 0, a word one at 0x205.
        image = assemble_text("movl fwd(r1), r0\nfwd: halt", base=0x200)
        inst = decode_at(image, 0x200)
        assert image.address_of("fwd") == 0x205
        assert inst.specifiers[0].mode is AddressingMode.DISPLACEMENT
        assert inst.specifiers[0].disp_size == 2
        assert inst.specifiers[0].displacement == 0x205
        assert 0x200 + inst.length == 0x205

    def test_backward_label_reference(self):
        image = assemble_text("back: nop\nmovl #back, r0\nhalt", base=0x200)
        inst = decode_at(image, 0x201)
        assert inst.specifiers[0].value == image.address_of("back") == 0x200
        assert decode_at(image, 0x201 + inst.length).mnemonic == "HALT"

    def test_unsettled_layout_reports_line(self):
        # #end-4 is an immediate while end-4 is negative, which puts end
        # at 7 and makes it a short literal, which puts end at 3.
        with pytest.raises(SourceError, match="line 2: label layout"):
            assemble_text("movl #end-4, r0\nend: halt", base=0)
