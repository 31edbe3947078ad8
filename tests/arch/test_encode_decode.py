"""Round-trip tests for instruction encoding and decoding."""

import pytest
from hypothesis import given, strategies as st

from repro.arch import encode as enc
from repro.arch.decode import DecodeError, decode_instruction
from repro.arch.opcodes import opcode
from repro.arch.specifiers import AddressingMode


def decode_bytes(data, address=0):
    """Decode an instruction from a byte buffer rooted at ``address``."""
    def fetch(addr):
        return data[addr - address]
    return decode_instruction(fetch, address)


class TestOperandEncoding:
    def test_register(self):
        data = enc.encode_instruction(opcode("TSTL"), [enc.register(3)])
        assert data == bytes([0xD5, 0x53])

    def test_short_literal(self):
        data = enc.encode_instruction(opcode("TSTL"), [enc.literal(5)])
        assert data == bytes([0xD5, 0x05])

    def test_immediate_long(self):
        data = enc.encode_instruction(opcode("PUSHL"),
                                      [enc.immediate(0x12345678)])
        assert data == bytes([0xDD, 0x8F, 0x78, 0x56, 0x34, 0x12])

    def test_byte_displacement(self):
        data = enc.encode_instruction(opcode("TSTL"),
                                      [enc.displacement(2, -4)])
        assert data == bytes([0xD5, 0xA2, 0xFC])

    def test_word_displacement_auto_sized(self):
        data = enc.encode_instruction(opcode("TSTL"),
                                      [enc.displacement(2, 300)])
        assert data == bytes([0xD5, 0xC2, 0x2C, 0x01])

    def test_indexed(self):
        base = enc.displacement(2, 8).indexed(4)
        data = enc.encode_instruction(opcode("TSTL"), [base])
        assert data == bytes([0xD5, 0x44, 0xA2, 0x08])

    def test_literal_cannot_be_indexed(self):
        with pytest.raises(enc.EncodeError):
            enc.literal(5).indexed(3)

    def test_branch_byte(self):
        data = enc.encode_instruction(opcode("BNEQ"), [], branch_disp=-2)
        assert data == bytes([0x12, 0xFE])

    def test_branch_word(self):
        data = enc.encode_instruction(opcode("BRW"), [], branch_disp=1000)
        assert data == bytes([0x31, 0xE8, 0x03])

    def test_missing_branch_raises(self):
        with pytest.raises(enc.EncodeError):
            enc.encode_instruction(opcode("BNEQ"), [])

    def test_operand_count_checked(self):
        with pytest.raises(enc.EncodeError):
            enc.encode_instruction(opcode("MOVL"), [enc.register(0)])


class TestInternedOperands:
    """Registers and short literals are shared instances; each must
    encode exactly as a freshly built operand does."""

    KINDS = (opcode("MOVB").specifier_operands[0],
             opcode("MOVL").specifier_operands[1],
             opcode("MOVQ").specifier_operands[0])

    @pytest.mark.parametrize("reg", range(16))
    def test_register_encodes_like_a_fresh_operand(self, reg):
        fresh = enc.Operand(AddressingMode.REGISTER, register=reg)
        interned = enc.register(reg)
        assert interned is enc.register(reg)
        for kind in self.KINDS:
            assert enc.encode_operand(interned, kind) == \
                enc.encode_operand(fresh, kind) == bytes([0x50 | reg])

    @pytest.mark.parametrize("value", range(64))
    def test_literal_encodes_like_a_fresh_operand(self, value):
        fresh = enc.Operand(AddressingMode.SHORT_LITERAL, value=value)
        interned = enc.literal(value)
        assert interned is enc.literal(value)
        for kind in self.KINDS:
            assert enc.encode_operand(interned, kind) == \
                enc.encode_operand(fresh, kind) == bytes([value])

    def test_indexing_an_operand_leaves_it_unchanged(self):
        base = enc.register_deferred(9)
        indexed = base.indexed(7)
        assert base.index_register is None
        assert enc.encode_operand(base, self.KINDS[1]) == bytes([0x69])
        assert enc.encode_operand(indexed, self.KINDS[1]) == \
            bytes([0x47, 0x69])

    def test_out_of_range_literal_rejected(self):
        with pytest.raises(enc.EncodeError):
            enc.literal(64)

    def test_unencodable_mode_rejected_when_built(self):
        with pytest.raises(enc.EncodeError, match="RELATIVE"):
            enc.Operand(AddressingMode.RELATIVE, register=15)


class TestDecode:
    def test_movl_register_to_register(self):
        inst = decode_bytes(bytes([0xD0, 0x50, 0x51]))
        assert inst.mnemonic == "MOVL"
        assert inst.length == 3
        assert inst.specifiers[0].mode is AddressingMode.REGISTER
        assert inst.specifiers[0].register == 0
        assert inst.specifiers[1].register == 1

    def test_decode_immediate(self):
        data = enc.encode_instruction(opcode("MOVL"),
                                      [enc.immediate(0xDEADBEEF),
                                       enc.register(1)])
        inst = decode_bytes(data)
        assert inst.specifiers[0].mode is AddressingMode.IMMEDIATE
        assert inst.specifiers[0].value == 0xDEADBEEF

    def test_decode_absolute(self):
        data = enc.encode_instruction(opcode("TSTL"),
                                      [enc.absolute(0x1000)])
        inst = decode_bytes(data)
        assert inst.specifiers[0].mode is AddressingMode.ABSOLUTE
        assert inst.specifiers[0].value == 0x1000

    def test_decode_branch_target(self):
        inst = decode_bytes(bytes([0x12, 0xFE]), address=0x100)
        assert inst.branch_displacement == -2
        assert inst.branch_target() == 0x100

    def test_reserved_opcode_raises(self):
        with pytest.raises(DecodeError):
            decode_bytes(bytes([0xFF, 0x00, 0x00]))

    def test_case_table_decoded(self):
        data = enc.encode_instruction(
            opcode("CASEL"),
            [enc.register(0), enc.literal(0), enc.literal(2)],
            case_table=[4, 8, 12])
        inst = decode_bytes(data)
        assert inst.case_table == (4, 8, 12)
        assert inst.length == len(data)

    def test_case_nonliteral_limit_rejected(self):
        data = enc.encode_instruction(
            opcode("CASEL"),
            [enc.register(0), enc.literal(0), enc.register(1)],
            case_table=[0])
        with pytest.raises(DecodeError):
            decode_bytes(data)

    def test_double_index_rejected(self):
        with pytest.raises(DecodeError):
            decode_bytes(bytes([0xD5, 0x44, 0x43, 0x52]))


@st.composite
def operand_strategy(draw):
    choice = draw(st.integers(0, 6))
    reg = draw(st.integers(0, 11))
    if choice == 0:
        return enc.literal(draw(st.integers(0, 63)))
    if choice == 1:
        return enc.register(reg)
    if choice == 2:
        return enc.register_deferred(reg)
    if choice == 3:
        return enc.displacement(reg, draw(st.integers(-30000, 30000)))
    if choice == 4:
        return enc.autoincrement(reg)
    if choice == 5:
        return enc.autodecrement(reg)
    return enc.disp_deferred(reg, draw(st.integers(-100, 100)))


class TestRoundTripProperty:
    @given(operand_strategy(), operand_strategy())
    def test_movl_roundtrip(self, src, dst):
        data = enc.encode_instruction(opcode("MOVL"), [src, dst])
        inst = decode_bytes(data)
        assert inst.mnemonic == "MOVL"
        assert inst.length == len(data)
        decoded_src = inst.specifiers[0]
        assert decoded_src.mode is src.mode
        if src.mode is AddressingMode.SHORT_LITERAL:
            assert decoded_src.value == src.value
        elif src.mode in (AddressingMode.DISPLACEMENT,
                          AddressingMode.DISP_DEFERRED):
            assert decoded_src.displacement == src.displacement
        else:
            assert decoded_src.register == src.register

    @given(st.integers(-128, 127))
    def test_branch_roundtrip(self, disp):
        data = enc.encode_instruction(opcode("BEQL"), [], branch_disp=disp)
        inst = decode_bytes(data, address=0x2000)
        assert inst.branch_displacement == disp
        assert inst.branch_target() == 0x2000 + 2 + disp
