"""Instruction encoding: operand descriptions to VAX machine bytes.

The assembler front-end produces :class:`Operand` descriptions; this module
turns an opcode plus operands into the architectural byte encoding that the
decoder (and the simulated I-stream) consumes.

Encoding summary (first specifier byte ``mode<<4 | reg``)::

    modes 0-3   short literal, 6-bit value in the low six bits
    mode  4     index prefix [Rx], followed by the base specifier
    mode  5     register
    mode  6     register deferred
    mode  7     autodecrement
    mode  8     autoincrement; with reg=PC, immediate data follows
    mode  9     autoincrement deferred; with reg=PC, a 4-byte absolute
                address follows
    modes A/C/E displacement (byte/word/long), signed displacement follows
    modes B/D/F displacement deferred
"""

from __future__ import annotations

import struct

from repro.arch.opcodes import OpcodeInfo, OperandKind
from repro.arch.registers import PC
from repro.arch.specifiers import AddressingMode


class EncodeError(Exception):
    """Raised for operands that cannot be encoded as requested."""


class Operand:
    """An assembler-level operand awaiting encoding.

    Build instances with the module-level constructors (:func:`literal`,
    :func:`register`, :func:`displacement`, ...) rather than directly.
    Nothing mutates an operand, so each is encoded once, when built:
    ``encoded`` holds its specifier bytes, index prefix included, or
    None for an immediate, whose size comes from the opcode it is used
    with.  :func:`literal` and :func:`register` hand out one shared
    instance per short literal and per register.
    """

    __slots__ = ("mode", "register", "value", "displacement", "disp_size",
                 "index_register", "encoded")

    def __init__(self, mode, register=0, value=0, displacement=0,
                 disp_size=0, index_register=None):
        self.mode = mode
        self.register = register
        self.value = value
        self.displacement = displacement
        self.disp_size = disp_size
        self.index_register = index_register
        self.encoded = None if mode is AddressingMode.IMMEDIATE \
            else _specifier_bytes(self)

    def indexed(self, index_register: int) -> "Operand":
        """Return a copy of this operand with an ``[Rx]`` index prefix."""
        if self.mode in (AddressingMode.SHORT_LITERAL,
                         AddressingMode.REGISTER,
                         AddressingMode.IMMEDIATE):
            raise EncodeError(f"{self.mode.name} specifiers cannot be indexed")
        return Operand(self.mode, self.register, self.value,
                       self.displacement, self.disp_size, index_register)

    def __repr__(self) -> str:
        return (f"Operand({self.mode.name}, reg={self.register}, "
                f"value={self.value}, disp={self.displacement})")


def literal(value: int) -> Operand:
    """Short literal ``S^#value`` (0..63)."""
    if not 0 <= value <= 63:
        raise EncodeError(f"short literal out of range: {value}")
    return _LITERALS[value]


def register(reg: int) -> Operand:
    """Register mode ``Rn``."""
    if 0 <= reg <= 15:
        return _REGISTERS[reg]
    return Operand(AddressingMode.REGISTER, register=reg)


def register_deferred(reg: int) -> Operand:
    """Register deferred ``(Rn)``."""
    return Operand(AddressingMode.REGISTER_DEFERRED, register=reg)


def autoincrement(reg: int) -> Operand:
    """Autoincrement ``(Rn)+``."""
    return Operand(AddressingMode.AUTOINCREMENT, register=reg)


def autodecrement(reg: int) -> Operand:
    """Autodecrement ``-(Rn)``."""
    return Operand(AddressingMode.AUTODECREMENT, register=reg)


def autoinc_deferred(reg: int) -> Operand:
    """Autoincrement deferred ``@(Rn)+``."""
    return Operand(AddressingMode.AUTOINC_DEFERRED, register=reg)


def immediate(value: int) -> Operand:
    """Immediate ``I^#value`` — constant follows in the I-stream."""
    return Operand(AddressingMode.IMMEDIATE, register=PC, value=value)


def absolute(address: int) -> Operand:
    """Absolute ``@#address``."""
    return Operand(AddressingMode.ABSOLUTE, register=PC, value=address)


def displacement(reg: int, disp: int, size: int = 0) -> Operand:
    """Displacement ``d(Rn)``; ``size`` forces B^/W^/L^ (0 = smallest)."""
    chosen = size or _smallest_disp_size(disp)
    return Operand(AddressingMode.DISPLACEMENT, register=reg,
                   displacement=disp, disp_size=chosen)


def disp_deferred(reg: int, disp: int, size: int = 0) -> Operand:
    """Displacement deferred ``@d(Rn)``."""
    chosen = size or _smallest_disp_size(disp)
    return Operand(AddressingMode.DISP_DEFERRED, register=reg,
                   displacement=disp, disp_size=chosen)


def _smallest_disp_size(disp: int) -> int:
    if -128 <= disp <= 127:
        return 1
    if -32768 <= disp <= 32767:
        return 2
    return 4


_MODE_NIBBLE = {
    AddressingMode.REGISTER: 0x5,
    AddressingMode.REGISTER_DEFERRED: 0x6,
    AddressingMode.AUTODECREMENT: 0x7,
    AddressingMode.AUTOINCREMENT: 0x8,
    AddressingMode.AUTOINC_DEFERRED: 0x9,
}

_DISP_NIBBLE = {1: 0xA, 2: 0xC, 4: 0xE}
_DISP_PACK = {1: "<b", 2: "<h", 4: "<i"}


def _specifier_bytes(op: Operand) -> bytes:
    """The specifier bytes (with any index prefix) of any operand but
    an immediate."""
    mode = op.mode
    if mode is AddressingMode.DISPLACEMENT \
            or mode is AddressingMode.DISP_DEFERRED:
        nibble = _DISP_NIBBLE[op.disp_size]
        if mode is AddressingMode.DISP_DEFERRED:
            nibble += 1
        out = bytes(((nibble << 4) | (op.register & 0xF),)) \
            + struct.pack(_DISP_PACK[op.disp_size], op.displacement)
    elif mode is AddressingMode.SHORT_LITERAL:
        out = bytes((op.value & 0x3F,))
    elif mode is AddressingMode.ABSOLUTE:
        out = b"\x9f" + struct.pack("<I", op.value & 0xFFFFFFFF)
    else:
        nibble = _MODE_NIBBLE.get(mode)
        if nibble is None:
            raise EncodeError(f"cannot encode {mode.name} specifiers")
        out = bytes(((nibble << 4) | (op.register & 0xF),))
    if op.index_register is None:
        return out
    return bytes((0x40 | (op.index_register & 0xF),)) + out


#: The shared short-literal and register operands.
_LITERALS = tuple(Operand(AddressingMode.SHORT_LITERAL, value=value)
                  for value in range(64))
_REGISTERS = tuple(Operand(AddressingMode.REGISTER, register=reg)
                   for reg in range(16))


def encode_operand(op: Operand, kind: OperandKind) -> bytes:
    """Encode one operand specifier (with any index prefix) to bytes."""
    if op.encoded is not None:
        return op.encoded
    return b"\x8f" + _pack_immediate(op.value, kind)


def _pack_immediate(value: int, kind: OperandKind) -> bytes:
    size = kind.size
    fmt = {1: "<B", 2: "<H", 4: "<I", 8: "<Q"}[size]
    return struct.pack(fmt, value & ((1 << (8 * size)) - 1))


def encode_instruction(info: OpcodeInfo, operands, branch_disp=None,
                       case_table=None) -> bytes:
    """Encode a whole instruction.

    Args:
        info: the opcode.
        operands: one :class:`Operand` per specifier operand of ``info``.
        branch_disp: signed displacement for opcodes with a branch operand,
            relative to the address *after* the encoded instruction.
        case_table: for CASEx only, a sequence of signed word displacements
            (limit + 1 entries) appended after the specifiers.

    Returns:
        The architectural byte encoding.
    """
    spec_kinds = info.specifier_operands
    if len(operands) != len(spec_kinds):
        raise EncodeError(
            f"{info.mnemonic} takes {len(spec_kinds)} specifier operands, "
            f"got {len(operands)}")

    out = bytearray([info.value])
    for op, kind in zip(operands, spec_kinds):
        out += encode_operand(op, kind)

    branch_kind = info.branch_operand
    if branch_kind is not None:
        if branch_disp is None:
            raise EncodeError(f"{info.mnemonic} requires a branch displacement")
        fmt = "<b" if branch_kind.dtype == "b" else "<h"
        out += struct.pack(fmt, branch_disp)
    elif branch_disp is not None:
        raise EncodeError(f"{info.mnemonic} takes no branch displacement")

    if info.family == "CASE":
        if case_table is None:
            raise EncodeError(f"{info.mnemonic} requires a case table")
        for disp in case_table:
            out += struct.pack("<h", disp)
    elif case_table is not None:
        raise EncodeError(f"{info.mnemonic} takes no case table")

    return bytes(out)
