"""VAX operand specifier addressing modes.

An operand specifier is one or more bytes in the instruction stream that
say where an operand lives.  The first byte's high nibble selects the
addressing mode; the low nibble names a register (or, for modes 0-3, forms
part of a 6-bit short literal).  Mode 4 is an *index prefix*: the indexed
specifier is the index byte followed by a complete base specifier.

Register number 15 (PC) turns the autoincrement family into the
program-counter modes: immediate ``(PC)+``, absolute ``@#``, and the
byte/word/longword *relative* modes used for position-independent code.

Table 4 of the paper reports the dynamic distribution of these modes; the
:attr:`AddressingMode.table4_category` property maps each mode onto the
paper's row labels.
"""

from __future__ import annotations

import enum

from repro.arch.registers import PC


class AddressingMode(enum.Enum):
    """A decoded VAX addressing mode (index handled as a flag, not a mode)."""

    SHORT_LITERAL = "literal"          # modes 0-3: S^#n
    REGISTER = "register"              # mode 5:   Rn
    REGISTER_DEFERRED = "reg_deferred"  # mode 6:   (Rn)
    AUTODECREMENT = "autodecrement"    # mode 7:   -(Rn)
    AUTOINCREMENT = "autoincrement"    # mode 8:   (Rn)+
    IMMEDIATE = "immediate"            # mode 8, Rn=PC: I^#n
    AUTOINC_DEFERRED = "autoinc_deferred"  # mode 9: @(Rn)+
    ABSOLUTE = "absolute"              # mode 9, Rn=PC: @#addr
    DISPLACEMENT = "displacement"      # modes A/C/E: B^d(Rn), W^, L^
    DISP_DEFERRED = "disp_deferred"    # modes B/D/F: @B^d(Rn), @W^, @L^
    RELATIVE = "relative"              # modes A/C/E, Rn=PC
    RELATIVE_DEFERRED = "relative_deferred"  # modes B/D/F, Rn=PC

    @property
    def table4_category(self) -> str:
        """The row of the paper's Table 4 this mode is tallied under."""
        return _TABLE4_CATEGORY[self]


#: Table 4 row labels, in the paper's order.
TABLE4_ROWS = (
    "Register",
    "Short literal",
    "Immediate",
    "Displacement",
    "Register deferred",
    "Autoincrement",
    "Autodecrement",
    "Disp. deferred",
    "Absolute",
    "Autoinc. deferred",
)

_TABLE4_CATEGORY = {
    AddressingMode.REGISTER: "Register",
    AddressingMode.SHORT_LITERAL: "Short literal",
    AddressingMode.IMMEDIATE: "Immediate",
    AddressingMode.DISPLACEMENT: "Displacement",
    AddressingMode.RELATIVE: "Displacement",
    AddressingMode.REGISTER_DEFERRED: "Register deferred",
    AddressingMode.AUTOINCREMENT: "Autoincrement",
    AddressingMode.AUTODECREMENT: "Autodecrement",
    AddressingMode.DISP_DEFERRED: "Disp. deferred",
    AddressingMode.RELATIVE_DEFERRED: "Disp. deferred",
    AddressingMode.ABSOLUTE: "Absolute",
    AddressingMode.AUTOINC_DEFERRED: "Autoinc. deferred",
}


class Specifier:
    """A decoded operand specifier.

    Attributes:
        mode: the :class:`AddressingMode`.
        register: base register number (meaningless for literal/immediate).
        value: short-literal value or immediate constant, if any.
        displacement: signed displacement for displacement/relative modes.
        disp_size: encoded displacement width in bytes (1, 2 or 4).
        index_register: register number of the ``[Rx]`` index prefix, or
            None when the specifier is not indexed.
        length: total encoded length in bytes, including any index prefix,
            displacement and immediate data.
    """

    __slots__ = ("mode", "register", "value", "displacement", "disp_size",
                 "index_register", "length", "end_offset")

    def __init__(self, mode, register=0, value=0, displacement=0,
                 disp_size=0, index_register=None, length=1,
                 end_offset=0):
        self.mode = mode
        self.register = register
        self.value = value
        self.displacement = displacement
        self.disp_size = disp_size
        self.index_register = index_register
        self.length = length
        #: offset from the instruction's first byte to the byte after this
        #: specifier — the PC value the PC-relative modes are based on.
        self.end_offset = end_offset

    @property
    def indexed(self) -> bool:
        """True when an index prefix is present."""
        return self.index_register is not None

    def __repr__(self) -> str:
        parts = [f"Specifier({self.mode.name}, R{self.register}"]
        if self.mode is AddressingMode.SHORT_LITERAL or \
                self.mode is AddressingMode.IMMEDIATE:
            parts = [f"Specifier({self.mode.name}, value={self.value}"]
        elif self.disp_size:
            parts.append(f", disp={self.displacement}")
        if self.indexed:
            parts.append(f", [R{self.index_register}]")
        return "".join(parts) + ")"


def pc_relative_mode(mode: AddressingMode, register: int) -> AddressingMode:
    """Fold PC-based encodings into their architectural PC modes."""
    if register != PC:
        return mode
    if mode is AddressingMode.AUTOINCREMENT:
        return AddressingMode.IMMEDIATE
    if mode is AddressingMode.AUTOINC_DEFERRED:
        return AddressingMode.ABSOLUTE
    if mode is AddressingMode.DISPLACEMENT:
        return AddressingMode.RELATIVE
    if mode is AddressingMode.DISP_DEFERRED:
        return AddressingMode.RELATIVE_DEFERRED
    return mode
