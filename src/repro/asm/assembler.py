"""A small two-pass text assembler for the simulated VAX subset.

The syntax follows VAX MACRO conventions closely enough to be familiar::

    ; comments run to end of line
    start:
        movl    #100, r0        ; immediate / short literal (auto-sized)
        clrl    r1
    loop:
        addl2   r0, r1
        movl    4(r2), r3       ; byte displacement (auto-sized)
        movl    @#counter, r4   ; absolute, label-resolved
        movl    table[r0], r5   ; indexed absolute
        sobgtr  r0, loop
        chmk    #5
        halt
    counter:
        .long   0
    table:
        .space  400

Operand forms: ``#n`` (short literal when 0..63 and reads allow it,
immediate otherwise; force with ``s^#`` / ``i^#``), ``rN``/``ap``/``fp``/
``sp``/``pc``, ``(rN)``, ``(rN)+``, ``-(rN)``, ``@(rN)+``, ``d(rN)``,
``@d(rN)`` (force width with ``b^``/``w^``/``l^``), ``@#addr``, bare
``label`` (absolute), and an optional ``[rx]`` index suffix on any memory
form.  Directives: ``.byte``, ``.word``, ``.long``, ``.space``, ``.align``,
``.ascii``.

Pass 1 sizes every statement against the labels of the previous
sizing (every label at 0 the first time), and repeats until no label
moves: an operand that names a label, such as ``#label`` or
``label(r1)``, can change size with the label's value.  Pass 2 encodes
with the settled symbol table, so a branch's displacement is checked
on its own line.  Source that does not assemble, or whose layout never
settles, raises :class:`SourceError` naming the line.
"""

from __future__ import annotations

import re
import struct
from contextlib import contextmanager

from repro.arch import encode as enc
from repro.arch.opcodes import OPCODES_BY_NAME, opcode as opcode_info
from repro.arch.registers import register_number
from repro.asm.program import AssemblyError, Image, ProgramBuilder
from repro.errors import ApiError

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):\s*(.*)$")
_NAME_RE = re.compile(r"^[A-Za-z_.$][\w.$]*$")
_DISP_RE = re.compile(r"^(?:([bwl])\^)?([^()]+)\((\w+)\)$", re.IGNORECASE)
_INDEX_RE = re.compile(r"^(.*)\[(\w+)\]$")

#: Sizing passes before a layout that still moves is refused.
MAX_SIZING_PASSES = 16


def _parse_int(text: str, symbols: dict) -> int:
    """Parse an integer literal, symbol, or ``symbol+offset`` expression."""
    text = text.strip()
    for op in ("+", "-"):
        # Split additive expressions (but not a leading sign).
        idx = text.rfind(op)
        if idx > 0:
            left, right = text[:idx], text[idx + 1:]
            try:
                lhs = _parse_int(left, symbols)
                rhs = _parse_int(right, symbols)
            except AssemblyError:
                continue
            return lhs + rhs if op == "+" else lhs - rhs
    if _NAME_RE.match(text) and text.lower() not in ("pc", "sp", "fp", "ap"):
        try:
            register_number(text)
        except ValueError:
            if text in symbols:
                return symbols[text]
            raise AssemblyError(f"undefined symbol: {text!r}")
    try:
        if text.lower().startswith("^x"):
            return int(text[2:], 16)
        return int(text, 0)
    except ValueError:
        raise AssemblyError(f"cannot parse integer: {text!r}")


def _split_operands(text: str) -> list:
    """Split an operand field on commas, respecting parentheses."""
    operands = []
    depth = 0
    current = []
    for ch in text:
        if ch == "," and depth == 0:
            operands.append("".join(current).strip())
            current = []
            continue
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        current.append(ch)
    tail = "".join(current).strip()
    if tail:
        operands.append(tail)
    return operands


class SourceError(AssemblyError, ApiError):
    """Source text that does not assemble (bad input: CLI exit 2)."""


@contextmanager
def _line(lineno: int):
    """Raise what the statement on ``lineno`` fails with as a
    :class:`SourceError` naming the line."""
    try:
        yield
    except (AssemblyError, enc.EncodeError, ArithmeticError, IndexError,
            KeyError, ValueError, struct.error) as exc:
        raise SourceError(f"line {lineno}: {exc}") from exc


class Assembler:
    """Parses assembly text and produces an :class:`Image`."""

    def __init__(self, text: str, base: int) -> None:
        self._lines = text.splitlines()
        self._base = base

    def assemble(self) -> Image:
        """Size until the labels settle, encode, return the image."""
        statements = self._parse()
        symbols = {text: 0 for kind, text, _ in statements if kind == "label"}
        for _ in range(MAX_SIZING_PASSES):
            laid_out = self._pass(statements, symbols, sizing=True).symbols
            if laid_out == symbols:
                return self._pass(statements, symbols)
            previous, symbols = symbols, laid_out
        lineno = next(lineno for kind, text, lineno in statements
                      if kind == "label" and previous[text] != symbols[text])
        raise SourceError(f"line {lineno}: label layout does not settle "
                          f"after {MAX_SIZING_PASSES} sizing passes")

    # -- parsing ---------------------------------------------------------

    def _parse(self) -> list:
        statements = []
        for lineno, raw in enumerate(self._lines, start=1):
            line = raw.split(";", 1)[0].strip()
            while line:
                match = _LABEL_RE.match(line)
                if match:
                    statements.append(("label", match.group(1), lineno))
                    line = match.group(2).strip()
                    continue
                statements.append(("stmt", line, lineno))
                line = ""
        return statements

    # -- the passes ---------------------------------------------------------

    def _pass(self, statements, symbols, sizing: bool = False) -> Image:
        """Pass 1 (``sizing``, every branch 0) lays out the labels; pass
        2 encodes against them."""
        builder = ProgramBuilder()
        for kind, text, lineno in statements:
            with _line(lineno):
                if kind == "label":
                    builder.label(text)
                else:
                    self._emit_statement(builder, text, symbols, sizing)
        return builder.assemble(self._base)

    def _emit_statement(self, builder, text, symbols,
                        sizing: bool = False) -> None:
        parts = text.split(None, 1)
        mnemonic = parts[0].lower()
        field = parts[1] if len(parts) > 1 else ""
        if mnemonic.startswith("."):
            self._emit_directive(builder, mnemonic, field, symbols)
            return
        info = opcode_info(mnemonic)
        operand_texts = _split_operands(field)
        if info.family == "CASE":
            self._emit_case(builder, info, operand_texts, symbols, sizing)
            return
        if info.branch_operand is not None:
            if not operand_texts:
                raise AssemblyError(f"{info.mnemonic} needs a target")
            *operand_texts, target = operand_texts
            operands = [self._parse_operand(t, symbols)
                        for t in operand_texts]
            # The displacement runs from the end of this instruction.
            end = self._base + builder.offset + len(
                enc.encode_instruction(info, operands, branch_disp=0))
            builder.branch(info.mnemonic, 0 if sizing else
                           _parse_int(target, symbols) - end, *operands)
            return
        operands = [self._parse_operand(t, symbols)
                    for t in operand_texts]
        builder.emit(info.mnemonic, *operands)

    def _emit_case(self, builder, info, operand_texts, symbols,
                   sizing) -> None:
        if len(operand_texts) < 3:
            raise AssemblyError(f"{info.mnemonic} needs selector, base, "
                                f"limit and targets")
        selector = self._parse_operand(operand_texts[0], symbols)
        base = self._parse_operand(operand_texts[1], symbols)
        limit = self._parse_operand(operand_texts[2], symbols)
        target_field = ",".join(operand_texts[3:]).strip().strip("()")
        targets = [t.strip() for t in target_field.split(",") if t.strip()]
        for target in targets:
            _parse_int(target, symbols)     # each a defined label
        if sizing:
            targets = [0] * len(targets)
            table = list(targets)
            builder.data(enc.encode_instruction(
                info, [selector, base, limit], case_table=table))
        else:
            builder.case(info.mnemonic, selector, base, limit, targets)

    def _emit_directive(self, builder, name, field, symbols) -> None:
        if name == ".byte":
            for tok in _split_operands(field):
                builder.data(struct.pack("<B", _parse_int(tok, symbols) & 0xFF))
        elif name == ".word":
            for tok in _split_operands(field):
                builder.data(struct.pack("<H",
                                         _parse_int(tok, symbols) & 0xFFFF))
        elif name == ".long":
            for tok in _split_operands(field):
                builder.longword(_parse_int(tok, symbols))
        elif name == ".space":
            builder.space(_parse_int(field, symbols))
        elif name == ".align":
            builder.align(_parse_int(field, symbols))
        elif name == ".ascii":
            builder.data(field.strip().strip('"').encode("latin-1"))
        else:
            raise AssemblyError(f"unknown directive: {name}")

    # -- operand parsing ---------------------------------------------------

    def _parse_operand(self, text: str, symbols: dict):
        text = text.strip()
        index_register = None
        match = _INDEX_RE.match(text)
        if match and not text.startswith("-("):
            text, index_name = match.group(1).strip(), match.group(2)
            index_register = register_number(index_name)

        operand = self._parse_base_operand(text, symbols)
        if index_register is not None:
            operand = operand.indexed(index_register)
        return operand

    def _parse_base_operand(self, text: str, symbols: dict):
        lowered = text.lower()
        # forced short literal / immediate
        if lowered.startswith("s^#"):
            return enc.literal(_parse_int(text[3:], symbols))
        if lowered.startswith("i^#"):
            return enc.immediate(_parse_int(text[3:], symbols))
        if text.startswith("#"):
            value = _parse_int(text[1:], symbols)
            if 0 <= value <= 63:
                return enc.literal(value)
            return enc.immediate(value)
        if text.startswith("@#"):
            return enc.absolute(_parse_int(text[2:], symbols))
        if lowered.startswith("-("):
            return enc.autodecrement(register_number(text[2:-1]))
        if text.startswith("@(") and text.endswith(")+"):
            return enc.autoinc_deferred(register_number(text[2:-2]))
        if text.startswith("(") and text.endswith(")+"):
            return enc.autoincrement(register_number(text[1:-2]))
        if text.startswith("(") and text.endswith(")"):
            return enc.register_deferred(register_number(text[1:-1]))
        deferred = text.startswith("@")
        body = text[1:] if deferred else text
        match = _DISP_RE.match(body)
        if match:
            force, disp_text, reg_name = match.groups()
            disp = _parse_int(disp_text, symbols)
            size = {"b": 1, "w": 2, "l": 4}[force.lower()] if force else 0
            reg = register_number(reg_name)
            if deferred:
                return enc.disp_deferred(reg, disp, size)
            return enc.displacement(reg, disp, size)
        if deferred:
            raise AssemblyError(f"cannot parse operand: {text!r}")
        try:
            return enc.register(register_number(text))
        except ValueError:
            pass
        # bare symbol or integer: absolute reference
        return enc.absolute(_parse_int(text, symbols))


def assemble_text(text: str, base: int = 0x200) -> Image:
    """Assemble ``text`` at virtual address ``base`` and return the image."""
    return Assembler(text, base).assemble()
