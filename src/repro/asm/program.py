"""Programmatic VAX code construction.

:class:`ProgramBuilder` is the back-end shared by the text assembler and
the synthetic workload generators: callers emit instructions, labels and
data; :meth:`ProgramBuilder.assemble` resolves branch and case-table
fixups in a second pass and returns an :class:`Image`.

Because every VAX instruction in this subset has a statically known length
(branch displacements have fixed width per opcode and CASE limits are
short literals), a single sizing pass followed by a fixup patch pass is
exact — no relaxation iterations are needed.
"""

from __future__ import annotations

import struct

from repro.arch import encode as enc
from repro.arch.opcodes import opcode as opcode_info


class AssemblyError(Exception):
    """Raised for unresolvable labels or out-of-range displacements."""


class Image:
    """An assembled program image.

    Attributes:
        base: virtual base address of the image.
        data: the raw bytes.
        symbols: label name -> absolute virtual address.
        entry: address of the entry point (the ``start`` label when
            present, otherwise the base).
    """

    def __init__(self, base: int, data: bytes, symbols: dict) -> None:
        self.base = base
        self.data = data
        self.symbols = dict(symbols)
        self.entry = self.symbols.get("start", base)

    @property
    def end(self) -> int:
        """First address past the image."""
        return self.base + len(self.data)

    def address_of(self, label: str) -> int:
        """Absolute address of a label."""
        if label not in self.symbols:
            raise AssemblyError(f"undefined label: {label!r}")
        return self.symbols[label]


class _Fixup:
    """A displacement field to patch once label addresses are known."""

    __slots__ = ("offset", "size", "label", "anchor_offset")

    def __init__(self, offset: int, size: int, label: str,
                 anchor_offset: int) -> None:
        self.offset = offset          # where the field lives in the image
        self.size = size              # 1 or 2 bytes
        self.label = label            # target label
        self.anchor_offset = anchor_offset  # displacement is target - anchor


class LabelRef:
    """A forward/backward label reference usable as a branch target."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


_RANGE = {1: (-128, 127), 2: (-32768, 32767)}


class ProgramBuilder:
    """Accumulates code and data, then assembles to an :class:`Image`."""

    def __init__(self) -> None:
        self._chunks = bytearray()
        self._labels: dict = {}
        self._fixups: list = []

    @property
    def offset(self) -> int:
        """Current emission offset from the image base."""
        return len(self._chunks)

    def label(self, name: str) -> None:
        """Define ``name`` at the current offset."""
        if name in self._labels:
            raise AssemblyError(f"duplicate label: {name!r}")
        self._labels[name] = self.offset

    def emit(self, mnemonic: str, *operands) -> None:
        """Emit a non-branching instruction with the given operands."""
        info = opcode_info(mnemonic)
        if info.branch_operand is not None:
            raise AssemblyError(
                f"{mnemonic} needs a branch target; use branch()")
        self._chunks += enc.encode_instruction(info, operands)

    def branch(self, mnemonic: str, target, *operands) -> None:
        """Emit a branch-displacement instruction.

        ``target`` is a label name, a :class:`LabelRef`, or an absolute
        integer displacement (relative to the instruction end).
        """
        info = opcode_info(mnemonic)
        kind = info.branch_operand
        if kind is None:
            raise AssemblyError(f"{mnemonic} takes no branch displacement")
        size = 1 if kind.dtype == "b" else 2
        body = enc.encode_instruction(info, list(operands), branch_disp=0)
        self._chunks += body
        end = self.offset
        field_offset = end - size
        if isinstance(target, int):
            self._patch(field_offset, size, target)
        else:
            name = target.name if isinstance(target, LabelRef) else target
            self._fixups.append(_Fixup(field_offset, size, name, end))

    def case(self, mnemonic: str, selector, base, limit, targets) -> None:
        """Emit a CASEx instruction.

        ``limit`` must be a short-literal operand; ``targets`` is a list of
        ``limit+1`` label names (or LabelRefs) for the displacement table.
        """
        info = opcode_info(mnemonic)
        table = [0] * len(targets)
        body = enc.encode_instruction(info, [selector, base, limit],
                                      case_table=table)
        table_bytes = 2 * len(targets)
        start = self.offset
        self._chunks += body
        table_offset = start + len(body) - table_bytes
        # CASE displacements are relative to the start of the table.
        for i, target in enumerate(targets):
            name = target.name if isinstance(target, LabelRef) else target
            self._fixups.append(
                _Fixup(table_offset + 2 * i, 2, name, table_offset))

    def data(self, payload: bytes) -> None:
        """Emit raw data bytes."""
        self._chunks += payload

    def longword(self, value: int) -> None:
        """Emit one little-endian longword of data."""
        self._chunks += struct.pack("<I", value & 0xFFFFFFFF)

    def space(self, nbytes: int, fill: int = 0) -> None:
        """Reserve ``nbytes`` bytes of ``fill``."""
        self._chunks += bytes([fill]) * nbytes

    def align(self, boundary: int = 4) -> None:
        """Pad with NOP-safe zero bytes to an address boundary."""
        while self.offset % boundary:
            self._chunks.append(0)

    def _patch(self, offset: int, size: int, value: int) -> None:
        lo, hi = _RANGE[size]
        if not lo <= value <= hi:
            raise AssemblyError(
                f"branch displacement {value} out of range for "
                f"{size}-byte field")
        fmt = "<b" if size == 1 else "<h"
        self._chunks[offset:offset + size] = struct.pack(fmt, value)

    def assemble(self, base: int) -> Image:
        """Resolve fixups against ``base`` and produce the final image."""
        for fixup in self._fixups:
            if fixup.label not in self._labels:
                raise AssemblyError(f"undefined label: {fixup.label!r}")
            target = self._labels[fixup.label]
            self._patch(fixup.offset, fixup.size,
                        target - fixup.anchor_offset)
        symbols = {name: base + off for name, off in self._labels.items()}
        return Image(base, bytes(self._chunks), symbols)
