"""Physical memory: a flat little-endian byte store.

Because the 780's cache is write-through, memory always holds the current
value of every location; the cache model (:mod:`repro.mem.cache`) only
tracks *timing* state (tags), and all data reads and writes land here.

The bytes live in an anonymous mapping rather than a heap buffer: the
OS zero-fills each page on first touch, so a machine costs the host
only the pages its run reaches (an unrun boot touches well under 1 MB
of the stock 8 MB).  The mapping must be private (``ACCESS_COPY``, i.e.
``MAP_PRIVATE``; an anonymous mapping is otherwise shared): pool
workers are forked, and a worker that inherits a machine must never
write into its parent's memory, nor see the parent's later writes.
"""

from __future__ import annotations

import mmap


class MemoryError780(Exception):
    """Raised for accesses outside the configured physical memory."""


class PhysicalMemory:
    """A flat, zero-initialised physical memory of ``size`` bytes."""

    def __init__(self, size: int) -> None:
        self.size = size
        self._data = mmap.mmap(-1, size, access=mmap.ACCESS_COPY)

    def load_image(self, base: int, data: bytes) -> None:
        """Copy an assembled image (or any bytes) into memory at ``base``."""
        end = base + len(data)
        if end > self.size:
            raise MemoryError780(
                f"image [{base:#x}, {end:#x}) exceeds memory size "
                f"{self.size:#x}")
        self._data[base:end] = data

    def read_byte(self, addr: int) -> int:
        """Read one byte."""
        if addr >= self.size:
            raise MemoryError780(f"read past end of memory: {addr:#x}")
        return self._data[addr]

    def read(self, addr: int, size: int) -> int:
        """Read ``size`` bytes little-endian as an unsigned integer."""
        if addr + size > self.size:
            raise MemoryError780(f"read past end of memory: {addr:#x}")
        return int.from_bytes(self._data[addr:addr + size], "little")

    def write(self, addr: int, value: int, size: int) -> None:
        """Write ``size`` bytes little-endian."""
        if addr + size > self.size:
            raise MemoryError780(f"write past end of memory: {addr:#x}")
        self._data[addr:addr + size] = (value & ((1 << (8 * size)) - 1)) \
            .to_bytes(size, "little")

    def read_block(self, addr: int, size: int) -> bytes:
        """Read a raw byte range (used by tests and the loader)."""
        return self._data[addr:addr + size]
