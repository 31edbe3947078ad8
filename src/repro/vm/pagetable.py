"""VAX page tables, stored in simulated physical memory.

Each region (P0, P1 per process; S0 shared) has a linear page table of
4-byte PTEs at a physical base address.  The TB-miss micro-routine fetches
the PTE *through the cache*, which is what gives the paper its observation
that PTE reads often miss (3.5 read-stall cycles per TB miss).

PTE format (simplified from the architecture): bit 31 = valid, low 21 bits
= page frame number.  Protection fields are not modeled; an invalid PTE
raises :class:`PageFault`, which the executive services by making the page
resident.

The real VAX places process page tables in S0 *virtual* space (so a
process-PTE fetch can itself TB-miss).  This model keeps all page tables
physical — a documented single-level simplification; the dominant cost the
paper measures (a cache-visible PTE read per TB miss) is preserved.
"""

from __future__ import annotations

import struct

from repro.vm.address import (P0, P1, S0, PAGE_SHIFT, region_of, vpn_of)

PTE_VALID = 0x80000000
PFN_MASK = (1 << 21) - 1


def pte_run(pfn: int, count: int) -> bytes:
    """``count`` valid PTEs mapping consecutive frames from ``pfn``.

    The bytes :meth:`Translator.map_page` writes for ``count``
    consecutive pages, one packed image for a single bulk write (every
    frame number fits the PFN field, below 1 GiB of memory).
    """
    return struct.pack(f"<{count}I",
                       *range(PTE_VALID | pfn, (PTE_VALID | pfn) + count))


class PageFault(Exception):
    """Raised when translation reaches an invalid (non-resident) PTE."""

    def __init__(self, va: int) -> None:
        super().__init__(f"page fault at {va:#010x}")
        self.va = va


class TranslationNotMapped(Exception):
    """Raised when a VA falls outside its region's page table."""

    def __init__(self, va: int) -> None:
        super().__init__(f"address not mapped: {va:#010x}")
        self.va = va


class RegionTable:
    """One region's linear page table: a physical base and a page count."""

    __slots__ = ("base_pa", "length")

    def __init__(self, base_pa: int, length: int) -> None:
        self.base_pa = base_pa
        self.length = length

    def pte_address(self, vpn: int) -> int:
        """Physical address of the PTE for ``vpn``."""
        return self.base_pa + 4 * vpn


class AddressSpace:
    """The per-process translation context: P0 and P1 region tables.

    The shared S0 table lives in :class:`Translator`; an AddressSpace only
    carries what LDPCTX swaps.
    """

    def __init__(self, asid: int, p0: RegionTable, p1: RegionTable) -> None:
        self.asid = asid
        self.regions = {P0: p0, P1: p1}

    def __repr__(self) -> str:
        return f"AddressSpace(asid={self.asid})"


class Translator:
    """Page-table walker over simulated physical memory."""

    def __init__(self, memory, s0: RegionTable) -> None:
        self._memory = memory
        self.s0 = s0
        self.current_space = None

    def set_space(self, space: AddressSpace) -> None:
        """Install a process address space (LDPCTX)."""
        self.current_space = space

    def region_table(self, va: int) -> RegionTable:
        """The region table governing ``va``."""
        region = region_of(va)
        if region == S0:
            return self.s0
        if self.current_space is None:
            raise TranslationNotMapped(va)
        table = self.current_space.regions.get(region)
        if table is None:
            raise TranslationNotMapped(va)
        return table

    def pte_address(self, va: int) -> int:
        """Physical address of the PTE translating ``va``."""
        table = self.region_table(va)
        vpn = vpn_of(va)
        if vpn >= table.length:
            raise TranslationNotMapped(va)
        return table.pte_address(vpn)

    def read_pte(self, va: int) -> int:
        """Fetch the raw PTE for ``va`` (untimed; timing is the CPU's job)."""
        return self._memory.read(self.pte_address(va), 4)

    def translate(self, va: int) -> int:
        """Translate to a physical address or raise :class:`PageFault`."""
        pte = self.read_pte(va)
        if not pte & PTE_VALID:
            raise PageFault(va)
        return ((pte & PFN_MASK) << PAGE_SHIFT) | (va & (1 << PAGE_SHIFT) - 1)

    # -- mapping helpers used by the executive and tests -------------------

    def map_page(self, va: int, pfn: int, valid: bool = True) -> None:
        """Write the PTE mapping ``va``'s page to frame ``pfn``."""
        pte = (pfn & PFN_MASK) | (PTE_VALID if valid else 0)
        self._memory.write(self.pte_address(va), pte, 4)

    def set_valid(self, va: int, valid: bool) -> None:
        """Flip the valid bit of an existing PTE (page-fault service)."""
        addr = self.pte_address(va)
        pte = self._memory.read(addr, 4)
        if valid:
            pte |= PTE_VALID
        else:
            pte &= ~PTE_VALID & 0xFFFFFFFF
        self._memory.write(addr, pte, 4)
