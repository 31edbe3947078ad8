"""The 11/780 translation buffer (TB).

128 entries, two-way set associative, split into a *system* half (S0
addresses) and a *process* half (P0/P1) — the organisation studied in
Clark & Emer's companion TB paper (reference [3]).  A hit translates in
the same cycle as the access; a miss raises a microcode trap into the
miss-service routine (see :mod:`repro.ucode.flows_sys`), which fetches the
PTE through the cache and inserts the translation.

LDPCTX invalidates the process half (context switch); the system half
survives across switches.
"""

from __future__ import annotations

import random

from repro.vm.address import global_vpn, is_system_space


class TBStats:
    """Hit/miss counters, split by stream and by half."""

    __slots__ = ("hits", "misses", "d_misses", "i_misses", "flushes")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.d_misses = 0
        self.i_misses = 0
        self.flushes = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.__init__()

class TranslationBuffer:
    """Two-halved, set-associative VPN -> PFN cache."""

    def __init__(self, entries: int, ways: int, seed: int = 11780) -> None:
        if entries % (2 * ways):
            raise ValueError("entries must divide into two halves of ways")
        self.ways = ways
        self.sets = entries // (2 * ways)
        if self.sets & (self.sets - 1):
            raise ValueError("sets per half must be a power of two")
        self._set_mask = self.sets - 1
        self._tag_shift = self.sets.bit_length() - 1
        # _tags/_pfns[half][way][set]; tag -1 means invalid.
        self._tags = [[[-1] * self.sets for _ in range(ways)]
                      for _ in range(2)]
        self._pfns = [[[0] * self.sets for _ in range(ways)]
                      for _ in range(2)]
        #: Flat mirrors of the associative arrays, vpn -> pfn, one per
        #: half.  Lookups have no side effect on the arrays (replacement
        #: is random, decided at insert time only), so a dict hit is
        #: exactly an associative hit — the arrays stay the ground truth
        #: and every mutation updates both.
        self._maps = [{}, {}]
        self._rng = random.Random(seed)
        self.stats = TBStats()

    def _locate(self, va: int):
        half = 1 if is_system_space(va) else 0
        vpn = global_vpn(va)
        index = vpn & self._set_mask
        tag = vpn >> self._tag_shift
        return half, index, tag

    def lookup(self, va: int, stream: str = "d"):
        """Translate ``va``; returns the PFN or None on a TB miss."""
        va &= 0xFFFFFFFF
        pfn = self._maps[va >> 31].get(va >> 9)  # half by VA<31>, VPN
        stats = self.stats
        if pfn is not None:
            stats.hits += 1
            return pfn
        stats.misses += 1
        if stream == "i":
            stats.i_misses += 1
        else:
            stats.d_misses += 1
        return None

    def probe(self, va: int) -> bool:
        """Non-counting presence test (for tests and analysis)."""
        half, index, tag = self._locate(va)
        return any(self._tags[half][way][index] == tag
                   for way in range(self.ways))

    def insert(self, va: int, pfn: int) -> None:
        """Install a translation (the tail of TB-miss service)."""
        half, index, tag = self._locate(va)
        tags = self._tags[half]
        vmap = self._maps[half]
        for way in range(self.ways):
            if tags[way][index] == -1:
                tags[way][index] = tag
                self._pfns[half][way][index] = pfn
                vmap[(tag << self._tag_shift) | index] = pfn
                return
        victim = self._rng.randrange(self.ways)
        old_tag = tags[victim][index]
        vmap.pop((old_tag << self._tag_shift) | index, None)
        tags[victim][index] = tag
        self._pfns[half][victim][index] = pfn
        vmap[(tag << self._tag_shift) | index] = pfn

    def invalidate_process_half(self) -> None:
        """Flush P0/P1 translations (LDPCTX behaviour)."""
        self.stats.flushes += 1
        for way in self._tags[0]:
            for i in range(self.sets):
                way[i] = -1
        self._maps[0].clear()

    def invalidate_all(self) -> None:
        """Flush everything (power-up)."""
        for half in self._tags:
            for way in half:
                for i in range(self.sets):
                    way[i] = -1
        self._maps[0].clear()
        self._maps[1].clear()

    def invalidate_va(self, va: int) -> None:
        """Invalidate a single translation (MTPR TBIS behaviour)."""
        half, index, tag = self._locate(va)
        tags = self._tags[half]
        for way in range(self.ways):
            if tags[way][index] == tag:
                tags[way][index] = -1
        self._maps[half].pop((tag << self._tag_shift) | index, None)
