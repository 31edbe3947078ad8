"""The I-Fetch stage and its 8-byte Instruction Buffer (IB).

The IB makes a cache reference whenever at least one byte is empty,
fetching the aligned longword containing the next I-stream address; when
the data arrives (possibly much later on a cache miss) the IB accepts as
many bytes as it then has room for (§4.1).  Because it may re-reference a
longword it only partially accepted, the IB averages well under four bytes
per reference — the paper measured ~2.2 references per instruction
delivering ~1.7 bytes each, and this model reproduces that mechanism
directly rather than assuming the numbers.

I-stream references translate through the TB.  An I-stream TB miss does
not trap immediately: a flag is set and filling stops; the EBOX services
the miss only when it actually runs out of IB bytes (§2.1).

The IB has one outstanding cache reference; the fill port loses to the
EBOX on cycles where the EBOX itself references memory.
"""

from __future__ import annotations

from repro.vm.address import PAGE_SHIFT


class InstructionBuffer:
    """IB state plus the autonomous I-Fetch fill engine."""

    def __init__(self, mem, tb, translator, params) -> None:
        self._mem = mem
        self._tb = tb
        self._translator = translator
        # A machine without a prefetching I-Fetch engine (ib_prefetch
        # False) has zero capacity: the fill engine is permanently idle
        # (count >= capacity holds at 0) and the EBOX treats decoded
        # bytes as free (see EBox._ib_free).
        self.capacity = params.ib_bytes if params.ib_prefetch else 0
        self.count = 0
        self.prefetch_va = 0
        #: in-flight fill: (ready_cycle, fetch_va) or None.
        self.pending = None
        #: VA whose I-stream translation missed the TB; filling is blocked
        #: until the EBOX services it.
        self.tb_miss_va = None
        # statistics (the paper's §4.1 events)
        self.references = 0
        self.bytes_delivered = 0
        self.flushes = 0

    def reset_stats(self) -> None:
        """Zero reference statistics."""
        self.references = 0
        self.bytes_delivered = 0
        self.flushes = 0

    def flush(self, target_va: int) -> None:
        """Redirect the I-stream (taken branch / REI / context switch)."""
        self.count = 0
        self.pending = None
        self.prefetch_va = target_va & 0xFFFFFFFF
        self.tb_miss_va = None
        self.flushes += 1

    def clear_tb_miss(self) -> None:
        """Resume filling after the EBOX serviced an I-stream TB miss."""
        self.tb_miss_va = None

    def tick(self, now: int, port_free: bool) -> None:
        """Advance the fill engine by one cycle ending at ``now``.

        ``port_free`` is False on cycles where the EBOX referenced memory
        (the EBOX wins the cache port).
        """
        if self.pending is not None:
            ready, va = self.pending
            if ready <= now:
                take = 4 - (va & 3)
                room = self.capacity - self.count
                if take > room:
                    take = room
                self.count += take
                self.bytes_delivered += take
                self.prefetch_va = (va + take) & 0xFFFFFFFF
                self.pending = None
            return
        if not port_free or self.count >= self.capacity:
            return
        if self.tb_miss_va is not None:
            return
        va = self.prefetch_va
        pfn = self._tb.lookup(va, stream="i")
        if pfn is None:
            self.tb_miss_va = va
            return
        pa = (pfn << PAGE_SHIFT) | (va & (1 << PAGE_SHIFT) - 1)
        ready = self._mem.ifetch(pa & ~3, now)
        self.references += 1
        self.pending = (ready, va)

    def take(self, nbytes: int) -> None:
        """Consume decoded bytes (caller has ensured availability)."""
        if nbytes > self.count:
            raise AssertionError(
                f"IB underflow: take {nbytes} with {self.count} available")
        self.count -= nbytes
