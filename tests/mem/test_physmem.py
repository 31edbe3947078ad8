"""The physical memory contract: zero-filled, bounded, private, lazy.

The bytes live in an anonymous private mapping.  A fresh memory reads
zero everywhere, every accessor keeps its bounds check, a forked worker
never shares writes with its parent in either direction, and building a
machine costs the host only the pages it touches.
"""

import gc
import os

import pytest

from repro.machines.registry import get_machine
from repro.mem.physmem import MemoryError780, PhysicalMemory

SIZE = 1 << 20


class TestSameBehaviour:
    def test_fresh_memory_reads_zero(self):
        mem = PhysicalMemory(SIZE)
        for addr in (0, SIZE // 2, SIZE - 1):
            assert mem.read_byte(addr) == 0
        assert mem.read(SIZE - 4, 4) == 0
        assert mem.read_block(0, 16) == bytes(16)

    def test_accessors_round_trip(self):
        mem = PhysicalMemory(SIZE)
        mem.write(0x100, 0x1122334455667788, 8)
        assert mem.read(0x100, 8) == 0x1122334455667788
        assert mem.read(0x100, 2) == 0x7788
        assert mem.read_byte(0x107) == 0x11
        mem.write(0x200, -1, 2)      # masked to the width
        assert mem.read(0x200, 4) == 0xFFFF
        mem.load_image(SIZE - 3, b"\x01\x02\x03")
        assert mem.read_block(SIZE - 3, 3) == b"\x01\x02\x03"
        assert mem.read(SIZE - 3, 3) == 0x030201

    def test_accessors_refuse_past_the_end(self):
        mem = PhysicalMemory(SIZE)
        with pytest.raises(MemoryError780):
            mem.read_byte(SIZE)
        with pytest.raises(MemoryError780):
            mem.read(SIZE - 3, 4)
        with pytest.raises(MemoryError780):
            mem.write(SIZE - 1, 0, 2)
        with pytest.raises(MemoryError780):
            mem.load_image(SIZE - 2, b"abc")
        # A refused write leaves memory as it was.
        assert mem.read_block(SIZE - 2, 2) == bytes(2)

    def test_read_block_stops_at_the_end(self):
        """read_block is a raw slice: it clips rather than raises."""
        mem = PhysicalMemory(SIZE)
        mem.load_image(SIZE - 2, b"\xaa\xbb")
        assert mem.read_block(SIZE - 2, 8) == b"\xaa\xbb"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestPrivateAcrossFork:
    def test_writes_never_cross_a_fork(self):
        """The child's write stays out of the parent, and the parent's
        write after the fork stays out of the child."""
        mem = PhysicalMemory(SIZE)
        mem.write(0x1000, 0x11111111, 4)
        to_child_r, to_child_w = os.pipe()
        to_parent_r, to_parent_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(to_child_w)
                os.close(to_parent_r)
                mem.write(0x1000, 0x22222222, 4)
                os.write(to_parent_w, b"w")   # the child has written
                os.read(to_child_r, 1)        # the parent has written
                if (mem.read(0x1000, 4) == 0x22222222
                        and mem.read(0x2000, 4) == 0):
                    status = 0
            finally:
                os._exit(status)
        os.close(to_child_r)
        os.close(to_parent_w)
        try:
            assert os.read(to_parent_r, 1) == b"w"
            after_child = mem.read(0x1000, 4)
            mem.write(0x2000, 0x33333333, 4)
            os.write(to_child_w, b"w")
        finally:
            _, status = os.waitpid(pid, 0)
            os.close(to_child_w)
            os.close(to_parent_r)
        assert after_child == 0x11111111
        assert os.waitstatus_to_exitcode(status) == 0


def resident_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="needs /proc/self/statm")
class TestLazy:
    MACHINES = 20
    #: A stock machine has 8 MB of memory; building one without
    #: touching it costs well under a third of a megabyte.
    LIMIT = 2 << 20

    def test_building_a_machine_touches_none_of_its_memory(self):
        spec = get_machine("vax780")
        spec.build()        # warm the per-process caches first
        gc.collect()
        gc.disable()
        try:
            before = resident_bytes()
            machines = [spec.build() for _ in range(self.MACHINES)]
            grown = resident_bytes() - before
        finally:
            gc.enable()
        assert len(machines) == self.MACHINES
        assert machines[0].mem.memory.size == 8 * 1024 * 1024
        assert grown / self.MACHINES < self.LIMIT
