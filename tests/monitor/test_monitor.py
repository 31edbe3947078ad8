"""Tests for the µPC histogram board and its Unibus interface."""

import pytest
from hypothesis import given, strategies as st

from repro.monitor.histogram import Histogram, HistogramBoard
from repro.monitor.unibus import (CSR_CLEAR, CSR_RUN, CSR_SELECT_STALL,
                                  UnibusHistogramInterface)
from repro.ucode.controlstore import CONTROL_STORE_SIZE


class TestBoard:
    def test_counts_accumulate(self):
        board = HistogramBoard(size=8)
        board.count(3)
        board.count(3, 2)
        board.count_stall(3, 5)
        snap = board.snapshot()
        assert snap.executions(3) == 3
        assert snap.stall_cycles(3) == 5

    def test_gating(self):
        board = HistogramBoard(size=8)
        board.enabled = False
        board.count(1)
        board.count_stall(1, 4)
        assert board.snapshot().total_cycles() == 0

    def test_clear(self):
        board = HistogramBoard(size=8)
        board.count(0, 10)
        board.clear()
        assert board.snapshot().total_cycles() == 0

    def test_snapshot_is_independent(self):
        board = HistogramBoard(size=8)
        board.count(0)
        snap = board.snapshot()
        board.count(0)
        assert snap.executions(0) == 1

    def test_passive_counting(self):
        # Counting must be free: no time model, no side effects beyond
        # the counters (the board is "totally passive", §2.2).
        board = HistogramBoard(size=4)
        for _ in range(1000):
            board.count(2)
        assert board.snapshot().executions(2) == 1000


class TestHistogramArithmetic:
    def test_addition_is_composite(self):
        a = Histogram([1, 2], [0, 1])
        b = Histogram([3, 4], [5, 6])
        c = a + b
        assert list(c.nonstalled) == [4, 6]
        assert list(c.stalled) == [5, 7]

    def test_size_mismatch_rejected(self):
        a = Histogram([1], [0])
        b = Histogram([1, 2], [0, 0])
        for left, right in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="different sizes"):
                left + right

    @given(st.lists(st.integers(0, 1000), min_size=4, max_size=4),
           st.lists(st.integers(0, 1000), min_size=4, max_size=4))
    def test_total_cycles_additive(self, ns, stall):
        a = Histogram(ns, stall)
        b = Histogram(stall, ns)
        assert (a + b).total_cycles() == \
            a.total_cycles() + b.total_cycles()

    @given(st.data())
    def test_sums_are_exact_beyond_32_bits(self, data):
        """Elementwise and exact, with counts past 2**32 (a long run's
        busiest buckets), into signed 64-bit count sets."""
        size = data.draw(st.integers(1, 64))
        counts = st.lists(st.integers(0, 2 ** 61), min_size=size,
                          max_size=size)
        a_ns, a_st, b_ns, b_st = (data.draw(counts) for _ in range(4))
        total = Histogram(a_ns, a_st) + Histogram(b_ns, b_st)
        assert list(total.nonstalled) == [x + y for x, y
                                          in zip(a_ns, b_ns)]
        assert list(total.stalled) == [x + y for x, y in zip(a_st, b_st)]
        assert total.nonstalled.typecode == total.stalled.typecode == "q"
        assert total.total_cycles() == \
            sum(a_ns) + sum(a_st) + sum(b_ns) + sum(b_st)

    def test_full_board_composite(self):
        """Five full-size snapshots sum as the paper's composite does."""
        size = CONTROL_STORE_SIZE
        parts = [Histogram([2 ** 33 + i * n for i in range(size)],
                           [n] * size) for n in range(1, 6)]
        total = parts[0]
        for part in parts[1:]:
            total = total + part
        assert total.size == size
        assert total.executions(7) == 5 * 2 ** 33 + 7 * 15
        assert total.stall_cycles(7) == 15
        assert total.total_cycles() == sum(
            sum(part.nonstalled) + sum(part.stalled) for part in parts)


class TestUnibusInterface:
    def test_run_bit_gates_board(self):
        board = HistogramBoard(size=8)
        bus = UnibusHistogramInterface(board)
        bus.write_csr(0)
        assert not board.enabled
        bus.write_csr(CSR_RUN)
        assert board.enabled
        assert bus.read_csr() & CSR_RUN

    def test_clear_command(self):
        board = HistogramBoard(size=8)
        board.count(2, 9)
        bus = UnibusHistogramInterface(board)
        bus.write_csr(CSR_CLEAR | CSR_RUN)
        assert board.snapshot().total_cycles() == 0
        assert board.enabled  # RUN survived the clear pulse

    def test_bucket_readout(self):
        board = HistogramBoard(size=8)
        board.count(5, 7)
        board.count_stall(5, 3)
        bus = UnibusHistogramInterface(board)
        bus.write_csr(CSR_RUN)
        bus.write_address(5)
        assert bus.read_data() == 7
        bus.write_csr(CSR_RUN | CSR_SELECT_STALL)
        assert bus.read_data() == 3

    def test_address_bounds_checked(self):
        bus = UnibusHistogramInterface(HistogramBoard(size=8))
        try:
            bus.write_address(8)
        except ValueError:
            return
        raise AssertionError("expected ValueError")

    def test_block_readout(self):
        board = HistogramBoard(size=4)
        board.count(1, 2)
        board.count_stall(3, 4)
        bus = UnibusHistogramInterface(board)
        assert bus.read_all() == [0, 2, 0, 0]
        assert bus.read_all(stalled=True) == [0, 0, 0, 4]
