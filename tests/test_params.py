"""MachineParams geometry validation."""

import pytest

from repro.params import MachineParams, VAX780


class TestValidParams:
    def test_stock_machine(self):
        assert VAX780.cache_sets == 512
        assert VAX780.tb_sets_per_half == 32

    @pytest.mark.parametrize("kb", [2, 4, 8, 16, 32])
    def test_cache_size_sweep(self, kb):
        params = VAX780.with_overrides(cache_bytes=kb * 1024)
        assert params.cache_sets == kb * 1024 // 16

    @pytest.mark.parametrize("entries", [32, 64, 128, 256])
    def test_tb_size_sweep(self, entries):
        params = VAX780.with_overrides(tb_entries=entries)
        assert params.tb_sets_per_half == entries // 4

    def test_direct_mapped_cache(self):
        params = VAX780.with_overrides(cache_ways=1)
        assert params.cache_sets == 1024

    def test_zero_recycle_and_penalty_allowed(self):
        params = VAX780.with_overrides(write_recycle=0,
                                       read_miss_penalty=0)
        assert params.write_recycle == 0


class TestInvalidParams:
    def test_cache_not_divisible(self):
        with pytest.raises(ValueError, match="not divisible"):
            VAX780.with_overrides(cache_bytes=5000)

    def test_cache_sets_not_power_of_two(self):
        # 9600 / (2 * 8) = 600 sets: divisible, but not a power of two.
        with pytest.raises(ValueError, match="power of two"):
            VAX780.with_overrides(cache_bytes=9600)

    def test_tb_not_divisible_into_halves(self):
        with pytest.raises(ValueError, match="tb_entries=90"):
            VAX780.with_overrides(tb_entries=90)

    def test_tb_sets_not_power_of_two(self):
        # 100 / (2 * 2) = 25 sets per half.
        with pytest.raises(ValueError, match="power of two"):
            VAX780.with_overrides(tb_entries=100)

    @pytest.mark.parametrize("field", ["memory_bytes", "cache_bytes",
                                       "cache_ways", "tb_entries"])
    def test_zero_and_negative_rejected(self, field):
        with pytest.raises(ValueError, match="positive integer"):
            VAX780.with_overrides(**{field: 0})
        with pytest.raises(ValueError, match="positive integer"):
            VAX780.with_overrides(**{field: -1})

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            VAX780.with_overrides(cache_bytes=8192.0)
        with pytest.raises(ValueError, match="positive integer"):
            VAX780.with_overrides(cache_ways=True)

    def test_negative_stall_cycles_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            VAX780.with_overrides(read_miss_penalty=-1)

    def test_direct_construction_validates_too(self):
        with pytest.raises(ValueError):
            MachineParams(cache_bytes=7)


class TestIntrospection:
    def test_field_names_in_declaration_order(self):
        names = MachineParams.field_names()
        assert names[0] == "memory_bytes"
        assert "cache_bytes" in names
        assert "overlapped_decode" in names
