"""Unit tests for the memory image (repro.mem_image)."""

import numpy as np
import pytest

from repro.mem_image import PAGE_SIZE, AddressError, ArraySpec, MemoryImage


class TestRegistration:
    def test_arrays_are_page_aligned_and_non_overlapping(self):
        image = MemoryImage()
        a = image.add_array("a", np.zeros(1000, dtype=np.int32))
        b = image.add_array("b", np.zeros(1000, dtype=np.float64))
        assert a.base % PAGE_SIZE == 0
        assert b.base % PAGE_SIZE == 0
        assert b.base >= a.end

    def test_duplicate_name_rejected(self):
        image = MemoryImage()
        image.add_array("a", np.zeros(8, dtype=np.int32))
        with pytest.raises(ValueError):
            image.add_array("a", np.zeros(8, dtype=np.int32))

    def test_array_without_data_needs_length_and_elem_size(self):
        image = MemoryImage()
        with pytest.raises(ValueError):
            image.add_array("x")
        spec = image.add_array("x", length=128, elem_size=8)
        assert spec.size_bytes == 1024

    def test_explicit_base_respected(self):
        image = MemoryImage()
        spec = image.add_array("x", np.zeros(4, dtype=np.int32), base=0x5000_0000)
        assert spec.base == 0x5000_0000

    def test_len_and_contains(self):
        image = MemoryImage()
        image.add_array("x", np.zeros(4, dtype=np.int32))
        assert "x" in image
        assert "y" not in image
        assert len(image) == 1


class TestAddressing:
    def test_addr_of_scales_with_element_size(self):
        image = MemoryImage()
        spec = image.add_array("a", np.zeros(100, dtype=np.float64))
        assert image.addr_of("a", 0) == spec.base
        assert image.addr_of("a", 10) == spec.base + 80

    def test_bit_vector_addresses(self):
        image = MemoryImage()
        spec = image.add_array("bits", np.zeros(64, dtype=np.uint8),
                               elem_size=1 / 8, length=512)
        # Bit 0..7 live in the first byte, bit 8 in the second.
        assert spec.addr_of(0) == spec.base
        assert spec.addr_of(7) == spec.base
        assert spec.addr_of(8) == spec.base + 1
        assert spec.size_bytes == 64

    def test_index_of_roundtrip(self):
        image = MemoryImage()
        spec = image.add_array("a", np.zeros(64, dtype=np.int32))
        for index in (0, 1, 33, 63):
            assert spec.index_of(spec.addr_of(index)) == index

    def test_index_of_out_of_range_raises(self):
        image = MemoryImage()
        spec = image.add_array("a", np.zeros(4, dtype=np.int32))
        with pytest.raises(AddressError):
            spec.index_of(spec.base - 1)
        with pytest.raises(IndexError):
            spec.addr_of(4)

    @pytest.mark.parametrize("elem_size", [1 / 8, 0.5, 1, 3, 4, 8, 16, 24])
    def test_addresses_match_addr_of(self, elem_size):
        # Bit vectors, sub-word, odd and wide (feature-row) elements.
        image = MemoryImage()
        image.add_array("pad", np.zeros(5, dtype=np.int32))
        spec = image.add_array("a", length=1000, elem_size=elem_size)
        indices = np.array([0, 1, 7, 8, 9, 333, 998, 999, 8, 0])
        addresses = image.addresses("a", indices)
        assert addresses.dtype == np.int64
        assert addresses.tolist() == [spec.addr_of(int(i)) for i in indices]
        assert image.addresses("a", np.array([], dtype=np.int32)).size == 0

    def test_addresses_reject_out_of_range(self):
        image = MemoryImage()
        image.add_array("a", np.zeros(4, dtype=np.int32))
        for bad in ([0, 4], [-1]):
            with pytest.raises(IndexError):
                image.addresses("a", np.array(bad))

    def test_find_locates_containing_array(self):
        image = MemoryImage()
        a = image.add_array("a", np.zeros(16, dtype=np.int64))
        b = image.add_array("b", np.zeros(16, dtype=np.int64))
        assert image.find(a.base + 8).name == "a"
        assert image.find(b.base).name == "b"
        assert image.find(a.end + 1) is None        # guard page
        assert image.find(0) is None


class TestReadValue:
    def test_read_integer_values(self):
        image = MemoryImage()
        data = np.array([5, 10, 15, 20], dtype=np.int32)
        image.add_array("idx", data)
        assert image.read_value(image.addr_of("idx", 0)) == 5
        assert image.read_value(image.addr_of("idx", 3)) == 20

    def test_read_value_outside_any_array_returns_default(self):
        image = MemoryImage()
        image.add_array("idx", np.array([1, 2], dtype=np.int32))
        assert image.read_value(0x10) is None
        assert image.read_value(0x10, default=-1) == -1

    def test_read_value_without_backing_data_returns_default(self):
        image = MemoryImage()
        spec = image.add_array("raw", length=16, elem_size=8)
        assert image.read_value(spec.base) is None

    def test_data_accessor(self):
        image = MemoryImage()
        data = np.arange(8, dtype=np.int32)
        image.add_array("idx", data)
        assert np.array_equal(image.data("idx"), data)
        spec = image.add_array("raw", length=4, elem_size=4)
        with pytest.raises(ValueError):
            image.data("raw")

    def test_arrays_listing_in_address_order(self):
        image = MemoryImage()
        image.add_array("b", np.zeros(4, dtype=np.int8))
        image.add_array("a", np.zeros(4, dtype=np.int8))
        bases = [spec.base for spec in image.arrays()]
        assert bases == sorted(bases)
