"""Unit and property tests for repro.geometry.bits."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.geometry.bits import (
    bit_at,
    bit_length,
    ceil_log2,
    deinterleave_bits,
    gray_decode,
    gray_encode,
    interleave_bits,
    suffix_from,
    suffix_vector,
    truncate_to_msb,
    truncate_vector,
)


def reference_interleave_bits(coords, bits):
    """The bit-at-a-time interleave the table-driven one replaced (the oracle)."""
    if bits < 0:
        raise ValueError(f"bits must be non-negative, got {bits}")
    key = 0
    for x in coords:
        if x < 0 or x.bit_length() > bits:
            raise ValueError(f"coordinate {x} does not fit in {bits} bits")
    for level in range(bits - 1, -1, -1):
        for x in coords:
            key = (key << 1) | ((x >> level) & 1)
    return key


class TestBitLength:
    def test_paper_example(self):
        # The paper: b(9) = 4.
        assert bit_length(9) == 4

    def test_zero(self):
        assert bit_length(0) == 0

    def test_one(self):
        assert bit_length(1) == 1

    def test_powers_of_two(self):
        for k in range(20):
            assert bit_length(1 << k) == k + 1
            assert bit_length((1 << k) - 1) == k

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bit_length(-1)


class TestBitAt:
    def test_bits_of_ten(self):
        assert [bit_at(0b1010, j) for j in range(4)] == [0, 1, 0, 1]

    def test_high_index_is_zero(self):
        assert bit_at(5, 100) == 0

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            bit_at(5, -1)


class TestTruncateToMsb:
    def test_basic(self):
        assert truncate_to_msb(0b110101, 3) == 0b110000

    def test_more_bits_than_present(self):
        assert truncate_to_msb(7, 10) == 7

    def test_exact_bits(self):
        assert truncate_to_msb(0b1011, 4) == 0b1011

    def test_one_bit(self):
        assert truncate_to_msb(0b1011, 1) == 0b1000

    def test_zero_bits_rejected(self):
        with pytest.raises(ValueError):
            truncate_to_msb(5, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            truncate_to_msb(-3, 2)

    @given(st.integers(min_value=1, max_value=2**40), st.integers(min_value=1, max_value=45))
    def test_truncation_never_increases_and_keeps_msb(self, x, m):
        t = truncate_to_msb(x, m)
        assert 0 < t <= x
        assert bit_length(t) == bit_length(x)
        # The dropped part is less than 2^(b - m).
        if m < bit_length(x):
            assert x - t < (1 << (bit_length(x) - m))

    @given(st.integers(min_value=1, max_value=2**40), st.integers(min_value=1, max_value=45))
    def test_truncation_is_idempotent(self, x, m):
        assert truncate_to_msb(truncate_to_msb(x, m), m) == truncate_to_msb(x, m)


class TestSuffixFrom:
    def test_basic(self):
        assert suffix_from(0b110101, 2) == 0b110100

    def test_zero_index_is_identity(self):
        assert suffix_from(12345, 0) == 12345

    def test_large_index_zeroes_everything(self):
        assert suffix_from(5, 10) == 0

    @given(st.integers(min_value=0, max_value=2**40), st.integers(min_value=0, max_value=45))
    def test_is_multiple_of_power(self, x, i):
        assert suffix_from(x, i) % (1 << i) == 0

    @given(st.integers(min_value=0, max_value=2**40), st.integers(min_value=0, max_value=45))
    def test_difference_below_power(self, x, i):
        assert 0 <= x - suffix_from(x, i) < (1 << i)

    def test_vector_version(self):
        assert suffix_vector((5, 12, 7), 2) == (4, 12, 4)

    def test_truncate_vector(self):
        assert truncate_vector((0b1101, 0b101), 2) == (0b1100, 0b100)


class TestLogHelpers:
    def test_ceil_log2(self):
        assert ceil_log2(1) == 0
        assert ceil_log2(9) == 4
        assert ceil_log2(8) == 3

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ceil_log2(0)


class TestInterleave:
    def test_paper_example_2d(self):
        # Section 5: cell (3, 5) = (011, 101) has key 011011 = 27.
        assert interleave_bits((0b011, 0b101), 3) == 27

    def test_paper_example_square_a(self):
        # Section 5: square "a" at (010, 011) has key 001101 = 13.
        assert interleave_bits((0b010, 0b011), 3) == 13

    def test_zero_bits(self):
        assert interleave_bits((0, 0), 0) == 0

    def test_coordinate_too_large_rejected(self):
        with pytest.raises(ValueError):
            interleave_bits((8,), 3)

    def test_roundtrip_small(self):
        for x in range(8):
            for y in range(8):
                key = interleave_bits((x, y), 3)
                assert deinterleave_bits(key, 2, 3) == (x, y)

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=8),
        st.data(),
    )
    def test_roundtrip_property(self, dims, bits, data):
        coords = tuple(
            data.draw(st.integers(min_value=0, max_value=(1 << bits) - 1)) for _ in range(dims)
        )
        key = interleave_bits(coords, bits)
        assert deinterleave_bits(key, dims, bits) == coords
        assert 0 <= key < (1 << (dims * bits))

    def test_interleave_is_monotone_in_high_bits(self):
        # Cells in the "upper right" standard cube have larger keys than cells
        # in the "lower left" one: the first interleaved bit dominates.
        low = interleave_bits((3, 3), 3)  # both high bits 0
        high = interleave_bits((4, 4), 3)  # both high bits 1
        assert high > low

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=70),
        st.data(),
    )
    def test_equals_bit_loop_reference(self, dims, bits, data):
        # Byte boundaries, empty coordinates and keys wider than 64 bits.
        coords = tuple(
            data.draw(st.integers(min_value=0, max_value=(1 << bits) - 1)) for _ in range(dims)
        )
        assert interleave_bits(coords, bits) == reference_interleave_bits(coords, bits)
        assert interleave_bits(list(coords), bits) == reference_interleave_bits(coords, bits)

    def test_equals_reference_at_full_width(self):
        for dims in range(1, 6):
            for bits in (7, 8, 9, 16, 17, 21, 64, 70):
                top = (1 << bits) - 1
                for coords in ((top,) * dims, tuple(top >> i for i in range(dims))):
                    expected = reference_interleave_bits(coords, bits)
                    assert interleave_bits(coords, bits) == expected
        assert interleave_bits((), 5) == reference_interleave_bits((), 5) == 0

    @pytest.mark.parametrize(
        "coords,bits",
        [((-1,), 3), ((8,), 3), ((0, 9), 3), ((1 << 70,), 70), ((3, -2, 1 << 9), 8), ((1,), 0)],
    )
    def test_errors_are_the_reference_errors(self, coords, bits):
        with pytest.raises(ValueError) as expected:
            reference_interleave_bits(coords, bits)
        with pytest.raises(ValueError) as got:
            interleave_bits(coords, bits)
        assert str(got.value) == str(expected.value)

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError, match="bits must be non-negative, got -1"):
            interleave_bits((0,), -1)

    def test_deinterleave_rejects_oversized_key(self):
        with pytest.raises(ValueError):
            deinterleave_bits(1 << 7, 2, 3)


class TestGrayCode:
    def test_sequence(self):
        assert [gray_encode(i) for i in range(8)] == [0, 1, 3, 2, 6, 7, 5, 4]

    @given(st.integers(min_value=0, max_value=2**32))
    def test_roundtrip(self, x):
        assert gray_decode(gray_encode(x)) == x

    @given(st.integers(min_value=0, max_value=2**20 - 2))
    def test_adjacent_codes_differ_in_one_bit(self, x):
        diff = gray_encode(x) ^ gray_encode(x + 1)
        assert diff != 0 and (diff & (diff - 1)) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gray_encode(-1)
        with pytest.raises(ValueError):
            gray_decode(-1)
