"""Tests for saturating fixed-point array operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fixedpoint import (
    Q_1_7_8,
    QFormat,
    add,
    from_float,
    mac,
    multiply,
    quantize_float,
    to_float,
)
from repro.fixedpoint.array import saturate

reals = st.floats(min_value=-200.0, max_value=200.0,
                  allow_nan=False, allow_infinity=False)
in_range = st.floats(min_value=-100.0, max_value=100.0,
                     allow_nan=False, allow_infinity=False)


class TestConversion:
    def test_round_trip_exact_values(self):
        values = np.array([0.0, 1.0, -1.0, 0.5, -0.00390625, 127.0])
        assert np.array_equal(to_float(from_float(values)), values)

    def test_rounding_to_nearest(self):
        # 0.001 is closer to 0/256 than to 1/256.
        assert from_float(0.001) == 0
        assert from_float(0.003) == 1

    def test_positive_saturation(self):
        assert from_float(500.0) == Q_1_7_8.max_raw

    def test_negative_saturation(self):
        assert from_float(-500.0) == Q_1_7_8.min_raw

    def test_saturates_to_the_right_end_beyond_int64(self):
        # rint(x * scale) overflows int64 here; the clip must come first.
        huge = np.array([1e17, 1e300, np.inf, -1e17, -1e300, -np.inf])
        assert from_float(huge).tolist() == [Q_1_7_8.max_raw] * 3 + [
            Q_1_7_8.min_raw] * 3
        assert from_float(np.inf) == Q_1_7_8.max_raw
        assert from_float(-np.inf) == Q_1_7_8.min_raw

    def test_nan_maps_to_min_raw(self):
        assert from_float(np.nan) == Q_1_7_8.min_raw
        assert from_float(np.array([np.nan, 1.0])).tolist() == [
            Q_1_7_8.min_raw, 256]
        assert quantize_float(np.nan) == Q_1_7_8.min_value

    def test_half_lsb_ties_round_to_even(self):
        lsb = Q_1_7_8.resolution
        ties = np.array([0.5, 1.5, 2.5, -0.5, -1.5, -2.5]) * lsb
        assert from_float(ties).tolist() == [0, 2, 2, 0, -2, -2]
        # The largest and smallest raw values are reached exactly.
        assert from_float(Q_1_7_8.max_value + 0.5 * lsb) == Q_1_7_8.max_raw
        assert from_float(Q_1_7_8.min_value - 0.5 * lsb) == Q_1_7_8.min_raw

    def test_scalar_in_scalar_out(self):
        assert isinstance(from_float(0.5), np.int64)
        assert isinstance(quantize_float(0.3), np.float64)

    def test_quantize_equals_round_trip_and_keeps_input(self):
        rng = np.random.default_rng(3)
        values = np.concatenate([rng.normal(0.0, 60.0, 4000),
                                 [np.inf, -np.inf, np.nan, 1e300, -0.0]])
        before = values.copy()
        quantized = quantize_float(values)
        np.testing.assert_array_equal(
            quantized, to_float(from_float(values)))
        np.testing.assert_array_equal(values, before)
        assert quantized is not values

    def test_array_shape_preserved(self):
        x = np.zeros((3, 4, 5))
        assert from_float(x).shape == (3, 4, 5)

    @given(value=reals)
    @settings(max_examples=200)
    def test_quantize_error_bounded(self, value):
        quantized = quantize_float(value)
        if Q_1_7_8.min_value <= value <= Q_1_7_8.max_value:
            assert abs(quantized - value) <= Q_1_7_8.resolution / 2

    @given(value=reals)
    @settings(max_examples=200)
    def test_quantize_idempotent(self, value):
        once = quantize_float(value)
        assert quantize_float(once) == once

    @given(value=reals)
    @settings(max_examples=200)
    def test_quantize_monotone_within_range(self, value):
        higher = quantize_float(value + 1.0)
        assert higher >= quantize_float(value)


class TestArithmetic:
    def test_add_plain(self):
        a = from_float(1.5)
        b = from_float(2.25)
        assert to_float(add(a, b)) == 3.75

    def test_add_saturates(self):
        a = from_float(100.0)
        assert to_float(add(a, a)) == pytest.approx(Q_1_7_8.max_value)

    def test_multiply_exact(self):
        a = from_float(0.5)
        b = from_float(3.0)
        assert to_float(multiply(a, b)) == 1.5

    def test_multiply_truncates_toward_negative(self):
        # (1/256) * (1/256) = 1/65536, far below resolution -> 0;
        # the negative product truncates to -1/256 (arithmetic shift).
        tiny = from_float(Q_1_7_8.resolution)
        assert multiply(tiny, tiny) == 0
        assert multiply(-tiny, tiny) == -1

    def test_mac_accumulates(self):
        acc = from_float(1.0)
        result = mac(acc, from_float(2.0), from_float(3.0))
        assert to_float(result) == 7.0

    def test_mac_saturates(self):
        acc = from_float(127.0)
        result = mac(acc, from_float(10.0), from_float(10.0))
        assert result == Q_1_7_8.max_raw

    @given(a=in_range, b=in_range)
    @settings(max_examples=200)
    def test_add_commutative(self, a, b):
        ra, rb = from_float(a), from_float(b)
        assert add(ra, rb) == add(rb, ra)

    @given(a=in_range, b=in_range)
    @settings(max_examples=200)
    def test_multiply_commutative(self, a, b):
        ra, rb = from_float(a), from_float(b)
        assert multiply(ra, rb) == multiply(rb, ra)

    @given(a=in_range)
    @settings(max_examples=100)
    def test_multiply_by_one_is_identity(self, a):
        ra = from_float(a)
        assert multiply(ra, from_float(1.0)) == ra

    @given(raw=st.integers(min_value=-10**9, max_value=10**9))
    @settings(max_examples=200)
    def test_saturate_within_bounds(self, raw):
        result = int(saturate(np.int64(raw)))
        assert Q_1_7_8.min_raw <= result <= Q_1_7_8.max_raw
        if Q_1_7_8.min_raw <= raw <= Q_1_7_8.max_raw:
            assert result == raw


class TestOtherFormats:
    def test_multiply_respects_format(self):
        fmt = QFormat(integer_bits=3, fraction_bits=4)
        a = from_float(1.5, fmt)
        b = from_float(2.0, fmt)
        assert to_float(multiply(a, b, fmt), fmt) == 3.0

    def test_saturation_respects_format(self):
        fmt = QFormat(integer_bits=2, fraction_bits=4)
        assert to_float(from_float(100.0, fmt), fmt) == fmt.max_value
