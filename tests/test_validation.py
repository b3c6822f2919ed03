"""Tests for the shared validation helpers."""

import numpy as np
import pytest

from repro._validation import (
    as_float_array,
    check_in_range,
    check_int_in_range,
    check_non_negative,
    check_positive,
    check_probability_vector,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 2.5) == 2.5

    @pytest.mark.parametrize("value", [0, -1, -0.001])
    def test_rejects_non_positive(self, value):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", value)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_positive("x", float("nan"))


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative("x", 0) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="x must be >= 0"):
            check_non_negative("x", -1e-9)


class TestCheckIntInRange:
    def test_accepts_bounds(self):
        assert check_int_in_range("n", 3, 3, 5) == 3
        assert check_int_in_range("n", 5, 3, 5) == 5

    def test_accepts_numpy_integer(self):
        assert check_int_in_range("n", np.int64(4), 1) == 4

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_int_in_range("n", True, 0, 1)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            check_int_in_range("n", 3.0, 1)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            check_int_in_range("n", 6, 3, 5)
        with pytest.raises(ValueError):
            check_int_in_range("n", 2, 3)

    def test_unbounded_above(self):
        assert check_int_in_range("n", 10**9, 0) == 10**9


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range("x", 1.0, 1.0, 2.0) == 1.0

    def test_exclusive_bounds(self):
        with pytest.raises(ValueError):
            check_in_range("x", 1.0, 1.0, 2.0, inclusive=False)


class TestAsFloatArray:
    def test_converts_list(self):
        arr = as_float_array("a", [1, 2, 3])
        assert arr.dtype == np.float64
        np.testing.assert_array_equal(arr, [1.0, 2.0, 3.0])

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            as_float_array("a", np.ones((2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            as_float_array("a", [])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            as_float_array("a", [1.0, np.inf])


class TestCheckProbabilityVector:
    def test_accepts_valid(self):
        arr = check_probability_vector("p", [0.5, 0.3, 0.2])
        assert arr.sum() == pytest.approx(1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            check_probability_vector("p", [1.1, -0.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            check_probability_vector("p", [0.5, 0.4])

    @pytest.mark.parametrize("offset", [0.9e-9, -0.9e-9])
    def test_sum_within_tolerance_passes(self, offset):
        check_probability_vector("p", [0.5, 0.5 + offset])

    @pytest.mark.parametrize("offset", [1.1e-9, -1.1e-9])
    def test_sum_past_tolerance_raises(self, offset):
        with pytest.raises(ValueError, match=r"^p must sum to 1 \(got "):
            check_probability_vector("p", [0.5, 0.5 + offset])

    def test_entry_errors_keep_their_messages(self):
        with pytest.raises(ValueError, match=r"^p must be non-negative$"):
            check_probability_vector("p", [1.5, -0.5])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(
                ValueError, match=r"^p must contain only finite values$"
            ):
                check_probability_vector("p", [0.5, bad])
