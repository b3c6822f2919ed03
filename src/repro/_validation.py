"""Shared argument-validation helpers.

Every public entry point of :mod:`repro` validates its inputs eagerly so that
configuration mistakes fail with a clear message instead of surfacing as a
NumPy broadcasting error deep inside an experiment sweep.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_finite_non_negative",
    "check_int_in_range",
    "IntegerTypeError",
    "check_probability_vector",
    "check_in_range",
    "as_float_array",
]


def check_positive(name: str, value: float) -> float:
    """Return *value* if it is strictly positive, else raise ``ValueError``."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Return *value* if it is >= 0, else raise ``ValueError``."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_finite_non_negative(name: str, value: float) -> float:
    """Return *value* if it is finite and >= 0, else raise ``ValueError``."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return value


class IntegerTypeError(TypeError, ValueError):
    """A non-integer where an integer is required.

    A ``TypeError`` to generic callers, and a ``ValueError`` so a config
    built from user input reports it like any other bad value.
    """


def check_int_in_range(name: str, value: int, low: int, high: int | None = None) -> int:
    """Return *value* if it is an integer within ``[low, high]``.

    ``high`` may be ``None`` for an unbounded upper end.
    """
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise IntegerTypeError(
            f"{name} must be an integer, got {type(value).__name__}"
        )
    if value < low or (high is not None and value > high):
        bound = f"[{low}, {high}]" if high is not None else f"[{low}, inf)"
        raise ValueError(f"{name} must be in {bound}, got {value}")
    return int(value)


def check_in_range(
    name: str,
    value: float,
    low: float,
    high: float,
    *,
    inclusive: bool = True,
) -> float:
    """Return *value* if it lies in ``[low, high]`` (or ``(low, high)``)."""
    ok = low <= value <= high if inclusive else low < value < high
    if not ok:
        brackets = ("[", "]") if inclusive else ("(", ")")
        raise ValueError(
            f"{name} must be in {brackets[0]}{low}, {high}{brackets[1]}, got {value!r}"
        )
    return float(value)


def as_float_array(name: str, values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Convert *values* to a 1-D float64 array, validating finiteness."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


def check_probability_vector(name: str, values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Validate that *values* is a probability vector (non-negative, sums to 1)."""
    arr = as_float_array(name, values)
    if np.any(arr < 0):
        raise ValueError(f"{name} must be non-negative")
    total = float(arr.sum())
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"{name} must sum to 1 (got {total})")
    return arr
