"""Shared utilities: input validation and RNG handling."""

from repro.utils.validation import (
    check_array,
    check_labels,
    check_positive_int,
    check_probability,
    check_random_state,
)

__all__ = [
    "check_array",
    "check_labels",
    "check_positive_int",
    "check_probability",
    "check_random_state",
]
