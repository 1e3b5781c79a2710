"""Argument validation helpers.

The public constructors in :mod:`repro.core` validate their inputs eagerly so
that configuration errors surface where they are made rather than deep inside
a solver.  These helpers keep the error messages uniform.
"""

from __future__ import annotations

from typing import Sized


def require_positive(value: float, name: str) -> float:
    """Ensure ``value`` is finite and strictly positive, returning it unchanged."""
    if not 0 < value < float("inf"):  # NaN fails both comparisons
        raise ValueError(f"{name} must be finite and positive; got {value!r}")
    return value


def require_non_negative(value: float, name: str) -> float:
    """Ensure ``value`` is greater than or equal to zero."""
    if value < 0:
        raise ValueError(f"{name} must be non-negative; got {value!r}")
    return value


def require_in_unit_interval(value: float, name: str) -> float:
    """Ensure ``value`` lies in the closed interval ``[0, 1]``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1]; got {value!r}")
    return value


def require_probability_open(value: float, name: str) -> float:
    """Ensure ``value`` is a probability usable in log space: ``[0, 1)``.

    Confidences and reliability thresholds of exactly 1.0 are rejected because
    ``-ln(1 - 1.0)`` is infinite: no finite plan can guarantee them.
    """
    if not 0.0 <= value < 1.0:
        raise ValueError(f"{name} must lie in [0, 1); got {value!r}")
    return value


def require_non_empty(collection: Sized, name: str) -> Sized:
    """Ensure a collection has at least one element."""
    if len(collection) == 0:
        raise ValueError(f"{name} must not be empty")
    return collection
