"""Readings of an attribution.ShapVector that only tests take: its
nonzero attributions by column, and the output it explains."""

from __future__ import annotations


def phi_of(sv) -> dict[int, float]:
    """The nonzero attributions by column."""
    return {int(col): float(val)
            for col, val in zip(sv.columns, sv.values) if val != 0.0}


def total_of(sv) -> float:
    """base_value + sum(values): the explained output."""
    return sv.base_value + float(sv.values.sum())
