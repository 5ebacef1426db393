"""Exact rationals.

Everything in this package computes over exact rationals; no floating point
is ever introduced. QQ is the stdlib fractions.Fraction.
"""
from __future__ import annotations

from fractions import Fraction

QQ = Fraction


def backend_name() -> str:
    """The name of the rational type, for run headers."""
    return "fraction"
