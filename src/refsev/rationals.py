"""Exact rationals.

Everything in this package computes over exact rationals; no floating point
is ever introduced. QQ is the stdlib fractions.Fraction; check_int refuses
a float or a bool where a parameter must be an integer.
"""
from __future__ import annotations

from fractions import Fraction

QQ = Fraction


def check_int(name: str, value) -> None:
    """A ValueError naming the parameter when value is no int (a bool is none)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} = {value!r} is not an integer")


def backend_name() -> str:
    """The name of the rational type, for run headers."""
    return "fraction"
