"""Exact rationals.

Everything in this package computes over exact rationals; no floating point
is ever introduced. QQ is the stdlib fractions.Fraction; check_int is the
one refusal of an integer parameter, check_ints that of a sequence of them.
"""
from __future__ import annotations

from fractions import Fraction

QQ = Fraction


def check_int(name: str, value, least: int | None = None) -> None:
    """A ValueError naming the parameter when value is no int (a bool is
    none) or is below least: 'negative' for least 0, 'below least' above."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} = {value!r} is not an integer")
    if least is not None and value < least:
        raise ValueError(f"{name} = {value} is " + ("negative" if least == 0 else f"below {least}"))


def check_ints(name: str, values, least: int | None = None) -> tuple:
    """values as a tuple, each entry checked by check_int as name[i]."""
    values = tuple(values)
    for i, value in enumerate(values):
        check_int(f"{name}[{i}]", value, least)
    return values


def backend_name() -> str:
    """The name of the rational type, for run headers."""
    return "fraction"
