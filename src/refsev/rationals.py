"""Exact rationals.

Everything in this package computes over exact rationals; no floating point
is ever introduced. QQ is the stdlib fractions.Fraction; check_int is the
one refusal of an integer parameter, check_ints that of a sequence of them,
choose that of one that selects from a finite set; it refuses a value that is
no key, type included (True is not 1), as "{name} must be a, b or c, not {value!r}".
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


def choose(name: str, value, record):
    """record[value] for the key that equals value and has its type; else a ValueError."""
    for key in record:
        if type(key) is type(value) and key == value:
            return record[key]
    *rest, last = map(repr, record)
    keys = f"{', '.join(rest)} or {last}" if rest else last
    raise ValueError(f"{name} must be {keys}, not {value!r}")


def backend_name() -> str:
    """The name of the rational type, for run headers."""
    return "fraction"
