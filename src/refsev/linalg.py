"""Exact linear algebra over the rationals (tiny systems only)."""
from __future__ import annotations

from .rationals import QQ


def solve_exact(A, b):
    """Solve A x = b by Gaussian elimination over exact rationals.

    A is a list of rows (each a list) of rationals. The entries of b need
    only +, - and multiplication by a rational, so they may be rationals or
    ring elements such as YLaurent. A may be overdetermined; returns the
    unique solution and raises ValueError when the system is
    underdetermined, rank-deficient or inconsistent.
    """
    rows = [[QQ(x) for x in row] for row in A]
    vals = list(b)
    nrow = len(rows)
    ncol = len(rows[0]) if rows else 0
    if nrow < ncol:
        raise ValueError("underdetermined system")
    for r in range(ncol):
        piv = next((k for k in range(r, nrow) if rows[k][r] != 0), None)
        if piv is None:
            raise ValueError("rank-deficient system")
        rows[r], rows[piv] = rows[piv], rows[r]
        vals[r], vals[piv] = vals[piv], vals[r]
        inv = 1 / rows[r][r]
        rows[r] = pr = [x * inv for x in rows[r]]
        vals[r] = vals[r] * inv
        for k in range(nrow):
            if k != r and rows[k][r] != 0:
                f = rows[k][r]
                rows[k] = [a - f * p for a, p in zip(rows[k], pr)]
                vals[k] = vals[k] - vals[r] * f
    # rows past the pivots are zero in A, so overdetermined data must leave
    # a zero residual there
    if any(vals[ncol:]):
        raise ValueError("inconsistent system (nonzero residual)")
    return vals[:ncol]
