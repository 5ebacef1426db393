import pytest

from refsev.linalg import solve_exact
from refsev.rationals import QQ
from refsev.ylaurent import YLaurent, qnum


# right-hand-side entries: rationals, or Laurent polynomials in y
RHS = [
    pytest.param(lambda c: QQ(c), id="fraction"),
    pytest.param(lambda c: qnum(3).scale(c) + YLaurent.y_pow(1, QQ(c, 2)), id="ylaurent"),
]


@pytest.mark.parametrize("v", RHS)
def test_solve_exact(v):
    # overdetermined and consistent; the first column needs a row swap
    A = [[0, 1, 2], [1, 1, 0], [2, 0, 1], [3, 2, 3]]
    x = [v(3), v(-2), v(QQ(1, 3))]
    b = [sum((xi * QQ(a) for a, xi in zip(row, x)), v(0)) for row in A]
    assert solve_exact(A, b) == x
    with pytest.raises(ValueError, match="underdetermined"):
        solve_exact(A[:2], b[:2])
    with pytest.raises(ValueError, match="rank-deficient"):
        solve_exact([[1, 2], [2, 4], [1, 2]], b[:3])
    b[3] = b[3] + v(1)
    with pytest.raises(ValueError, match="inconsistent"):
        solve_exact(A, b)
