import pytest

from refsev.rationals import QQ
from refsev.ylaurent import YLaurent, YL_ONE, YL_ZERO, qnum, ring_at


def test_qnum_one_is_one():
    assert qnum(1) == YL_ONE


def test_qnum_two():
    # [2]_y = y^(1/2) + y^(-1/2)
    assert qnum(2) == YLaurent({1: 1, -1: 1})


def test_qnum_three_at_minus_one():
    assert qnum(3).at_minus_one() == -1


@pytest.mark.parametrize("n", range(1, 12))
def test_qnum_values_and_symmetry(n):
    q = qnum(n)
    assert q.at_one() == n
    assert q.is_palindromic()
    assert ring_at(1).at(q) == n
    if n % 2 == 0:
        assert q.at_minus_one() == 0  # y^(1/2) = i
    else:
        assert q.at_minus_one() == (-1) ** ((n - 1) // 2)
    assert ring_at(-1).at(q) == q.at_minus_one()


def test_at_minus_one_refuses_non_real_values():
    # y^(1/2) = i: y^(1/2) alone has the value i, y^(1/2) - y^(-1/2) has 2i
    with pytest.raises(ValueError, match="not real"):
        YLaurent({1: 1}).at_minus_one()
    with pytest.raises(ValueError, match="not real"):
        YLaurent({1: 1, -1: -1}).at_minus_one()
    # palindromic elements are real there: y^(3/2) + y^(-3/2) -> -i + i
    assert YLaurent({3: 1, -3: 1}).at_minus_one() == 0
    assert YLaurent({4: 2, 0: 1, -4: 2}).at_minus_one() == 5


def test_qnum_rejects_nonpositive():
    with pytest.raises(ValueError):
        qnum(0)
    with pytest.raises(ValueError):
        qnum(-3)


def test_arithmetic_exact():
    a = YLaurent({2: QQ(1, 3), 0: 2})
    b = YLaurent({-2: QQ(2, 3), 2: QQ(-1, 3)})
    assert a + b == YLaurent({0: 2, -2: QQ(2, 3)})
    assert (a - a).is_zero()
    assert a * YL_ZERO == YL_ZERO
    assert a * 3 == YLaurent({2: 1, 0: 6})


def test_mul_matches_pow():
    a = qnum(2) * qnum(3)
    assert a * a == a ** 2
    assert a ** 0 == YL_ONE


def test_divexact_roundtrip():
    a = qnum(5) * qnum(2) * qnum(2)
    b = qnum(2) * qnum(2)
    assert a.divexact(b) == qnum(5)


def test_divexact_rejects_inexact():
    with pytest.raises(ValueError):
        (qnum(2) + 1).divexact(YLaurent({2: 1, 0: -1}))


def test_mirror_and_dy():
    a = YLaurent({3: 2, -1: 5})
    assert a.mirror() == YLaurent({-3: 2, 1: 5})
    assert a.dy() == YLaurent({3: 3, -1: QQ(-5, 2)})


def test_integrality_predicate():
    assert YLaurent({2: 1, -4: 3}).is_integral()
    assert not qnum(2).is_integral()


def test_serialization_roundtrip():
    a = YLaurent({3: QQ(-7, 2), 0: 4, -3: QQ(-7, 2)})
    assert YLaurent.from_triples(a.to_triples()) == a


def test_refined_degree_shape():
    # products of squared quantum numbers: palindromic, nonnegative, integral
    m = (qnum(2) * qnum(2)) * (qnum(3) * qnum(3))
    assert m.is_palindromic()
    assert m.is_integral()
    assert all(c > 0 and c.denominator == 1 for c in m.terms.values())
    assert m.at_one() == 4 * 9
