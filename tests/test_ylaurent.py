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


def test_integral_coefficients_are_ints():
    a = YLaurent({2: QQ(6, 3), 0: QQ(1, 2), -2: 4})
    assert [type(c) for _, c in sorted(a.terms.items())] == [int, QQ, int]
    assert type(YLaurent.const(QQ(4, 2)).terms[0]) is int
    assert type(YLaurent.y_pow(2, QQ(-3, 1)).terms[2]) is int
    assert type((YLaurent({2: QQ(1, 2)}) * 2).terms[2]) is int
    assert type((YLaurent({2: QQ(1, 3)}) + YLaurent({2: QQ(2, 3)})).terms[2]) is int
    assert type(YLaurent({2: QQ(1, 4)}).scale(QQ(8)).terms[2]) is int
    assert type(YL_ONE.terms[0]) is int and YLaurent({0: QQ(1)}).is_one()
    for n in (1, 2, 5):
        q = qnum(n)
        assert all(type(c) is int for c in q.terms.values())
        assert type(q.at_one()) is int and type(q.at_minus_one()) is int
        assert type((q * q + q).coeff(0)) is int
    assert type(a.coeff(7)) is int and a.coeff(7) == 0
    assert a.at_one() == QQ(13, 2) and YL_ZERO.at_one() == 0
    # equality and hashing do not see the type of a coefficient
    b = YLaurent({2: 1})
    b.terms[2] = QQ(1)
    assert b == YLaurent({2: 1}) and hash(b) == hash(YLaurent({2: 1}))
    assert YLaurent.const(3) == 3 and YLaurent.const(3) == QQ(3)


def _no_floats(v):
    return all(type(c) in (int, QQ) for c in v.terms.values())


def test_divisions_are_exact_never_float():
    from refsev.qseries import QSeries, _pow_coeff
    half = YLaurent({2: 3, 0: 1}).divexact(YLaurent.const(2))
    assert half == YLaurent({2: QQ(3, 2), 0: QQ(1, 2)}) and _no_floats(half)
    assert type(YLaurent.const(4).divexact(YLaurent.const(2)).terms[0]) is int
    d = YLaurent({1: 1, 3: 3, -2: 5}).dy()
    assert d == YLaurent({1: QQ(1, 2), 3: QQ(9, 2), -2: -5}) and _no_floats(d)
    # (3 + q) / (2 + 2q) = 3/2 - q + O(q^2)
    s = QSeries([3, 1]) / QSeries([2, 2])
    assert s == QSeries([QQ(3, 2), -1])
    assert all(_no_floats(c) for c in s.coeffs)
    inv = _pow_coeff(YLaurent.y_pow(2, 2), QQ(-2))
    assert inv == YLaurent.y_pow(-4, QQ(1, 4)) and _no_floats(inv)
    p = QSeries([2, 1, 0], trunc=3).pow(-1)  # 1/2 - q/4 + q^2/8
    assert p == QSeries([QQ(1, 2), QQ(-1, 4), QQ(1, 8)])
    assert all(_no_floats(c) for c in p.coeffs)


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


def _naive_sum(ring, triples):
    total = ring.zero
    for f, c, v in triples:
        total = total + f * c * v
    return total


@pytest.mark.parametrize("y", ["sym", 1, -1])
def test_sum_products_is_the_naive_sum(y):
    ring = ring_at(y)
    factors = [YL_ONE, qnum(2), qnum(3) * qnum(2), qnum(4) ** 2]
    values = [qnum(2) * 2, YLaurent({4: 1, 0: -3, -4: 1}), YL_ZERO, qnum(5)]
    triples = [(ring.at(f), c, ring.at(v))
               for f, c, v in zip(factors * 4, (1, 3, -2, 7, 0, 5), values * 4)]
    triples += [(ring.at(f), 6, ring.at(v)) for f in factors for v in values]
    assert ring.sum_products(triples) == _naive_sum(ring, triples)
    # empty input
    empty = ring.sum_products([])
    assert empty == ring.zero and type(empty) is type(ring.zero)
    # terms that cancel, wholly and in part
    v = ring.at(YLaurent({2: 1, -2: 1}))
    assert ring.sum_products([(ring.one, 1, v), (ring.one, -1, v)]) == ring.zero
    part = ring.sum_products([(ring.at(qnum(2)), 1, ring.at(qnum(2))),
                              (ring.one, -1, v)])
    assert part == ring.at(YLaurent.const(2))
    if y == "sym":
        assert part.terms == {0: 2}
        assert ring.sum_products([(ring.one, 1, v), (ring.one, -1, v)]).terms == {}


def test_sum_products_keeps_integral_coefficients_as_ints():
    ring = ring_at("sym")
    triples = [(YL_ONE, 1, YLaurent({2: QQ(1, 3)})),
               (qnum(1), 2, YLaurent({2: QQ(1, 3), 0: QQ(1, 2)})),
               (YL_ONE, 1, YLaurent({0: QQ(1, 2)}))]
    total = ring.sum_products(triples)
    assert total == _naive_sum(ring, triples) == YLaurent({2: 1, 0: QQ(3, 2)})
    assert type(total.terms[2]) is int and type(total.terms[0]) is QQ
    # 2 * 1/2 = 1 from one Fraction times an int
    assert type(ring.sum_products(triples[:2]).terms[0]) is int
    # and so does the product of two Laurent polynomials: 2/3 * 3/2 = 1
    prod = YLaurent({0: QQ(2, 3), 2: QQ(1, 3)}) * YLaurent({0: QQ(3, 2)})
    assert prod.terms == {0: 1, 2: QQ(1, 2)} and type(prod.terms[0]) is int


@pytest.mark.parametrize("y", ["sym", 1, -1])
def test_multiplicity_is_the_product_over_the_edges(y):
    # equal weights share one power and [1]_y = 1 is left out; the weights
    # may come as a generator, read once
    ring = ring_at(y)
    for weights in [(3, 1, 2, 3, 1, 2, 3), (1, 1), (), (2,), (5, 4, 4, 1)]:
        want = ring.one
        for w in weights:
            want = want * ring.at(qnum(w) * qnum(w))
        assert ring.multiplicity(w for w in weights) == want
    assert ring.multiplicity(iter((3, 1, 3))) == ring.qnum_prod(((3, 4),))
    with pytest.raises(ValueError):
        ring.multiplicity((2, 0))  # [0]_y is refused, not dropped as [1]_y is
