import functools
import random

import pytest

from oracles import (compose_termwise, exp_termwise, log_termwise, mul_termwise,
                     pow_termwise)
from refsev.modular import (ddgtilde2, delta_tilde, dgtilde2, eta, theta2, theta2_of_qsq,
                            theta_y)
from refsev.qseries import QSeries, TruncationError, compose, compose_inverse
from refsev.rationals import QQ
from refsev.ylaurent import YLaurent

random.seed(20260808)


def rand_series(trunc, lead=0, unit=False, span=2):
    coeffs = []
    for i in range(trunc - lead):
        if unit and i == 0:
            coeffs.append(YLaurent.const(1))
            continue
        coeffs.append(
            YLaurent({k: QQ(random.randint(-4, 4)) for k in range(-span, span + 1)})
        )
    return QSeries(coeffs, lead=lead, trunc=trunc)


def test_mul_identity():
    a = rand_series(9)
    assert (a * QSeries.one(9)).agrees_with(a)


def test_monomial_cancellation():
    num = QSeries([1, 1], lead=1, trunc=9)
    assert (num / QSeries.monomial(1, trunc=9)).agrees_with(QSeries([1, 1], trunc=8))


def test_eta_quotient_is_theta():
    # eta(q)^2/eta(q^2) = 1 - 2q + 2q^4 - 2q^9 + ...
    K = 16
    e = eta(K)
    got = e * e / e.subs_qpow(2)
    assert got.offset24 == 0
    assert got.agrees_with(theta2_of_qsq(K))


def test_geometric_series():
    inv = QSeries([1, 1], trunc=10).pow(-1)
    expect = QSeries([(-1) ** n for n in range(10)], trunc=10)
    assert inv.agrees_with(expect)


def test_pow_zero():
    a = rand_series(7, unit=True)
    assert a.pow(0).agrees_with(QSeries.one(7))


def test_sqrt_of_refined_product_leads_with_q():
    # Delta-tilde and D(DGtilde2) both start at q with coefficient 1
    K = 8
    prod = delta_tilde(K) * ddgtilde2(K)
    root = prod.pow(QQ(1, 2))
    assert root.lead == 1 and root.offset24 == 0
    assert root.coeff_at(1).is_one()
    assert (root * root).agrees_with(prod)


def test_exp_log_roundtrip():
    s = QSeries([1, 1, 1], trunc=9)
    assert s.log().exp().agrees_with(s)
    for _ in range(5):
        u = rand_series(8, unit=True)
        assert u.log().exp().agrees_with(u)


def test_log_requires_unit():
    with pytest.raises(ValueError):
        QSeries([2, 1], trunc=5).log()
    with pytest.raises(ValueError):
        QSeries([1], lead=1, trunc=5).log()


def test_pow_inverse_pairs():
    for _ in range(5):
        u = rand_series(8, unit=True)
        r = QQ(random.randint(1, 5), random.choice((1, 2, 3)))
        assert (u.pow(r) * u.pow(-r)).agrees_with(QSeries.one(8))


def test_fractional_pow_needs_unit_lead():
    s = QSeries([2, 1], trunc=6)
    with pytest.raises(ValueError):
        s.pow(QQ(1, 2))


def test_fractional_pow_lattice_violation():
    s = QSeries([1], lead=0, trunc=4, offset24=1)  # q^(1/24) * 1
    with pytest.raises(ValueError):
        s.pow(QQ(1, 5))


def test_leibniz_rule():
    for _ in range(4):
        a, b = rand_series(8), rand_series(8)
        assert (a * b).D().agrees_with(a.D() * b + a * b.D())


def test_d_operator_counts_offset():
    s = QSeries.monomial(0, trunc=4, offset24=3)  # q^(1/8)
    assert s.D().coeff_at(QQ(1, 8)) == YLaurent.const(QQ(1, 8))


def test_offsets_add_under_mul():
    e = eta(8)
    assert (e * e).offset24 == 2
    assert (e * e / e).offset24 == 1


def test_compose_inverse_identity():
    t = QSeries([1], lead=1, trunc=7)
    assert compose_inverse(QSeries([1], lead=1, trunc=7)).agrees_with(t)


def test_compose_inverse_of_point_series_low_orders():
    # the compositional inverse of the point series begins
    #   t - ((y^2+4y+1)/y) t^2 + ((y^4+14y^3+30y^2+14y+1)/y^2) t^3
    g = compose_inverse(dgtilde2(6))
    assert g.coeff_at(1).is_one()
    assert g.coeff_at(2) == YLaurent({2: -1, 0: -4, -2: -1})
    assert g.coeff_at(3) == YLaurent({4: 1, 2: 14, 0: 30, -2: 14, -4: 1})


def test_compose_inverse_roundtrip_random():
    for _ in range(5):
        a = rand_series(7, lead=1)
        coeffs = list(a.coeffs)
        coeffs[0] = YLaurent.const(1)
        a = QSeries(coeffs, lead=1, trunc=7)
        g = compose_inverse(a)
        t = QSeries([1], lead=1, trunc=7)
        assert compose(a, g).agrees_with(t)
        assert compose(g, a).agrees_with(t)


def _naive_compose(outer, inner):
    # sum_k b_k inner^k, cut where compose's result is known
    n = min(outer.trunc, inner.trunc)
    acc, power = QSeries.zero(n), QSeries.one(n)
    for k in range(n):
        acc = acc + power.scale(outer.coeff_index(k))
        power = power * inner
    return acc.truncate(n)


@pytest.mark.parametrize("outer_lead", [0, 1, 2])
@pytest.mark.parametrize("outer_trunc, inner_trunc", [(5, 9), (9, 5), (7, 7)])
def test_compose_matches_naive_sum(outer_lead, outer_trunc, inner_trunc):
    rng = random.Random(outer_lead * 100 + outer_trunc * 10 + inner_trunc)

    def series(lead, trunc):
        return QSeries([YLaurent({e: rng.randint(-3, 3) for e in (-1, 0, 1)})
                        for _ in range(lead, trunc)], lead=lead, trunc=trunc)

    outer = series(outer_lead, outer_trunc)
    for inner_lead in (1, 2):
        inner = series(inner_lead, inner_trunc)
        assert compose(outer, inner) == _naive_compose(outer, inner)


def test_compose_refuses_laurent_outer():
    with pytest.raises(ValueError, match="power series outer"):
        compose(QSeries([1, 2, 3], lead=-1), QSeries([1], lead=1, trunc=5))


def test_compose_inverse_at_low_truncations():
    c = YLaurent({2: 1, 0: 4, -2: 1})
    t2 = QSeries([1], lead=1, trunc=2)
    assert compose_inverse(t2) == t2
    # a = t + c t^2 inverts to t - c t^2 mod t^3
    assert compose_inverse(QSeries([1, c], lead=1)) == QSeries([1, -c], lead=1)


def test_compose_inverse_roundtrip_trunc_12():
    t = QSeries([1], lead=1, trunc=12)
    for a in (dgtilde2(12), dgtilde2(12).specialize_y(-1)):
        g = compose_inverse(a)
        assert g.trunc == 12
        assert compose(a, g) == t
        assert compose(g, a) == t


def test_coeff_at():
    assert QSeries.one(3).coeff_at(0).is_one()
    s = QSeries([5], lead=2, trunc=7, offset24=3)
    assert s.coeff_at(QQ(1, 2)).is_zero()  # off the lattice but below trunc
    with pytest.raises(TruncationError):
        s.coeff_at(10)


def test_division_by_known_zero():
    with pytest.raises(ZeroDivisionError):
        QSeries.one(5) / QSeries.zero(5)


def test_truncation_bound_after_division():
    a = QSeries([1, 1], trunc=2)
    b = QSeries([1, 1, 1], trunc=3)
    q = a / b  # known only mod q^2
    with pytest.raises(TruncationError):
        q.coeff_at(2)


def test_half_step_lattice():
    # theta_2(q) lives on half-integer q-powers; a product, a sum or a
    # comparison with an integer-step series is refused, naming both lattices
    from refsev.modular import theta2
    th = theta2(10)
    assert th.step24 == 12
    assert th.coeff_at(QQ(1, 2)) == YLaurent.const(-2)
    whole = QSeries([1, 1], trunc=5)
    for op in (QSeries.__mul__, QSeries.__add__, QSeries.first_difference):
        with pytest.raises(ValueError, match=r"\(0, 12\) and \(0, 24\)"):
            op(th, whole)


def test_one_lattice_per_operation():
    # offsets add under * and /, but + and first_difference need equal
    # offsets; == compares the stored data and never raises
    from refsev.modular import theta2, theta_y
    th, e = theta_y(6), eta(6)
    assert (th * e).offset24 == 4 and (th / e).offset24 == 2
    for op in (QSeries.__add__, QSeries.__sub__, QSeries.first_difference):
        with pytest.raises(ValueError, match=r"\(3, 24\) and \(1, 24\)"):
            op(th, e)
    with pytest.raises(ValueError, match=r"\(0, 12\) and \(0, 24\)"):
        theta2(6) / QSeries.one(6)
    assert th != e and theta2(3) != theta2_of_qsq(6) and th == theta_y(6)


def test_specialize_y():
    s = dgtilde2(6)
    at1 = s.specialize_y(1)
    assert at1.coeff_at(2) == YLaurent.const(6)  # 2*1 + 1*[2]_1^2
    atm1 = s.specialize_y(-1)
    assert atm1.coeff_at(2) == YLaurent.const(2)  # [2]_{-1} = 0


def test_json_roundtrip():
    s = dgtilde2(5)
    assert QSeries.from_dict(s.to_dict()).agrees_with(s)
    assert QSeries.from_dict(s.to_dict()) == s


def test_product_with_a_known_zero_operand_at_offsets():
    # O(q^t) times a series led by q^l is O(q^(t + l)), on the sum of the
    # offsets brought back into [0, step24)
    a = QSeries([2, 0, 1], lead=-1, trunc=3, offset24=13)
    z = QSeries.zero(4, offset24=17)
    for got in (a * z, z * a):
        assert got.is_known_zero()
        assert (got.lead, got.trunc, got.offset24) == (4, 4, 6)
    both = QSeries.zero(-2, offset24=5, step24=12) * QSeries.zero(3, offset24=7, step24=12)
    assert (both.lead, both.trunc, both.offset24, both.step24) == (2, 2, 0, 12)


@pytest.mark.parametrize("r", [2, 3])
def test_subs_qpow_of_a_known_zero_at_an_offset(r):
    # q -> q^r takes O(q^t) to a known zero on the substituted lattice, with
    # the truncation a nonzero series on the same window gets
    zero = QSeries.zero(3, offset24=5, step24=8)
    ref = QSeries([1], lead=0, trunc=3, offset24=5, step24=8).subs_qpow(r)
    got = zero.subs_qpow(r)
    assert got.is_known_zero()
    assert got == QSeries.zero(ref.trunc, offset24=ref.offset24, step24=ref.step24)


def d_dq(s):
    return s.D().shift(-1)


def test_d_dq_of_a_series_with_a_negative_lead():
    # d/dt (3t^-2 + 5 + t^2 + O(t^3)) = -6t^-3 + 2t + O(t^2)
    s = QSeries([3, 0, 5, 0, 1], lead=-2, trunc=3)
    d = d_dq(s)
    assert (d.lead, d.trunc) == (-3, 2)
    assert d.coeffs == [YLaurent.const(c) for c in (-6, 0, 0, 0, 2)]
    # a constant differentiates to O(1), a known zero to one order less
    const = d_dq(QSeries([7], trunc=1))
    assert const.is_known_zero() and const.trunc == 0
    assert d_dq(QSeries.zero(3)) == QSeries.zero(2)


def test_d_dq_at_a_fractional_offset():
    # theta_y lives on q^(1/8 + k): each coefficient times its exponent
    # moves one step down, on the same lattice
    th = theta_y(9)
    d = d_dq(th)
    assert (d.offset24, d.step24, d.lead, d.trunc) == (3, 24, th.lead - 1, th.trunc - 1)
    for k in range(th.lead, th.trunc):
        e = th.exponent(k)
        assert d.coeff_at(e - 1) == th.coeff_index(k).scale(e)
        assert d.coeff_index(k - 1) == th.coeff_index(k).scale(e)


@pytest.mark.parametrize("kind", ["sym", "int"])
@pytest.mark.parametrize("lead, offset24", [(0, 0), (2, 5)])
def test_pow_with_a_monomial_unit_against_products(kind, lead, offset24):
    # the kernel divides by the unit u0 at every coefficient; the reference
    # sides here are products, which never divide
    rng = random.Random(f"monomial-{kind}-{lead}")
    unit = YLaurent.const(-2) if kind == "int" else YLaurent({1: QQ(3, 2)})
    s = _series(rng, kind, trunc=lead + 9, lead=lead, unit=unit, offset24=offset24)
    cube, want = s.pow(3), s * s * s
    assert (cube.offset24, cube.step24, cube.lead, cube.trunc) == \
        (want.offset24, want.step24, want.lead, want.trunc)
    for g, w in zip(cube.coeffs, want.coeffs, strict=True):
        assert g.terms == w.terms
        assert {e: type(c) for e, c in g.terms.items()} == \
            {e: type(c) for e, c in w.terms.items()}
    for got in (s.pow(-2) * s * s, s / s):
        assert (got.offset24, got.lead, got.trunc) == (0, 0, 9)
        assert got == QSeries.one(9)


# -- the kernel against the term-by-term oracle --------------------------------


def _coeff(rng, kind):
    # sym: Laurent coefficients with Fraction entries; int: the constant
    # coefficients of the y = 1 and y = -1 specialisations; some are zero
    if kind == "int":
        return YLaurent.const(rng.randint(-3, 3))
    return YLaurent({e: QQ(rng.randint(-4, 4), rng.randint(1, 3)) for e in (-1, 0, 1)})


def _series(rng, kind, trunc, lead=0, unit=None, offset24=0, step24=24):
    trunc = max(trunc, lead)
    coeffs = [_coeff(rng, kind) for _ in range(lead, trunc)]
    if unit is not None and coeffs:
        coeffs[0] = unit
    return QSeries(coeffs, lead=lead, trunc=trunc, offset24=offset24, step24=step24)


def _kernel_cases(op, kind, t, rng):
    """(kernel, oracle, operands) triples for op at truncation t."""
    one = YLaurent.const(1)
    # an invertible leading coefficient other than 1
    mono = YLaurent.const(-2) if kind == "int" else YLaurent({1: QQ(3, 2)})
    S = functools.partial(_series, rng, kind)
    if op == "mul":
        pairs = [(S(trunc=t), S(trunc=t + 1, lead=1)),
                 (S(trunc=t + 2, lead=2, offset24=5), S(trunc=t, lead=-1, offset24=13)),
                 (QSeries.zero(t, offset24=7), S(trunc=t, lead=1)),
                 (theta2(t), S(trunc=t, step24=12)),
                 (theta2(t), theta2(t + 1))]
        return [(QSeries.__mul__, mul_termwise, ab) for ab in pairs]
    if op == "pow":
        cases = [(S(trunc=t, unit=one), r) for r in (-1, -3, QQ(1, 2), QQ(-3, 2), QQ(5, 3))]
        cases += [(S(trunc=t, unit=mono), r) for r in (-1, -2, 3)]
        cases += [(S(trunc=t + 1, lead=1, unit=one), QQ(1, 2)),
                  (S(trunc=t + 2, lead=2, offset24=5, unit=mono), -2),
                  (QSeries.zero(t, offset24=3), 2), (QSeries.zero(t), 0),
                  (theta2(t), -1), (theta2(t), 3)]
        return [(QSeries.pow, pow_termwise, sr) for sr in cases]
    if op == "log":
        return [(QSeries.log, log_termwise, (s,))
                for s in (S(trunc=t, unit=one), S(trunc=t, unit=one, step24=12))]
    if op == "exp":
        return [(QSeries.exp, exp_termwise, (s,))
                for s in (S(trunc=t, lead=1), S(trunc=t + 1, lead=2, step24=12),
                          QSeries.zero(t))]
    assert op == "compose"
    # (outer lead, inner lead, extra truncation of outer, of inner)
    pairs = [(S(trunc=t + dt, lead=lo), S(trunc=t + di, lead=li))
             for lo, li, dt, di in ((0, 1, 0, 2), (1, 2, 2, 0), (2, 1, 2, 0), (0, 2, 0, 0))]
    pairs.append((S(trunc=t), QSeries.zero(t)))
    return [(compose, compose_termwise, ab) for ab in pairs]


@pytest.mark.parametrize("op", ["mul", "pow", "log", "exp", "compose"])
@pytest.mark.parametrize("kind", ["sym", "int"])
@pytest.mark.parametrize("trunc", range(1, 13))
def test_kernel_equals_termwise_oracle(op, kind, trunc):
    # one accumulation per coefficient gives the very data of the
    # term-by-term loops: lattice, window, and per coefficient the same
    # terms with the same int or Fraction type
    rng = random.Random(f"{op}-{kind}-{trunc}")
    for kernel, oracle, operands in _kernel_cases(op, kind, trunc, rng):
        got, want = kernel(*operands), oracle(*operands)
        assert (got.offset24, got.step24, got.lead, got.trunc) == \
            (want.offset24, want.step24, want.lead, want.trunc)
        assert len(got.coeffs) == len(want.coeffs)
        for g, w in zip(got.coeffs, want.coeffs):
            assert g.terms == w.terms
            assert {e: type(c) for e, c in g.terms.items()} == \
                {e: type(c) for e, c in w.terms.items()}
