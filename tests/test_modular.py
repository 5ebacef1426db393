import importlib
import sys

import pytest

from refsev import tables, ylaurent
from refsev.conjectures import check_conjecture
from refsev.modular import (
    b_bar_series,
    b_series,
    bernoulli,
    delta_tilde,
    dgtilde2,
    eisenstein,
    eisenstein_bar,
    eta,
    f_bar,
    f_bar_closed,
    f_lower,
    fhat_cm,
    fhat_cm_general,
    h_at,
    h_series,
    named_series,
    theta2_of_qsq,
    theta_unit,
    theta_y,
)
from refsev.qseries import QSeries
from refsev.rationals import QQ
from refsev.ylaurent import YLaurent


def test_bernoulli():
    assert bernoulli(2) == QQ(1, 6)
    assert bernoulli(4) == QQ(-1, 30)
    assert bernoulli(8) == QQ(-1, 30)
    assert bernoulli(12) == QQ(-691, 2730)


def test_eisenstein_constants():
    assert eisenstein(2, 3).coeff_at(0) == YLaurent.const(QQ(-1, 24))
    assert eisenstein(4, 3).coeff_at(0) == YLaurent.const(QQ(1, 240))
    assert eisenstein(6, 3).coeff_at(0) == YLaurent.const(QQ(-1, 504))


def test_gbar2_divisor_sum():
    # sum over d | n with d odd of n/d: 1, 2, 4, 4, 6, 8, ...
    g = eisenstein_bar(2, 8)
    assert [int(g.coeff_at(n).at_one()) for n in range(1, 8)] == [1, 2, 4, 4, 6, 8, 8]
    assert g.coeff_at(3) == YLaurent.const(4)


def test_f0_series():
    # f_0 = theta_2(q^2) = 1 - 2q + 2q^4 - 2q^9 + ...
    f0 = f_lower(0, 12)
    assert f0.agrees_with(theta2_of_qsq(12))
    assert [int(f0.coeff_at(n).at_one()) for n in range(10)] == \
        [1, -2, 0, 0, 2, 0, 0, 0, 0, -2]


def test_f1_offset():
    f1 = f_lower(1, 10)
    assert f1.offset24 == 6  # q^(1/4) prefactor
    assert f1.coeff_at(QQ(1, 4)) == YLaurent.const(1)
    assert f1.coeff_at(QQ(9, 4)) == YLaurent.const(-3)


def test_f_rejects_negative():
    with pytest.raises(ValueError):
        f_lower(-1, 5)


@pytest.mark.parametrize("l", range(1, 13))
def test_fbar_closed_form_and_congruence(l):
    fb = f_bar(l, 40)
    assert fb.agrees_with(f_bar_closed(l, 40))
    assert fb.truncate(l + 1).agrees_with(QSeries.one(l + 1))


def test_b_tables_basic():
    B1 = b_series(1, 18)
    assert B1.coeff_at(0).is_one()
    assert B1.coeff_at(2) == YLaurent({2: -1, 0: -3, -2: -1})
    B2 = b_series(2, 18)
    # the parenthesized bracket has q-coefficient 3; the full series soaks
    # up the prefactor 1/((1-yq)(1-q/y)) and starts 1 + (y+3+1/y)q
    assert B2.coeff_at(1) == YLaurent({2: 1, 0: 3, -2: 1})
    assert B1.is_palindromic() and B2.is_palindromic()


@pytest.mark.parametrize("K", [1, 2])
def test_b2_below_its_prefactor_length(K):
    # the prefactor (1-yq)(1-q/y) has three coefficients; below order 3 it
    # is cut to the order instead of overflowing the window
    assert b_series(2, K) == b_series(2, 5).truncate(K)


def test_b_tables_trusted_order():
    with pytest.raises(ValueError):
        b_series(1, 19)
    with pytest.raises(ValueError):
        b_bar_series(2, 32)


def test_b_minus_one_matches_bbar_full_common_order():
    for which in (1, 2):
        lhs = b_series(which, 18).specialize_y(-1)
        assert lhs.agrees_with(b_bar_series(which, 18))


def test_fhat_tables():
    f3 = fhat_cm(3, 6)
    assert f3.coeff_at(2) == YLaurent({2: 1, 0: 4, -2: 1})
    assert f3.coeff_at(5).coeff(0) == -721
    with pytest.raises(ValueError):
        fhat_cm(3, 7)
    with pytest.raises(ValueError):
        fhat_cm(7, 4)
    for m in (2, 3, 4):
        assert fhat_cm_general(m, 4).agrees_with(fhat_cm(m, 4))


def test_tables_are_parsed_on_first_use():
    # loading refsev.tables parses no table; the first b_series parses B1
    parsed = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "parse_symmetric_table":
            parsed.append(frame.f_code.co_filename)

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        importlib.reload(tables)
        at_load = len(parsed)
        b_series(1, 5)
    finally:
        sys.setprofile(old)
    assert at_load == 0 and parsed == [tables.__file__]


def test_memoised_tables_cannot_be_changed_by_a_caller():
    # the parsed table is the memo's one copy, read by every b_series
    before = b_series(1, 6)
    table = tables.symmetric_table("B1")
    with pytest.raises(TypeError):
        table[3] = YLaurent.const(0)
    with pytest.raises(AttributeError):
        table.pop(3)
    assert tables.symmetric_table("B1") is table
    assert b_series(1, 6) == before


def test_theta_normalized_constant_term():
    assert theta_unit(6).coeff_at(0).is_one()


def test_theta_sum_vs_product():
    assert theta_y(14).agrees_with(
        QSeries([YLaurent({1: 1, -1: -1})], trunc=14, offset24=3) * theta_unit(14)
    )


def test_euler_products_skip_the_factors_zeros(monkeypatch):
    # each factor poly(q^n) is nonzero at no more than 4 of its K indices;
    # multiplying it from the left lets QSeries.__mul__ skip the rest
    # (8,155 coefficient products at K = 20 when the dense product led)
    calls = []
    mul = ylaurent.YLaurent.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(ylaurent.YLaurent, "__mul__", counted)
    delta_tilde(20)
    assert len(calls) <= 1495
    calls.clear()
    theta_unit(20)
    assert len(calls) <= 717


def test_theta_offset_is_eighth():
    th = theta_y(6)
    assert th.offset24 == 3
    assert th.coeff_at(QQ(1, 8)) == YLaurent({1: 1, -1: -1})


IDENTS = [
    "F0_theta", "F1_theta", "F2_theta", "fbar_closed_form",
    "eta_quotient_theta2", "Fhat_c2_is_theta2", "jacobi_triple",
    "theta_prod_sum", "dgtilde2_minus1", "delta_tilde_minus1",
    "B_minus1_tables", "fhat_general_tables",
]


@pytest.mark.parametrize("ident", IDENTS)
def test_series_identities(ident):
    # fhat_general_tables compares a fixed q^3 expansion: it takes no order
    params = {"fbar_closed_form": {"order": 40}, "fhat_general_tables": {}}
    rep = check_conjecture(ident, **params.get(ident, {"order": 15}))
    assert rep.ok, rep.summary()


def test_named_series_dispatch():
    assert named_series("Eta", 8).agrees_with(eta(8))
    assert named_series("G2k", 8, param=4).agrees_with(eisenstein(4, 8))
    assert named_series("fBar", 10, param=2).agrees_with(f_bar(2, 10))
    assert named_series("H", 8, param=2).agrees_with(h_series(2, 8))
    with pytest.raises(ValueError):
        named_series("nope", 5)
    with pytest.raises(ValueError):
        named_series("H", 8, param=3)  # refined H_3 is not on record


@pytest.mark.parametrize("name, K, param, message", [
    ("Eta", 0, None, "order must be >= 1"),
    ("fBar", -2, 3, "order must be >= 1"),
    ("Eta", 8, 3, "takes no param"),
    ("B1", 8, 0, "takes no param"),
] + [(name, 8, None, "needs a param")
     for name in ("G2k", "Gbar2k", "fLower", "fBar", "FhatCm", "H", "H_at1",
                  "H_atMinus1")])
def test_named_series_refusals(name, K, param, message):
    with pytest.raises(ValueError, match=message):
        named_series(name, K, param=param)


def test_named_series_palindromic():
    for name, param in [("DGtilde2", None), ("DDGtilde2", None),
                        ("DeltaTilde", None), ("B1", None), ("B2", None),
                        ("H", 2), ("F1", None), ("F2", None)]:
        s = named_series(name, 12, param=param)
        if name == "F2":
            # F2 is odd under y -> 1/y; everything else is palindromic
            assert all(c.mirror() == -c for c in s.coeffs)
        else:
            assert s.is_palindromic(), name


def test_h2_specializations():
    h2 = h_series(2, 12)
    assert h2.lead == 3 and h2.coeff_at(3).is_one()
    assert h2.specialize_y(1).agrees_with(h_at(2, 1, 12))
    assert h2.specialize_y(-1).agrees_with(h_at(2, -1, 12))


def test_h1_specializations():
    assert dgtilde2(10).specialize_y(1).agrees_with(h_at(1, 1, 10))
    assert dgtilde2(10).specialize_y(-1).agrees_with(h_at(1, -1, 10))


def test_h34_leading_orders():
    # H_m = q^(m(m+1)/2) (1 + O(q)) at both specializations
    for m, lead in ((3, 6), (4, 10)):
        for y in (1, -1):
            s = h_at(m, y, lead + 3)
            assert s.lead == lead, (m, y)
            assert s.coeff_at(lead).is_one()


def test_hm_congruence_with_b_ratio():
    # H_m / q^(m(m+1)/2) = B_2^m / B_1 mod q^(m+1)
    for m in (1, 2):
        K = m + 1
        hm = h_series(m, m * (m + 1) // 2 + K).shift(-(m * (m + 1) // 2))
        ratio = b_series(2, K + 1).pow(m) / b_series(1, K + 1)
        assert hm.truncate(K).agrees_with(ratio.truncate(K))
