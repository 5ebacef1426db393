import itertools
import random
import re

import pytest

from refsev import genfun
from refsev.caporaso import P2, P11m, Sigma, severi_degree
from refsev.genfun import (Invariants, base_series, engine_data, in_regime,
                           reform_coefficient, reform_eval, solve_bundles,
                           solve_universal_B)
from refsev.modular import b_bar_series, b_series, h_series
from refsev.qseries import QSeries
from refsev.rationals import QQ
from refsev.ylaurent import YLaurent

from oracles import reform_q_series

random.seed(404)


def rand_unit(trunc):
    coeffs = [YLaurent.const(1)]
    for _ in range(trunc - 1):
        coeffs.append(
            YLaurent({k: QQ(random.randint(-2, 2)) for k in (-1, 0, 1)})
        )
    return QSeries(coeffs, trunc=trunc)


def test_three_forms_agree_on_toy_data():
    # the equivalence of the three formulas is constructive: check it on
    # random small R with toy intersection numbers
    for _ in range(3):
        R = rand_unit(8)
        B1, B2 = rand_unit(8), rand_unit(8)
        inv = Invariants(K2=2, LK=-3, chi_L=5, chi_O=1)
        f1 = reform_q_series(inv, B1, B2, 6, R=R)
        S, = reform_eval([inv], B1, B2, 4, R=R)
        # assemble sum_delta M^delta P^delta from the form-2 coefficients
        dg, _, _ = base_series(6)
        acc = QSeries.zero(6)
        powers = QSeries.one(6)
        for delta in range(5):
            acc = acc + powers.scale(S.coeff_at(delta))
            powers = (powers * dg).truncate(6)
        assert acc.agrees_with(f1.truncate(5))
        for delta in range(4):
            f3 = reform_coefficient(inv, B1, B2, delta, R=R)
            assert f3 == S.coeff_at(delta), delta


def test_form3_is_plane_curve_identity(chtable):
    # with R = 1 and P^2 invariants, form 3 is the node-polynomial formula,
    # valid for delta <= 2d - 2
    B1, B2 = b_series(1, 18), b_series(2, 18)
    for d in (2, 3):
        inv = Invariants.of(P2(d))
        for delta in range(2 * d - 1):
            got = reform_coefficient(inv, B1, B2, delta)
            assert got == severi_degree(P2(d), delta, table=chtable)


def test_form2_matches_engines(chtable):
    B1, B2 = b_series(1, 18), b_series(2, 18)
    for bundle in (P2(5), Sigma(0, 5, 5), Sigma(1, 4, 4)):
        S, = reform_eval([Invariants.of(bundle)], B1, B2, 4)
        for delta in range(5):
            assert S.coeff_at(delta) == severi_degree(bundle, delta, table=chtable)


def test_form2_welschinger(chtable):
    B1, B2 = b_bar_series(1, 10), b_bar_series(2, 10)
    S, = reform_eval([Invariants.of(P2(6))], B1, B2, 6, y=-1)
    for delta in range(7):
        w = severi_degree(P2(6), delta, y=-1, table=chtable)
        assert S.coeff_at(delta) == YLaurent.const(w)


def test_form2_welschinger_ruled(chtable):
    # the ruled-surface side of the Welschinger identity
    B1, B2 = b_bar_series(1, 10), b_bar_series(2, 10)
    for bundle in (Sigma(0, 6, 6), Sigma(1, 5, 5), Sigma(2, 5, 4)):
        S, = reform_eval([Invariants.of(bundle)], B1, B2, 5, y=-1)
        for delta in range(6):
            w = severi_degree(bundle, delta, y=-1, table=chtable)
            assert S.coeff_at(delta) == YLaurent.const(w), (bundle, delta)


def test_solve_recovers_synthetic_b():
    # forward-generate node values from made-up B's, then invert
    B1, B2 = rand_unit(6), rand_unit(6)
    data = []
    for inv in (Invariants(K2=9, LK=-15, chi_L=21),
                Invariants(K2=8, LK=-20, chi_L=36)):
        S, = reform_eval([inv], B1, B2, 5)
        data.append((inv, {d: S.coeff_at(d) for d in range(6)}))
    r1, r2 = solve_universal_B(data, 6)
    assert r1.agrees_with(B1) and r2.agrees_with(B2)


def test_solve_requires_two_bundles():
    with pytest.raises(ValueError):
        solve_universal_B([(Invariants(K2=9, LK=-15, chi_L=21), {1: YLaurent.const(1)})], 2)


def test_solve_rejects_rank_deficient():
    B1, B2 = rand_unit(4), rand_unit(4)
    inv1 = Invariants(K2=9, LK=-15, chi_L=21)
    inv2 = Invariants(K2=18, LK=-30, chi_L=36)  # proportional (K2, LK)
    data = []
    for inv in (inv1, inv2):
        S, = reform_eval([inv], B1, B2, 3)
        data.append((inv, {d: S.coeff_at(d) for d in range(4)}))
    with pytest.raises(ValueError):
        solve_universal_B(data, 4)


def test_solve_detects_inconsistent_data(chtable):
    # three bundles overdetermine the 2x2 system; poisoning one datum must
    # surface as a nonzero residual
    bundles = [P2(5), Sigma(0, 5, 5), Sigma(1, 4, 4)]
    data = []
    for b in bundles:
        data.append((Invariants.of(b),
                     {d: severi_degree(b, d, table=chtable) for d in range(3)}))
    r1, r2 = solve_universal_B(data, 3)  # consistent as-is
    assert r1.coeff_at(0).is_one()
    data[2][1][2] = data[2][1][2] + YLaurent.const(1)
    with pytest.raises(ValueError):
        solve_universal_B(data, 3)


def test_solve_refuses_data_without_m0_one():
    B1, B2 = rand_unit(4), rand_unit(4)
    data = []
    for inv in (Invariants(K2=9, LK=-15, chi_L=21),
                Invariants(K2=8, LK=-20, chi_L=36)):
        S, = reform_eval([inv], B1, B2, 3)
        data.append((inv, {d: S.coeff_at(d) for d in range(4)}))
    del data[1][1][0]
    with pytest.raises(ValueError, match="lacks the delta = 0 value"):
        solve_universal_B(data, 4)
    data[1][1][0] = YLaurent.const(2)
    with pytest.raises(ValueError, match="M\\^0 = 2, not 1"):
        solve_universal_B(data, 4)


def test_form2_takes_several_invariants():
    B1, B2 = rand_unit(7), rand_unit(7)
    R = rand_unit(9)
    invs = [Invariants(K2=9, LK=-15, chi_L=21), Invariants(K2=8, LK=-20, chi_L=36)]
    both = reform_eval(invs, B1, B2, 4, R=R, shift=1)
    assert both == [reform_eval([inv], B1, B2, 4, R=R, shift=1)[0] for inv in invs]


@pytest.mark.parametrize("inside, outside, delta, y", [
    (P2(3), P2(2), 4, "sym"),
    (P2(3), P2(2), 4, 1),
    (P2(3), P2(2), 6, -1),
    (Sigma(0, 3, 3), Sigma(0, 2, 2), 5, "sym"),
    (Sigma(0, 3, 3), Sigma(0, 2, 2), 5, 1),
    (Sigma(0, 2, 2), Sigma(0, 1, 1), 6, -1),
])
def test_regime_rule_is_met_inside_and_fails_just_outside(chtable, inside, outside,
                                                           delta, y):
    # one point on each side of each rule of in_regime: the recursion
    # equals form (2) with the tables just inside it and differs just outside
    assert in_regime(inside, delta, y) and not in_regime(outside, delta, y)
    K = delta + 2
    B = ((b_bar_series(1, K), b_bar_series(2, K)) if y == -1 else
         (b_series(1, K).specialize_y(y), b_series(2, K).specialize_y(y)))
    S_in, S_out = reform_eval([Invariants.of(inside), Invariants.of(outside)],
                              *B, delta, y=y)

    def engine(bundle):
        value = severi_degree(bundle, delta, y=y, table=chtable)
        return value if y == "sym" else YLaurent.const(value)

    assert engine(inside) == S_in.coeff_at(delta)
    assert engine(outside) != S_out.coeff_at(delta)


@pytest.mark.parametrize("bundle, y, rule, edge", [
    (Sigma(0, 1, 1), "sym", 2, 3),
    (Sigma(0, 1, 1), 1, 2, 3),
    (Sigma(0, 2, 2), -1, 6, 8),
])
def test_regime_edges_past_the_rules_are_recorded(chtable, bundle, y, rule, edge):
    # the P^1 x P^1 rules are conservative: in_regime ends at delta = rule,
    # while the recursion equals form (2) through delta = edge and first
    # differs at edge + 1; recorded here, the rules are not widened
    K = edge + 3
    B = ((b_bar_series(1, K), b_bar_series(2, K)) if y == -1 else
         (b_series(1, K).specialize_y(y), b_series(2, K).specialize_y(y)))
    S, = reform_eval([Invariants.of(bundle)], *B, edge + 1, y=y)
    agrees = []
    for delta in range(edge + 2):
        value = severi_degree(bundle, delta, y=y, table=chtable)
        agrees.append((value if y == "sym" else YLaurent.const(value)) == S.coeff_at(delta))
    assert [in_regime(bundle, delta, y) for delta in range(edge + 2)] == [
        delta <= rule for delta in range(edge + 2)]
    assert agrees == [True] * (edge + 1) + [False]


def test_zero_cogenus_is_in_regime_for_p2_zero(chtable):
    # P^2(0) is in the regime at delta = 0, where the engine gives 1 as
    # form (2) does for every bundle, and outside it at delta = 1, where
    # the engine gives 0 and form (2) y + 1 + 1/y
    inv = Invariants.of(P2(0))
    S, = reform_eval([inv], b_series(1, 3), b_series(2, 3), 1)
    assert in_regime(P2(0), 0) and not in_regime(P2(0), 1)
    assert severi_degree(P2(0), 0, table=chtable) == S.coeff_at(0) == YLaurent.const(1)
    assert severi_degree(P2(0), 1, table=chtable) == YLaurent.const(0)
    assert S.coeff_at(1) == YLaurent({-2: 1, 0: 1, 2: 1})


@pytest.mark.parametrize("bundle", [Sigma(1, 2, 3), P11m(2, 3)])
def test_in_regime_refuses_a_bundle_without_a_rule(bundle):
    with pytest.raises(ValueError, match=re.escape(f"no regime rule for {bundle}")):
        in_regime(bundle, 1)


@pytest.mark.parametrize("y", [0, 2, "1"])
def test_regime_refuses_a_y_without_a_ring(y):
    # y = 0, 2 and '1' raised a bare KeyError
    message = re.escape(f"y must be 'sym', 1 or -1, not {y!r}")
    for call in (lambda: in_regime(P2(3), 1, y), lambda: solve_bundles(3, y),
                 lambda: solve_bundles(0, y)):
        with pytest.raises(ValueError, match=message):
            call()


def test_regime_refuses_a_negative_delta_or_order():
    # both answered: in_regime(P2(3), -1) was True, and solve_bundles(-1)
    # the bundles of order 0
    with pytest.raises(ValueError, match="delta = -1 is negative"):
        in_regime(P2(3), -1)
    with pytest.raises(ValueError, match="order = -1 is negative"):
        solve_bundles(-1)
    assert solve_bundles(0) == solve_bundles(1)


@pytest.mark.parametrize("value", [1.5, True, 2.0])
def test_regime_refuses_a_delta_or_order_that_is_no_int(value):
    # in_regime(P2(3), 1.5 or True, 1) answered True, solve_bundles(True, 1)
    # the bundles of order 1, and solve_bundles(2.5, 1) ended in a TypeError
    with pytest.raises(ValueError, match=f"^delta = {value} is not an integer$"):
        in_regime(P2(3), value, 1)
    for order in (value, value + 0.5):
        with pytest.raises(ValueError, match=f"^order = {order} is not an integer$"):
            solve_bundles(order, 1)


def test_solve_bundles_smallest_in_regime():
    # P^2(p), Sigma_0(s, s) and the overdetermining P^2(p + 1): every
    # delta < order in the regime at y, and p >= 2, s >= 1 the smallest
    # that keep it so, but for s = 2 at p = 3, where Sigma_0(2, 2)'s
    # (K^2, L.K) = (8, -8) is proportional to P^2(3)'s (9, -9)
    def covers(bundle, order, y):
        return all(in_regime(bundle, dl, y) for dl in range(order))

    for y, order in itertools.product(("sym", 1, -1), range(1, 32)):
        p2, s0, p2_next = solve_bundles(order, y)
        p, s = p2.d, s0.c
        assert (p2, s0, p2_next) == (P2(p), Sigma(0, s, s), P2(p + 1))
        assert all(covers(b, order, y) for b in (p2, s0, p2_next))
        assert p == 2 or not covers(P2(p - 1), order, y)
        assert 3 * s != 2 * p
        assert (s == 1 or not covers(Sigma(0, s - 1, s - 1), order, y)
                or (p, s) == (3, 3))
        if y != -1:
            # Block's threshold delta <= 2p - 2 over every delta < order
            assert p == max(order // 2 + 1, 2)
    assert solve_bundles(31, -1) == (P2(11), Sigma(0, 10, 10), P2(12))


def test_welschinger_solve_from_its_own_bundles(chtable):
    # y = -1 takes P^2(9), Sigma_0(8, 8), P^2(10) at order 24, past the
    # trusted range of the refined tables; the solve equals the Bbar tables
    order = 24
    B = solve_universal_B(engine_data(solve_bundles(order, -1), order, -1, chtable),
                          order, y=-1)
    assert B == (b_bar_series(1, order), b_bar_series(2, order))


@pytest.mark.parametrize("order, y, tables", [
    (12, "sym", b_series),   # refined, to q^11
    (18, -1, b_bar_series),  # Welschinger, to q^17
])
def test_recursion_on_solve_bundles_solves_the_tables(chtable, order, y, tables):
    # solve_bundles at the solve's own y: P^2(7), Sigma_0(6, 6), P^2(8) at
    # y = -1, order 18, not the sym choice P^2(10), Sigma_0(9, 9), P^2(11)
    B = solve_universal_B(engine_data(solve_bundles(order, y), order, y, chtable),
                          order, y=y)
    assert B == (tables(1, order), tables(2, order))
    assert all(type(c) is int or c.denominator != 1
               for b in B for a in b.coeffs for c in a.terms.values())


@pytest.mark.parametrize("d0, order, y", [(6, 12, "sym"), (4, 12, -1)])
def test_solve_below_regime_is_inconsistent(chtable, d0, order, y):
    # bundles below the regime, where the third bundle exposes the error:
    # refined d0 = 6 is one below solve_bundles(12); at y = -1, d0 = 4 is
    # below even GSPSigmaW's d >= delta/3 + 1
    data = engine_data((P2(d0), Sigma(0, d0, d0), P2(d0 + 1)), order, y, chtable)
    with pytest.raises(ValueError, match="inconsistent"):
        solve_universal_B(data, order, y=y)


def test_two_bundles_below_regime_pass_silently(chtable):
    # why solve_bundles adds a third bundle: with two, each coefficient is
    # an exactly determined 2x2 solve, so data below the regime (d0 = 6 at
    # order 12) gives a wrong B from q^11 on and nothing raises
    data = engine_data((P2(6), Sigma(0, 6, 6)), 12, "sym", chtable)
    B1, B2 = solve_universal_B(data, 12)
    assert B1.first_difference(b_series(1, 12))[0] == 11
    assert B2.first_difference(b_series(2, 12))[0] == 11


def test_solve_refuses_a_fed_back_residual(chtable, monkeypatch):
    # the solve is exact, so only a fault in form (2) can leave a residual
    # when the solution is fed back; one perturbed coefficient is refused
    real = genfun.reform_eval

    def perturbed(invs, B1, B2, order, **kwargs):
        first, *rest = real(invs, B1, B2, order, **kwargs)
        return [first + QSeries.monomial(order, 1, trunc=first.trunc), *rest]

    data = engine_data(solve_bundles(3), 3, "sym", chtable)
    monkeypatch.setattr(genfun, "reform_eval", perturbed)
    with pytest.raises(ValueError, match="inconsistent data: delta=2 residual at"):
        solve_universal_B(data, 3)


def test_form1_shift_against_form2_at_a_double_point():
    # an ordinary double point on P^2(4): form (1), its point series raised
    # to -3, is sum_delta M^delta P^delta with M^delta the t^(delta + 3)
    # coefficient of form (2) under the same shift
    m, K = 2, 9
    shift = m * (m + 1) // 2
    inv = Invariants.of(P2(4))
    B1, B2, R = b_series(1, K), b_series(2, K), h_series(m, K)
    f1 = reform_q_series(inv, B1, B2, K, R=R, shift=shift)
    S, = reform_eval([inv], B1, B2, K - shift, R=R, shift=shift)
    dg = base_series(K)[0]
    acc = QSeries.zero(f1.trunc)
    for n in range(f1.trunc + shift):
        acc = acc + dg.pow(n - shift).truncate(f1.trunc).scale(S.coeff_at(n))
    assert acc.trunc == 5 and acc.agrees_with(f1)
