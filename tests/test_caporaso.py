import itertools
import re
import sys

import pytest

from refsev import caporaso
from refsev.caporaso import (
    CHTable,
    P2,
    P11m,
    Sigma,
    SurfaceBundle,
    canon_seq,
    iseq,
    relative_degree,
    severi_degree,
    severi_degrees,
    welschinger_degree,
)
from refsev.genfun import Invariants, engine_data, solve_bundles
from refsev.graphs import refined_count, s_beta
from refsev.rationals import QQ
from refsev.ylaurent import YLaurent

from floor_diagrams import floor_diagram_count
from oracles import ScalarTable, per_delta, severi_degree_scalar


def test_initial_condition_line(chtable):
    assert relative_degree(P2(1), 0, (1,), (), table=chtable).is_one()


def test_cubic_twelve(chtable):
    v = relative_degree(P2(3), 1, (), (3,), table=chtable)
    assert v.at_one() == 12
    assert v == floor_diagram_count(0, 1, 3, 1)


def test_rational_degrees_all_one(chtable):
    for d in range(1, 7):
        assert severi_degree(P2(d), 0, table=chtable).is_one()
        assert refined_count(s_beta(0, 1, d), 0).is_one()


def test_sequence_mismatch_rejected(chtable):
    with pytest.raises(ValueError):
        relative_degree(P2(3), 0, (1,), (1,), table=chtable)


def test_strict_flags_negative_gamma(chtable):
    # d = 1, delta huge: gamma < 0, so the degree vanishes
    assert relative_degree(P2(1), 9, (), (1,), table=chtable).is_zero()


def test_bundle_invariants():
    b = Sigma(2, 1, 3)
    assert b.HL == 7
    assert b.dim_L == (3 + 1) * (1 + 1) + 2 * 3 * 4 // 2 - 1
    inv = Invariants.of(b)
    assert (inv.K2, inv.LK) == (8, -(2 * 1 + 4 * 3))
    # Riemann-Roch: chi(L) - chi(O) = (L^2 - L.K)/2, L^2 = 2cd + m d^2
    assert inv.qexp == (2 * 1 * 3 + 2 * 9 - inv.LK) / 2
    p, inv = P2(4), Invariants.of(P2(4))
    assert (p.dim_L, p.HL, inv.LK, inv.K2, inv.qexp) == (14, 4, -12, 9, (16 + 12) / 2)
    assert Invariants.of(P11m(2, 3)) == Invariants(K2=8, LK=-12, chi_L=16)
    assert Invariants.of(P11m(3, 1)).K2 == QQ(25, 3)


def test_bundle_and_invariants_are_frozen_values():
    b, inv = Sigma(2, 1, 3), Invariants(K2=QQ(25, 3), LK=-5, chi_L=3)
    assert repr(b) == "SurfaceBundle(family='sigma', m=2, c=1, d=3)"
    assert repr(inv) == "Invariants(K2=Fraction(25, 3), LK=-5, chi_L=3, chi_O=1)"
    for value, field in ((b, "d"), (b, "extra"), (inv, "chi_O"), (inv, "extra")):
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
    # compared and hashed by value, keyword and positional alike
    assert b == SurfaceBundle(family="sigma", m=2, c=1, d=3) != Sigma(2, 1, 4)
    assert len({b, SurfaceBundle("sigma", 2, 1, 3), P2(3)}) == 2
    assert inv == Invariants(QQ(25, 3), -5, 3, 1) != Invariants(QQ(25, 3), -5, 3, 0)
    assert hash(inv) == hash(Invariants(K2=QQ(25, 3), LK=-5, chi_L=3, chi_O=1))
    assert inv.qexp == 2


@pytest.mark.parametrize("args, message", [
    (("torus", 1, 0, 2), "unknown family 'torus'"),
    (("p2", 2, 0, 2), "P2 bundles have m = 1, c = 0, not m = 2, c = 0"),
    (("p11m", 2, 1, 2), "P(1,1,m) bundles have c = 0, not c = 1"),
    (("p11m", 0, 0, 2), "P(1,1,m) bundles have m >= 1, not m = 0"),
    (("sigma", -1, 0, 2), "m = -1 is negative"),
    (("sigma", 1, -2, 2), "c = -2 is negative"),
    (("p2", 1, 0, -3), "d = -3 is negative"),
])
def test_bundle_validates_positional_and_keyword(args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SurfaceBundle(*args)
    with pytest.raises(ValueError, match=re.escape(message)):
        SurfaceBundle(**dict(zip(("family", "m", "c", "d"), args)))
    with pytest.raises(ValueError, match=re.escape(message)):
        Sigma(1, 0, 2)._replace(**dict(zip(("family", "m", "c", "d"), args)))


def test_dim_formulas():
    # dim|L|(P2, d) = d(d+3)/2; dim|L|(Sigma_m) = (d+1)(c+1) + m d(d+1)/2 - 1
    for d in range(1, 7):
        assert P2(d).dim_L == d * (d + 3) // 2
    for (m, c, d) in itertools.product(range(3), range(3), range(1, 4)):
        assert Sigma(m, c, d).dim_L == (d + 1) * (c + 1) + m * d * (d + 1) // 2 - 1


def test_p11m_equals_sigma_with_c_zero(chtable):
    for m in (1, 2, 3):
        for d in (1, 2, 3):
            for delta in (0, 1, 2):
                assert severi_degree(P11m(m, d), delta, table=chtable) == \
                    severi_degree(Sigma(m, 0, d), delta, table=chtable)


def test_cross_engine_spot_grid(chtable):
    for (m, c, d) in [(0, 2, 3), (1, 1, 3), (2, 0, 3), (3, 2, 2), (1, 3, 2)]:
        for delta in range(4):
            assert severi_degree(Sigma(m, c, d), delta, table=chtable) == \
                refined_count(s_beta(c, m, d), delta)


def test_integer_fast_paths_match_specialization(chtable):
    for d in (3, 4, 5):
        for delta in (1, 2, 3):
            N = severi_degree(P2(d), delta, table=chtable)
            assert severi_degree(P2(d), delta, y=1, table=chtable) == N.at_one()
            assert welschinger_degree(P2(d), delta, table=chtable) == N.at_minus_one()
    # (surface, delta, alpha, beta), relative states with fixed contacts too
    states = [
        (Sigma(1, 2, 3), 2, (), (5,)),
        (P11m(2, 3), 2, (), (6,)),
        (P2(4), 2, (0, 1), (2,)),
        (P2(5), 2, (1, 0, 1), (1,)),
        (Sigma(2, 1, 2), 1, (1, 1), (2,)),
        (Sigma(2, 1, 2), 2, (1,), (0, 2)),  # vanishes at y = -1
        (P2(4), 1, (2,), (0, 1)),  # half-integer powers of y, 0 at y = -1
    ]
    for s, delta, alpha, beta in states:
        N = relative_degree(s, delta, alpha, beta, table=chtable)
        for y, value in ((1, N.at_one()), (-1, N.at_minus_one())):
            v = relative_degree(s, delta, alpha, beta, y=y, table=chtable)
            assert type(v) is int, (s, y)
            assert v == value, (s, delta, alpha, beta, y)


def test_integer_rings_are_evaluations_of_the_laurent_ring():
    # every state the integer recursions visit is the image of the same
    # state of the Laurent recursion, half-integer powers of y included
    table = CHTable()
    for y in ("sym", 1, -1):
        severi_degree(P2(5), 3, y=y, table=table)
        relative_degree(P2(4), 1, (2,), (0, 1), y=y, table=table)
    sym, one, minus1 = (per_delta(table.memo[y]) for y in ("sym", 1, -1))
    assert set(one) <= set(sym)
    assert set(minus1) <= set(sym)
    for key, value in one.items():
        assert value == sym[key].at_one(), key
    for key, value in minus1.items():
        assert value == sym[key].at_minus_one(), key
    assert sum(not v.is_integral() for v in sym.values()) >= 18
    # the Laurent recursion computes on plain ints
    assert all(type(c) is int for v in sym.values() for c in v.terms.values())


def test_relative_memo_values_palindromic_nonnegative(chtable):
    severi_degree(Sigma(2, 1, 3), 2, table=chtable)
    checked = 0
    for key, val in per_delta(chtable.memo["sym"]).items():
        if val.is_zero():
            continue
        assert val.is_palindromic(), key
        assert all(v > 0 and v.denominator == 1 for v in val.terms.values()), key
        checked += 1
    assert checked > 50


def test_determinism_cold_table(chtable):
    fresh = CHTable()
    for delta in range(3):
        a = severi_degree(Sigma(1, 2, 3), delta, table=fresh)
        b = severi_degree(Sigma(1, 2, 3), delta, table=chtable)
        assert a == b


def test_canon_seq():
    assert canon_seq((1, 0, 2, 0, 0)) == (1, 0, 2)
    assert canon_seq([0, 0]) == ()
    assert iseq((2, 0, 1)) == 2 + 3
    with pytest.raises(ValueError, match=r"sequence = \(1, -1\) has a negative entry"):
        canon_seq((1, -1))
    with pytest.raises(ValueError, match=r"beta = \(0, -1, 0\) has a negative entry"):
        relative_degree(P2(3), 1, (), (0, -1, 0))


def test_welschinger_known_values(chtable):
    # W^{3,1} = 8 and W^{4,1} = 2*N^{4,1}(-1) sanity via both engines
    assert welschinger_degree(P2(3), 1, table=chtable) == 8
    assert welschinger_degree(P2(4), 1, table=chtable) == \
        refined_count(s_beta(0, 1, 4), 1, -1)


def test_no_table_means_a_fresh_table(monkeypatch):
    # without a table each call memoises in a CHTable of its own, so the
    # second call computes every state again
    inserts = []
    insert = CHTable.insert

    def counting(self, y, state, lo, values):
        inserts[-1] += 1
        insert(self, y, state, lo, values)

    monkeypatch.setattr(CHTable, "insert", counting)
    for _ in range(2):
        inserts.append(0)
        severi_degree(P2(3), 1)
    assert inserts[0] == inserts[1] > 0


@pytest.mark.parametrize("y, states", [("sym", 3899), (1, 3899), (-1, 1541)])
def test_states_per_ring(y, states):
    # on one bundle triple, at y = -1 a branch whose quantum-number factor
    # vanishes is never entered, so fewer states are computed and cached
    # than at 'sym' and y = 1
    table = CHTable()
    engine_data((P2(6), Sigma(0, 6, 6), P2(7)), 10, y, table)
    assert len(per_delta(table.memo[y])) == states
    # the states solve-B --order 10 computes, on the smallest bundles in
    # the regime at y
    table = CHTable()
    engine_data(solve_bundles(10, y), 10, y, table)
    assert len(per_delta(table.memo[y])) == {"sym": 2485, 1: 2485, -1: 357}[y]


@pytest.mark.parametrize("y", ["sym", 1])
def test_recursion_is_entered_only_to_compute(monkeypatch, y):
    # on the cross-engine grid a caller reads a child's row from the memo
    # when it reaches the delta asked, so _N is entered once per row it
    # computes, each inserted in one call, and once per ask whose row the
    # memo already holds (10,037 entries for 4,182 rows at the parent)
    entered, inserted = [], []
    N, insert = caporaso._N, CHTable.insert

    def entering(*args):
        entered.append(args)
        return N(*args)

    def inserting(self, y, state, lo, values):
        inserted.append(state)
        insert(self, y, state, lo, values)

    monkeypatch.setattr(caporaso, "_N", entering)
    monkeypatch.setattr(CHTable, "insert", inserting)
    table, held = CHTable(), 0
    grid = [Sigma(m, c, d) for m in range(4) for c in range(5) for d in range(4, 0, -1)]
    for s in grid:
        held += len(table.memo[y].get((s.m, s.c, s.d, (), (s.HL,)), ())) > 4
        severi_degrees(s, 4, y, table)
    assert len(inserted) == 4182
    assert len(entered) == len(inserted) + held and held <= len(grid)


@pytest.mark.parametrize("y", ["sym", 1, -1])
def test_rows_equal_the_scalar_recursion(y):
    # asked for every delta to the largest, the rows hold exactly the
    # (state, delta) values of the recursion asked one delta at a time
    grid = [Sigma(m, c, d) for m in range(3) for c in range(4) for d in range(5)]
    for bundles, delta_max in ((grid, 5), (solve_bundles(10, y), 9)):
        rows, scalar = CHTable(), ScalarTable()
        for bundle in bundles:
            assert severi_degrees(bundle, delta_max, y, rows) == [
                severi_degree_scalar(bundle, delta, y, scalar)
                for delta in range(delta_max + 1)]
        assert per_delta(rows.memo[y]) == scalar.memo[y]
    # asked for one delta alone, the rows hold the scalar recursion's
    # states and more: every delta below it
    for bundle, delta in ((Sigma(1, 2, 3), 4), (P2(5), 3)):
        rows, scalar = CHTable(), ScalarTable()
        assert severi_degree(bundle, delta, y, rows) == \
            severi_degree_scalar(bundle, delta, y, scalar)
        held = per_delta(rows.memo[y])
        assert scalar.memo[y].items() < held.items()


def test_deep_state_and_recursion_limit():
    # P2(50), delta = 1 nests about 1300 calls of the recursion, past the
    # default limit of 1000; the limit it raises is restored afterwards,
    # also when the table raises
    old = sys.getrecursionlimit()
    assert severi_degree(P2(50), 1, y=1) == 3 * 49 ** 2
    assert sys.getrecursionlimit() == old

    class Broken(CHTable):
        def lookup(self, *args):
            raise RuntimeError("lookup failed")

    with pytest.raises(RuntimeError, match="lookup failed"):
        severi_degree(P2(5), 1, table=Broken())
    assert sys.getrecursionlimit() == old
