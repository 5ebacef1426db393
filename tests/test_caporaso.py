import functools
import itertools
import re
import sys

import pytest

from refsev import caporaso, modular
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
from refsev.cache import MAGIC, CacheStore
from refsev.conjectures import CHECK_IDS, check_conjecture, check_parameters, option
from refsev.genfun import (Invariants, engine_data, in_regime, reform_eval, solve_bundles,
                           solve_universal_B)
from refsev.graphs import (enumerate_graphs, enumerate_templates, q_log_count, refined_count,
                           refined_counts, refined_counts_at, s_beta)
from refsev.modular import named_series
from refsev.nodepoly import NodePolynomial, fit_node_polynomials, node_values
from refsev.rationals import QQ
from refsev.ylaurent import YL_ONE, YLaurent, qnum, ring_at

from floor_diagrams import floor_diagram_count
from oracles import ScalarTable, per_delta, relative_degree_scalar, severi_degree_scalar


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
    pytest.param(("torus", 1, 0, 2), "family must be 'p2', 'p11m' or 'sigma', not 'torus'",
                 id="args0-family 'torus'"),
    (("p2", 2, 0, 2), "P2 bundles have m = 1, c = 0, not m = 2, c = 0"),
    (("p11m", 2, 1, 2), "P(1,1,m) bundles have c = 0, not c = 1"),
    (("p11m", 0, 0, 2), "m = 0 is below 1"),
    (("sigma", -1, 0, 2), "m = -1 is negative"),
    (("sigma", 1, -2, 2), "c = -2 is negative"),
    (("p2", 1, 0, -3), "d = -3 is negative"),
    # a float or bool field was taken, P2(True) being P2(1)
    (("p2", 1, 0, 2.5), "d = 2.5 is not an integer"),
    (("sigma", 1, 0.5, 2), "c = 0.5 is not an integer"),
    (("p2", 1, 0, True), "d = True is not an integer"),
    (("p11m", True, 0, 2), "m = True is not an integer"),
    (("p2", 1.0, 0, 3), "m = 1.0 is not an integer"),
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
    with pytest.raises(ValueError, match=r"^sequence\[1\] = -1 is negative$"):
        canon_seq((1, -1))
    with pytest.raises(ValueError, match=r"^beta\[1\] = -1 is negative$"):
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
    # memo already holds; a row asked only to delta = 0 takes its closed
    # form and enters no child (4,182 rows when it walked them, 10,037
    # entries before the memo was read at the call site)
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
    assert len(inserted) == 3098
    assert len(entered) == len(inserted) + held and held <= len(grid)


@pytest.mark.parametrize("y", ["sym", 1, -1])
def test_rows_equal_the_scalar_recursion(y):
    # asked for every delta to the largest, the rows hold (state, delta)
    # values of the recursion asked one delta at a time, equal to its own;
    # the scalar recursion holds more only where it walked a state asked to
    # delta = 0 alone, which the rows take in closed form: a pinned number
    # of entries, each at delta = 0 and equal to that closed form
    ring = ring_at(y)

    def scalar_only(rows, scalar, count):
        # the scalar entries the rows lack: `count` of them, each at
        # delta = 0 and equal to the closed form; the rest the rows hold
        held = per_delta(rows.memo[y])
        only = {key: v for key, v in scalar.memo[y].items() if key not in held}
        assert len(only) == count
        for (m, c, d, delta, alpha, beta), value in only.items():
            assert delta == 0 and value == caporaso._n0(d, alpha, beta, ring)
        return held, {key: v for key, v in scalar.memo[y].items() if key in held}

    grid = [Sigma(m, c, d) for m in range(3) for c in range(4) for d in range(5)]
    for bundles, delta_max, more in ((grid, 5, {"sym": 108, 1: 108, -1: 0}[y]),
                                     (solve_bundles(10, y), 9, 0)):
        rows, scalar = CHTable(), ScalarTable()
        for bundle in bundles:
            assert severi_degrees(bundle, delta_max, y, rows) == [
                severi_degree_scalar(bundle, delta, y, scalar)
                for delta in range(delta_max + 1)]
        held, shared = scalar_only(rows, scalar, more)
        assert held == shared
    # asked for one delta alone, the rows hold the scalar recursion's
    # states, but for a pinned number at delta = 0, and more: every delta
    # below the one asked
    for bundle, delta, more in ((Sigma(1, 2, 3), 4, 0), (P2(5), 3, int(y != -1))):
        rows, scalar = CHTable(), ScalarTable()
        assert severi_degree(bundle, delta, y, rows) == \
            severi_degree_scalar(bundle, delta, y, scalar)
        held, shared = scalar_only(rows, scalar, more)
        assert shared.items() < held.items()


@pytest.mark.parametrize("y", ["sym", 1, -1])
def test_closed_form_n0_equals_the_scalar_recursion(y):
    # every delta = 0 value the recursion asked one delta at a time
    # computes, on the cross-engine grid and on the bundles of solve-B
    # --order 10, is |beta|!/prod beta_k! * prod [k]_y^beta_k, or on the
    # fiber bundles 1 for simple contacts and 0 for any of order >= 2
    ring, scalar = ring_at(y), ScalarTable()
    grid = [Sigma(m, c, d) for m in range(4) for c in range(5) for d in range(4, 0, -1)]
    for bundle in grid:
        for delta in range(5):
            severi_degree_scalar(bundle, delta, y, scalar)
    for bundle in solve_bundles(10, y):
        for delta in range(10):
            severi_degree_scalar(bundle, delta, y, scalar)
    # fiber bundles with contacts of order 2 and 3, fixed and moving
    for c, alpha, beta in ((3, (1, 1), ()), (3, (), (1, 1)), (4, (0, 2), ()),
                           (3, (0, 0, 1), ()), (5, (1,), (0, 2))):
        relative_degree_scalar(Sigma(1, c, 0), 0, alpha, beta, y, scalar)
    zeros = [(key, v) for key, v in scalar.memo[y].items() if key[3] == 0]
    for (m, c, d, delta, alpha, beta), value in zeros:
        assert caporaso._n0(d, alpha, beta, ring) == value, (m, c, d, alpha, beta)
    fiber = [v for (_, _, d, _, alpha, beta), v in zeros
             if d == 0 and max(len(alpha), len(beta)) > 1]
    # the five above and more that the walks reach, all 0
    assert len(fiber) > 5 and not any(fiber)
    # the multinomial is not 1 on some state of every ring
    assert any(d and len([b for b in beta if b]) > 1 and value
               for (_, _, d, _, alpha, beta), value in zeros)


def test_a_delta_zero_ask_enters_no_child(monkeypatch):
    # the closed form answers the ask itself: one _N entry, one row
    entered, N = [], caporaso._N

    def entering(*args):
        entered.append(args)
        return N(*args)

    monkeypatch.setattr(caporaso, "_N", entering)
    table = CHTable()
    assert relative_degree(P2(6), 0, (), (6,), table=table).is_one()
    assert len(entered) == 1 and table.memo["sym"] == {(1, 0, 6, (), (6,)): [YLaurent.const(1)]}


def test_the_walk_runs_deep_states_without_recursion(monkeypatch):
    # P2(50), delta = 1 nests about 1300 states, past the default recursion
    # limit of 1000; the walk holds them on its own stack, so it runs within
    # 100 frames of its caller and never sets the process's limit
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    old, set_limit = sys.getrecursionlimit(), sys.setrecursionlimit

    def refuse(limit):
        raise AssertionError(f"sys.setrecursionlimit({limit}) called")

    set_limit(depth + 100)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(sys, "setrecursionlimit", refuse)
            assert severi_degree(P2(50), 1, y=1) == 3 * 49 ** 2 == 7203
    finally:
        set_limit(old)

    class Broken(CHTable):
        def lookup(self, *args):
            raise RuntimeError("lookup failed")

    # a table that raises stops the walk with its error; a fresh table then
    # gives the same value as the recursion asked one delta at a time
    with pytest.raises(RuntimeError, match="lookup failed"):
        severi_degree(P2(5), 1, table=Broken())
    assert severi_degree(P2(5), 1, table=CHTable()) == \
        severi_degree_scalar(P2(5), 1, "sym", ScalarTable())


# The refusal table of every int parameter of the public functions: (label,
# a call of one value of it, the name its refusal gives, its least value or
# None). Each gives the rows refusing a value below the least, a float, True
# and a str by that name, with ids label-kind-name; the least itself is run.
def _check(conj_id, name, **rest):
    return lambda v: check_conjecture(conj_id, **rest, **{name: v})


INT_PARAMETERS = [
    ("P2", P2, "d", 0),
    ("P11m", lambda v: P11m(v, 2), "m", 1),
    ("P11m", lambda v: P11m(1, v), "d", 0),
    ("Sigma", lambda v: Sigma(v, 0, 2), "m", 0),
    ("Sigma", lambda v: Sigma(0, v, 2), "c", 0),
    ("Sigma", lambda v: Sigma(0, 0, v), "d", 0),
    ("severi_degrees", lambda v: severi_degrees(P2(3), v), "delta", 0),
    ("severi_degree", lambda v: severi_degree(P2(3), v), "delta", 0),
    ("welschinger_degree", lambda v: welschinger_degree(P2(3), v), "delta", 0),
    ("relative", lambda v: relative_degree(P2(2), v, (), (2,)), "delta", 0),
    ("relative", lambda v: relative_degree(P2(2), 1, (v,), (0, 1)), "alpha[0]", 0),
    ("relative", lambda v: relative_degree(P2(2), 1, (), (v, 1)), "beta[0]", 0),
    ("s_beta", lambda v: s_beta(v, 1, 2), "c", 0),
    ("s_beta", lambda v: s_beta(0, v, 2), "m", 0),
    ("s_beta", lambda v: s_beta(0, 1, v), "d", 0),
    ("enumerate_graphs", lambda v: enumerate_graphs(v, 2), "delta", 0),
    ("enumerate_graphs", lambda v: enumerate_graphs(1, v), "maxv_bound", 0),
    ("enumerate_templates", enumerate_templates, "delta", 0),
    ("refined_count", lambda v: refined_count((1, 2), v), "delta", 0),
    ("refined_count", lambda v: refined_count((v, 2), 1), "beta[0]", 0),
    ("refined_counts", lambda v: refined_counts((1, 2), v, 1), "delta", 0),
    ("refined_counts", lambda v: refined_counts((1, v), 1, -1), "beta[1]", 0),
    ("refined_counts_at", lambda v: refined_counts_at({(0, 1, v): 1}), "d", 0),
    ("refined_counts_at", lambda v: refined_counts_at([(0, 1, 2)], v), "delta", 0),
    ("q_log_count", lambda v: q_log_count((1, 2), v), "delta", 1),
    ("q_log_count", lambda v: q_log_count((1, v), 1), "beta[1]", 0),
    ("qnum", qnum, "n", 1),
    ("in_regime", lambda v: in_regime(P2(3), v), "delta", 0),
    ("solve_bundles", solve_bundles, "order", 0),
    ("solve_universal_B", lambda v: solve_universal_B(
        engine_data(solve_bundles(1), 1, "sym", CHTable()), v), "order", 1),
    ("reform_eval", lambda v: reform_eval([Invariants.of(P2(2))], modular.b_series(1, 3),
                                          modular.b_series(2, 3), v), "order", 0),
    ("node_values", lambda v: node_values({}, v), "delta_max", 0),
    *[("node_values", lambda v, n=name: node_values({}, 0, **{n: v}), name, 0) for name in "cmd"],
    *[("q_at", lambda v, n=name: NodePolynomial("p2", 1, ("1",), [YL_ONE]).q_at(**{n: v}),
       name, 0) for name in "cmd"],
    ("fit_node_polynomials", lambda v: fit_node_polynomials("p2", [v]), "delta", 1),
    ("fit_node_polynomials", lambda v: fit_node_polynomials("p11m-fixed-m", [1], v), "m", 1),
    ("named_series", lambda v: named_series("Eta", v), "order", 1),
    ("named_series", lambda v: named_series("fLower", 3, param=v), "param", None),
    ("eisenstein", lambda v: modular.eisenstein(v, 3), "k2", None),
    ("f_lower", lambda v: modular.f_lower(v, 3), "l", 0),
    ("f_bar_closed", lambda v: modular.f_bar_closed(v, 3), "l", 1),
    ("fhat_cm_general", lambda v: modular.fhat_cm_general(v, 4), "m", 2),
    *[(f.__name__, functools.partial(f, *args), "order", 1) for f, *args in (
        (modular.euler_product,), (modular.eta,), (modular.eisenstein, 4),
        (modular.eisenstein_bar, 4), (modular.theta2_of_qsq,), (modular.theta2,),
        (modular.theta_y,), (modular.theta_unit,), (modular.theta_y_product,),
        (modular.dgtilde2,), (modular.ddgtilde2,), (modular.delta_tilde,),
        (modular.f_lower, 1), (modular.f_bar, 1), (modular.f_bar_closed, 1),
        (modular.fhat_cm, 3), (modular.fhat_cm_general, 2), (modular.h_series, 2),
        (modular.h_at, 3, 1), (modular.b_series, 2), (modular.b_bar_series, 1))],
    *[("cross_engine", _check("cross_engine", name, **dict.fromkeys(
        {"dmax", "cmax", "mmax", "deltamax"} - {name}, 1)), option(name), None)
      for name in ("dmax", "cmax", "mmax", "deltamax")],
    ("P2blow", _check("P2blow", "m_max", delta_max=1, d_max=3), "--m-max", None),
    ("refpol", _check("refpol", "deltamax", dmax=2), "--deltamax", 0),
    ("GSPSigmaW", _check("GSPSigmaW", "deltamax", dmax=2), "--deltamax", 0),
    ("solveB", _check("solveB", "order", order_minus1=1), "--order", 1),
    ("solveB", _check("solveB", "order_minus1", order=1), "--order-minus1", 1),
    ("fbar_closed_form", _check("fbar_closed_form", "lmax", order=3), "--lmax", 1),
    # the entries of a tuple parameter, by its option name and index
    ("blowk", lambda v: check_conjecture("blowk", ks=(v,), dprimes=(2,), delta_max=1),
     "--ks[0]", 0),
    ("blowk", lambda v: check_conjecture("blowk", ks=(2,), dprimes=(v,), delta_max=1),
     "--dprimes[0]", 0),
    ("ruledblow", lambda v: check_conjecture("ruledblow", ms=(v,), d_max=1), "--ms[0]", None),
    *[(cid, _check(cid, "order"), "--order", 1) for cid in (
        "fbar_closed_form", "Fhat_c2_is_theta2", "eta_quotient_theta2", "B_minus1_tables")],
]


def _refusals(label, call, name, least):
    below = [] if least is None else [
        ("below", least - 1, "negative" if least == 0 else f"below {least}")]
    for kind, value, why in below + [("float", 2.0, None), ("bool", True, None),
                                     ("str", "1", None)]:
        message = f"{name} = {value if why else repr(value)} is {why or 'not an integer'}"
        yield pytest.param(functools.partial(call, value), message,
                           id=f"{label}-{kind}-{name.lstrip('-').partition('[')[0]}")


@pytest.mark.parametrize("call, message", [
    row for spec in INT_PARAMETERS for row in _refusals(*spec)])
def test_recursion_inputs_refused_unless_int(call, message):
    # a bool is no int, and no value reaches the computation unchecked
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, least", [
    pytest.param(call, least, id=f"{label}-{name.lstrip('-').partition('[')[0]}")
    for label, call, name, least in INT_PARAMETERS if least is not None])
def test_least_values_are_accepted(call, least):
    call(least)


# The refusal table of every parameter that selects from a finite set: (label,
# a call of one value of it, the name its refusal gives, its keys as the
# refusal lists them, a key, a value off the record, the kinds refused). A
# kind is True, the key as a float, as a str (an int key's digits, a str
# key's upper case), or the value off the record; each is refused by name.
_Y = "'sym', 1 or -1"
SELECTING_PARAMETERS = [
    ("ring_at", ring_at, "y", _Y, 1, 2),
    ("severi_degree", lambda v: severi_degree(P2(3), 1, y=v), "y", _Y, 1, 0),
    ("severi_degrees", lambda v: severi_degrees(P2(3), 1, v), "y", _Y, -1, 2),
    ("relative_degree", lambda v: relative_degree(P2(2), 1, (), (2,), v), "y", _Y, -1, 0),
    ("refined_counts", lambda v: refined_counts((1, 2), 1, v), "y", _Y, 1, 2),
    ("refined_count", lambda v: refined_count((1, 2), 1, v), "y", _Y, -1, 3),
    ("in_regime", lambda v: in_regime(P2(3), 1, v), "y", _Y, 1, 2),
    ("specialize_y", lambda v: modular.eta(3).specialize_y(v), "y", _Y, -1, 2),
    ("b_series", lambda v: modular.b_series(v, 3), "which", "1 or 2", 1, 3),
    ("b_bar_series", lambda v: modular.b_bar_series(v, 3), "which", "1 or 2", 2, 3),
    ("fhat_cm", lambda v: modular.fhat_cm(v, 3), "m", "2, 3 or 4", 2, 5),
    ("h_series", lambda v: modular.h_series(v, 3), "m", "1 or 2", 1, 3),
    ("h_at", lambda v: modular.h_at(1, v, 3), "y", "1 or -1", 1, 0),
    ("h_at", lambda v: modular.h_at(v, -1, 3), "m", "1, 2, 3 or 4", 1, 5),
    ("quasimodular_sum", lambda v: modular.quasimodular_sum([(QQ(1), ((v, 0, 2),))], 3),
     "factor", "'G', 'Gbar' or 'Delta'", "Gbar", "E"),
    ("SurfaceBundle", lambda v: SurfaceBundle(v, 1, 0, 2), "family",
     "'p2', 'p11m' or 'sigma'", "p2", "torus"),
    ("fit_node_polynomials", lambda v: fit_node_polynomials(v, [1]), "family",
     "'p2', 'p11m-fixed-m', 'p1xp1', 'sigma' or 'p11m'", "p2", "torus"),
    ("check_parameters", check_parameters, "conj_id",
     ", ".join(map(repr, CHECK_IDS[:-1])) + f" or {CHECK_IDS[-1]!r}", "refpol", "nope"),
    # True, 2.0 and "1" are refused as entries that are no int, in the int table
    ("ruledblow", lambda v: check_conjecture("ruledblow", ms=(2, v), d_max=1), "--ms[1]",
     "2, 3 or 4", 2, 5, ("off",)),
]


def _selections(label, call, name, keys, key, off, kinds=("bool", "float", "str", "off")):
    values = {"bool": True, "off": off,
              "float": float(key) if type(key) is int else 1.0,
              "str": str(key) if type(key) is int else key.upper()}
    for kind in kinds:
        yield pytest.param(functools.partial(call, values[kind]),
                           f"{name} must be {keys}, not {values[kind]!r}",
                           id=f"{label}-{kind}-{name.lstrip('-').partition('[')[0]}")


@pytest.mark.parametrize("call, message", [
    row for spec in SELECTING_PARAMETERS for row in _selections(*spec)])
def test_selecting_parameters_refused_unless_a_key(call, message):
    # the key's type too: True is not 1, 1.0 not 1, '1' not 1
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_a_stored_table_refuses_y_true_and_writes_nothing(tmp_path):
    # y = True read as y = 1 walked the y = 1 rows, and insert wrote True|...
    # records under a y no reader asks for
    path = tmp_path / "values.cache"
    state = (1, 0, 1, (), (1,))
    with CacheStore(str(path)) as store:
        table = CHTable(store)
        for call in (lambda: severi_degree(P2(3), 1, y=True, table=table),
                     lambda: table.insert(True, state, 0, [1]),
                     lambda: table.lookup(True, state, 0)):
            with pytest.raises(ValueError, match=r"^y must be 'sym', 1 or -1, not True$"):
                call()
        assert len(store) == 0 and not any(table.memo.values())
    assert path.read_text() == MAGIC + "\n"
