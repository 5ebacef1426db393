import functools
import gc
import math
import os
import random
import subprocess
import sys
import weakref

import pytest

from refsev import graphs
from refsev.genfun import solve_bundles
from refsev.graphs import (
    enumerate_graphs,
    enumerate_templates,
    q_log_count,
    refined_count,
    refined_counts,
    refined_counts_by_prefix,
    s_beta,
)
from refsev.rationals import QQ
from refsev.ylaurent import YLaurent

from oracles import (
    _edge_classes,
    beta_allowable,
    beta_semiallowable,
    cogenus,
    count_orderings,
    count_orderings_bruteforce,
    count_orderings_fill_dp,
    eps0,
    eps1,
    eval_phi_linear,
    fill_programme,
    fill_sum,
    fill_weights,
    fit_phi_linear,
    is_template,
    lambda_bar_j,
    lambda_j,
    length,
    loads,
    maxv,
    minv,
    multiplicity,
    phi,
    phi_bruteforce,
    placement,
    q_log_count_templates,
    refined_count_all_graphs,
    shift,
)

random.seed(1759)

# the oracle-only names of the graph engine, kept in tests/oracles.py
ORACLE_NAMES = (
    "count_orderings", "phi", "_sub_multiset", "_euler_terms", "_log_numerator",
    "fit_phi_linear", "eval_phi_linear", "is_empty", "cogenus", "shift",
    "lambda_j", "lambda_bar_j", "beta_allowable", "beta_semiallowable",
    "strictly_beta_allowable", "_heavy_end", "is_template", "_fill_weights",
    "_fill_sum", "placement", "LongEdgeGraph", "minv", "maxv", "length", "loads",
    "_light_at", "eps0", "eps1", "multiplicity",
)


def test_the_package_loads_no_oracle():
    # in a fresh interpreter, where no test has imported an oracle: the
    # package and its command line load no floor-diagram model, and the
    # graph engine holds none of the oracle-only names, no graph class
    # among them
    probe = (
        "import sys, refsev, refsev.cli\n"
        "print('refsev.floor_diagrams' in sys.modules)\n"
        f"print(sorted(n for n in {ORACLE_NAMES!r} if hasattr(refsev.graphs, n)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True,
                          cwd=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    assert proc.stdout == "False\n[]\n"


# -- enumeration ----------------------------------------------------------------


def test_enumeration_yields_sorted_valid_graphs():
    # a graph is the sorted tuple of its edges, each (i, j, w) with
    # 0 <= i < j, w >= 1 and no short edge (i, i + 1, 1), of exactly the
    # cogenus asked, each once: on every graph of cogenus <= 4 with maxv
    # <= 5 and every template of cogenus <= 6, whose counts are pinned
    templates = [enumerate_templates(kappa) for kappa in range(1, 7)]
    assert list(map(len, templates)) == [2, 7, 26, 102, 414, 1711]
    lists = [(delta, enumerate_graphs(delta, 5)) for delta in range(5)] + list(
        enumerate(templates, 1))
    for delta, listed in lists:
        assert len(set(listed)) == len(listed), delta
        for G in listed:
            assert type(G) is tuple and G == tuple(sorted(G)), G
            assert all(0 <= i < j and w >= 1 and (j, w) != (i + 1, 1) for i, j, w in G), G
            assert cogenus(G) == delta, G


def test_enumerate_cogenus_zero():
    assert enumerate_graphs(0, 5) == [()]


def test_enumerate_cogenus_one():
    got = set(enumerate_graphs(1, 2))
    expect = {((0, 1, 2),), ((0, 2, 1),), ((1, 2, 2),)}
    assert got == expect  # the shift (0,1,2) -> (1,2,2) is a distinct graph


def _naive_enumerate(delta, maxv):
    """Independent oracle: nested loops over bounded edge tuples."""
    types = [
        (i, j, w)
        for i in range(maxv)
        for j in range(i + 1, maxv + 1)
        for w in range(1, delta + 2)
        if (j - i) * w - 1 <= delta and not (j == i + 1 and w == 1)
    ]
    seen = set()

    def rec(start, rem, acc):
        if rem == 0:
            seen.add(tuple(sorted(acc)))
            return
        for t in range(start, len(types)):
            e = types[t]
            x = (e[1] - e[0]) * e[2] - 1
            if 1 <= x <= rem:
                rec(t, rem - x, acc + [e])

    rec(0, delta, [])
    return seen


@pytest.mark.parametrize("delta", [1, 2, 3])
def test_enumeration_matches_naive_oracle(delta):
    got = set(enumerate_graphs(delta, 4))
    assert got == _naive_enumerate(delta, 4)
    assert all(cogenus(G) == delta for G in enumerate_graphs(delta, 4))


def test_templates_are_spanned():
    for delta in (1, 2, 3):
        for T in enumerate_templates(delta):
            assert minv(T) == 0
            assert is_template(T)


@pytest.mark.parametrize("delta", [0, 1, 2, 3, 4, 5])
def test_templates_are_the_templates_among_all_graphs(delta):
    # same graphs in the same order as filtering the full enumeration
    assert enumerate_templates(delta) == [
        G for G in enumerate_graphs(delta, delta + 1) if is_template(G)]


def test_templates_handed_to_a_caller_change_no_count():
    # each call makes a new list, so a caller's pop() or overwrite reaches
    # no later count: a shared list once let pop() turn N^2 of beta =
    # (0, 1, 2, 3) at y = 1 from 21 into 15
    templates = enumerate_templates(2)
    templates.pop()
    templates[0] = templates[1]
    assert enumerate_templates(2) is not templates
    assert len(enumerate_templates(2)) == len(templates) + 1
    assert refined_count((0, 1, 2, 3), 2, y=1) == 21


# -- multiplicities -------------------------------------------------------------


def test_multiplicity_empty():
    assert multiplicity((), "sym").is_one()
    assert multiplicity((), 1) == 1
    assert multiplicity((), -1) == 1


def test_multiplicity_single_weight_two():
    G = ((0, 1, 2),)
    assert multiplicity(G, "sym") == YLaurent({2: 1, 0: 2, -2: 1})
    assert multiplicity(G, 1) == 4
    assert multiplicity(G, -1) == 0


def test_multiplicity_specializations_agree():
    for G in enumerate_graphs(3, 3):
        m = multiplicity(G, "sym")
        assert m.at_one() == multiplicity(G, 1)
        assert m.at_minus_one() == multiplicity(G, -1)


# -- gap loads ------------------------------------------------------------------


def _literal_lambda(G, j):
    """Oracle: the total weight of edges (i -> k) with i < j <= k."""
    return sum(w for i, k, w in G if i < j <= k)


@pytest.mark.parametrize("delta", [0, 1, 2, 3, 4])
def test_loads_match_literal_gap_sums(delta):
    betas = [(0, 0), (2, 2, 2), (3, 1, 2), (1, 3, 2, 0), (4, 4, 4, 4, 4, 4)]
    for G in enumerate_graphs(delta, 5):
        lam = loads(G)
        top = maxv(G) if G else 0
        assert len(lam) == top
        for j in range(-1, top + 3):
            assert lambda_j(G, j) == _literal_lambda(G, j), (G, j)
            if 1 <= j <= top:
                assert lam[j - 1] == _literal_lambda(G, j), (G, j)
        for beta in betas:
            M = len(beta) - 1
            literal = top <= M + 1 and all(
                beta[j - 1] >= _literal_lambda(G, j) for j in range(1, M + 2))
            assert beta_allowable(G, beta) == literal, (G, beta)


# -- ordering counts --------------------------------------------------------------


def test_orderings_empty_graph():
    assert count_orderings((), (3, 1, 4)) == 1


def test_orderings_single_long_edge():
    # one edge (0 -> 2, w=1) with beta = (1,1): the orderings (0 e 1 2), (0 1 e 2)
    G = ((0, 2, 1),)
    assert count_orderings(G, (1, 1)) == 2


def test_orderings_zero_when_not_allowable():
    G = ((0, 2, 3),)
    assert not beta_allowable(G, (1, 1))
    assert count_orderings(G, (1, 1)) == 0


@pytest.mark.parametrize("delta", [1, 2, 3, 4])
def test_orderings_match_bruteforce(delta):
    # every graph with maxv <= 5 (996 at delta = 4); the fill-vector
    # programme merges placements only where a repeated class spans two or
    # more gaps, which occurs from delta = 2 on (209 graphs at delta = 4)
    betas = [(2, 2, 2), (3, 1, 2), (4, 4), (1, 3, 2), (5, 0, 2), (2, 4, 6),
             (2, 2, 2, 2, 2), (3, 2, 4, 2, 3), (5, 5, 5, 5, 5), (1, 2, 3, 4, 5)]
    merged = 0
    for G in enumerate_graphs(delta, 5):
        merging = any(n > 1 and j - i > 1 for (i, j, _), n in _edge_classes(G))
        for beta in betas:
            for strict in (False, True):
                got = count_orderings(G, beta, strict)
                assert got == count_orderings_bruteforce(G, beta, strict), (G, beta, strict)
                merged += merging and got > 0
    assert merged > 0 or delta == 1


def _windows(T: tuple) -> list:
    """beta windows for template T: its loads (no free fill), zeros, one
    entry below its load, too short, random free fills, entries up to 12,
    and one gap longer than T."""
    lam = loads(T)
    rng = random.Random(hash(T))
    below = [lam[:g] + (lam[g] - 1,) + lam[g + 1:] for g in range(len(lam)) if lam[g]]
    return [lam, (0,) * len(lam), (12,) * len(lam), (12,) * (len(lam) + 1),
            lam[:-1], lam + (0,), rng.choice(below)] + [
        tuple(rng.randint(l, 12) for l in lam) + (rng.randint(0, 12),) * extra
        for extra in (0, 0, 1)]


@pytest.mark.parametrize("kappa", [1, 2, 3, 4, 5])
def test_orderings_match_fill_dp_on_templates(kappa):
    # P from the fill weights against the programme started from the free
    # fills, on every template of cogenus kappa, shifted by 0 and by 1, on
    # windows past the reach of the brute force
    for T in enumerate_templates(kappa):
        for beta in _windows(T):
            for G, b in ((T, beta), (shift(T, 1), (3,) + beta)):
                for strict in (False, True):
                    assert count_orderings(G, b, strict) == count_orderings_fill_dp(
                        G, b, strict), (G, b, strict)


@pytest.mark.parametrize("kappa", [1, 2, 3, 4, 5, 6])
def test_fill_weights_equal_the_class_programme(kappa):
    # the engine's step places one edge at a time, and the weights divide
    # by the factorials of the multiplicities; the oracle places each class
    # of identical edges at once; from an empty fill both give W(n)
    for T in enumerate_templates(kappa):
        assert fill_weights(T) == fill_programme(T, (0,) * len(loads(T))), T


def _table_windows(kappa):
    """{length: {(eps0, eps1): windows}}: at most 12 windows of each length
    up to kappa + 1 for every eps0 and eps1, cut from the _windows of about
    four templates of cogenus kappa (their loads, one entry below, zeros,
    random fills)."""
    templates = enumerate_templates(kappa)
    cut: dict = {}
    for T in templates[::max(1, len(templates) // 4)]:
        for b in _windows(T):
            for ell in range(1, len(b) + 1):
                cut.setdefault(ell, set()).add(b[:ell])
    rng = random.Random(kappa)
    return {ell: dict.fromkeys([(0, 0), (0, 1), (1, 0), (1, 1)],
                               set(rng.sample(sorted(ws), min(12, len(ws)))))
            for ell, ws in cut.items() if ell <= kappa + 1}


def _tables_by_template(kappa, windows, p_of):
    """The placement tables of cogenus kappa, template by template: the sum
    of p_of(T)(window) at each window of T's length, eps0 and eps1, over
    the templates T of each placement."""
    tables: dict = {}
    for T in enumerate_templates(kappa):
        ell, e0, e1, weights = placement(T)
        p_at = p_of(T)
        by_window = tables.setdefault((ell, weights), {}).setdefault((e0, e1), {})
        for window in windows[ell][e0, e1]:
            by_window[window] = by_window.get(window, 0) + p_at(window)
    return tables


@pytest.mark.parametrize("kappa", [1, 2, 3, 4, 5, 6])
def test_placement_tables_equal_the_per_template_weights(kappa):
    # the walk reads the loads, the eps flags and the symmetry factor off
    # each template and places each edge prefix of one that fits once,
    # resuming from the last one placed; the P of each template alone,
    # from its own fill weights (count_orderings), gives the same tables,
    # each window asked and no other
    windows = _table_windows(kappa)

    def p_of(T):
        weights, lam = fill_weights(T).items(), loads(T)
        return lambda window: beta_allowable(T, window) and fill_sum(
            weights, [b - l for b, l in zip(window, lam)])

    assert all(p_of(T)(w) == count_orderings(T, w) for T in enumerate_templates(kappa)[:9]
               for w in windows[length(T)][0, 0])
    tables = graphs._window_sums(windows, kappa)
    assert len(tables) == kappa + 1 and not tables[0]
    assert tables[kappa] == _tables_by_template(kappa, windows, p_of)


@pytest.mark.parametrize("kappa", [1, 2, 3, 4, 5, 6])
def test_placement_tables_sum_their_templates(kappa):
    # each entry of the tables, at each window, is the sum of the P of the
    # templates of that length, weights, eps0 and eps1 by the class
    # programme from the free fills; the entries hold every template of
    # cogenus kappa
    windows = _table_windows(kappa)
    tables = graphs._window_sums(windows, kappa)[kappa]
    assert tables == _tables_by_template(
        kappa, windows, lambda T: functools.partial(count_orderings_fill_dp, T))
    assert sorted(tables) == sorted({placement(T)[::3] for T in enumerate_templates(kappa)})


def test_template_sums_pay_one_binomial_per_filled_gap(monkeypatch):
    # nodepoly's sweep, s(0, 1, 10) at delta = 5: _template_sum calls comb
    # once per gap that a fill fills, never for C(f + 0, 0) = 1, so 26,340
    # times, where one call per gap of every fill made 46,504; the counts
    # stay those of the sweep without the count
    calls = []

    def counting(n, k):
        calls.append(k)
        return math.comb(n, k)

    monkeypatch.setattr(graphs, "comb", counting)
    counts = graphs.refined_counts_at({(0, 1, 10): 5})
    assert len(calls) == 26340 and all(calls)
    monkeypatch.undo()
    assert counts == {(0, 1, 10): refined_counts(s_beta(0, 1, 10), 5)}


def test_only_templates_that_fit_a_window_are_placed(monkeypatch):
    # a template whose loads fit no window asked is neither placed nor
    # summed, but its class still holds its windows at 0; solveB's windows
    # at order 9 placed 12,329 prefixes when every template of a length
    # asked was placed, and now place under a third of that; nodepoly's
    # sweep and the benchmark's cross-engine call, where nearly every
    # template fits, place exactly the prefixes they placed
    placed, summed, place, template_sum = [], [], graphs._place, graphs._template_sum

    def placing(fills, edge):
        placed.append(edge)
        return place(fills, edge)

    def summing(fills, last, free):
        summed.append(last)
        return template_sum(fills, last, free)

    monkeypatch.setattr(graphs, "_place", placing)
    monkeypatch.setattr(graphs, "_template_sum", summing)
    tables = graphs._window_sums(graphs._windows([((0,) * 5, 3)]), 3)
    assert not placed and not summed
    assert sorted(tables[3]) == sorted({placement(T)[::3] for T in enumerate_templates(3)})
    assert {s for kappa in (1, 2, 3) for classes in tables[kappa].values()
            for by_window in classes.values() for s in by_window.values()} == {0}
    counts = []
    for points in ({(b.c, b.m, b.d): 8 for b in solve_bundles(9)}, {(0, 1, 10): 5},
                   {(c, m, d): 4 for m in range(4) for c in range(5) for d in range(1, 5)}):
        placed.clear()
        graphs.refined_counts_at(points)
        counts.append(len(placed))
    assert 3 * counts[0] <= 12329 and counts[1:] == [183, 46]


def test_windows_are_those_the_sweep_reads():
    # a template at p needs eps0 when p = 0 and eps1 when it ends at the
    # last vertex; no template of cogenus at most delta is longer than
    # delta + 1; the windows of several sweeps are merged
    beta = (3, 1, 4, 1, 5)
    windows = graphs._windows([(beta, 2)])
    assert sorted(windows) == [1, 2, 3]
    assert windows[2] == {(0, 0): {(1, 4), (4, 1)}, (0, 1): {(1, 4), (4, 1), (1, 5)},
                          (1, 0): {(3, 1), (1, 4), (4, 1)},
                          (1, 1): {(3, 1), (1, 4), (4, 1), (1, 5)}}
    assert graphs._windows([(beta, 9)])[5] == {(0, 0): set(), (0, 1): set(),
                                               (1, 0): set(), (1, 1): {beta}}
    both = graphs._windows([(beta, 2), ((2, 7), 4)])
    assert both[2][1, 1] == windows[2][1, 1] | {(2, 7)}
    assert both[1][0, 0] == {(1,), (4,)} and not graphs._windows([((), 3)])


def test_counts_at_hold_no_memo_past_the_call(monkeypatch):
    # two calls on different grids in one process each equal the counts
    # point by point; each walks every cogenus once; the tables of each
    # call are gone when it returns, and graphs keeps no container and no
    # cache at all: no template list, P sum or fill structure
    tables, walked = [], []
    window_sums, templates = graphs._window_sums, graphs.enumerate_templates

    class Tables(list):
        __slots__ = ("__weakref__",)

    def tracked(*args):
        out = Tables(window_sums(*args))
        tables.append(weakref.ref(out))
        return out

    def walking(kappa):
        walked.append(kappa)
        return templates(kappa)

    monkeypatch.setattr(graphs, "_window_sums", tracked)
    monkeypatch.setattr(graphs, "enumerate_templates", walking)
    for points in ({(c, m, d): 4 for c in range(3) for m in range(3) for d in range(1, 4)},
                   {(0, 1, 6): 5, (2, 0, 3): 2, (1, 2, 2): 3}):
        walked.clear()
        made = len(tables)
        counts = graphs.refined_counts_at(points)
        assert len(tables) == made + 1 and tables[-1]() is None
        assert walked == list(range(1, max(points.values()) + 1))
        assert counts == {p: refined_counts(s_beta(*p), delta) for p, delta in points.items()}
    monkeypatch.undo()
    del counts
    gc.collect()
    assert all(ref() is None for ref in tables)
    held = {name for name, value in vars(graphs).items() if not name.startswith("__")
            and (isinstance(value, (dict, list, set, tuple)) or hasattr(value, "cache_info"))}
    assert held == set()


def test_no_long_edge_graph_outlives_a_call():
    # in a fresh interpreter: a cogenus-6 sweep walks the 2,262 templates of
    # cogenus 1 to 6, and once it returns the process holds fewer new
    # memory blocks than that (about 280 on Python 3.11), so no template
    # list survives it; with enumerate_templates cached it holds over 3,000
    probe = (
        "import gc, sys\n"
        "from refsev.graphs import refined_counts_at\n"
        "gc.collect()\n"
        "before = sys.getallocatedblocks()\n"
        "refined_counts_at({(0, 1, 7): 6})\n"
        "gc.collect()\n"
        "print(sys.getallocatedblocks() - before)\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True,
                          cwd=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    assert int(proc.stdout) < 2262


def test_refined_counts_at_refuses_a_negative_degree():
    # a negative d once read rows[c, m][d + 1]: d = -2 served the last row,
    # P^2(3)'s, and d = -1 the row of the empty beta
    for points in ({(0, 1, -2): 2, (0, 1, 3): 2}, {(0, 1, -1): 1}):
        with pytest.raises(ValueError, match="degree d must be nonnegative"):
            graphs.refined_counts_at(points)


def test_s_beta_refuses_a_negative_degree():
    # s(0, 1, -1) was (), whose counts are the empty beta's [1, 0, 0]
    with pytest.raises(ValueError, match="degree d must be nonnegative"):
        s_beta(0, 1, -1)
    assert s_beta(0, 1, 0) == (0,)


def test_s_beta_refuses_a_negative_c_or_m():
    # s(0, -1, 2) was the negative beta (0, -1, -2)
    for args, name in (((0, -1, 2), "m"), ((-1, 1, 2), "c")):
        with pytest.raises(ValueError, match=f"^{name} must be nonnegative, not -1$"):
            s_beta(*args)


def test_degree_and_cogenus_refused_unless_int():
    # s(0, 1, True) was (0, 1), the sequence of d = 1, enumerate_templates(True)
    # the templates of cogenus 1, and a float d or delta ended in a TypeError
    for call, name, value in (
        (lambda: s_beta(0, 1, True), "degree d", "True"),
        (lambda: s_beta(0, 1.0, 2), "m", "1.0"),
        (lambda: graphs.refined_counts_at({(0, 1, 2.5): 2}), "degree d", "2.5"),
        (lambda: graphs.refined_counts_at({(0, 1, 2): 1.5}), "delta", "1.5"),
        (lambda: graphs.refined_counts_at([(0, 1, 2)], True), "delta", "True"),
        (lambda: refined_counts((1, 2), 1.5), "delta", "1.5"),
        (lambda: q_log_count((1, 2), 1.0), "delta", "1.0"),
        (lambda: graphs.enumerate_graphs(1.5, 3), "delta", "1.5"),
        (lambda: graphs.enumerate_templates(True), "delta", "True"),
    ):
        with pytest.raises(ValueError, match=rf"^{name} = {value} is not an integer$"):
            call()
    assert q_log_count((1, 2), 1) == refined_count((1, 2), 1)


def test_maxv_bound_refused_unless_a_nonnegative_int():
    # enumerate_graphs(2, 2.5) ended in a TypeError, (2, True) enumerated to
    # the bound 1 and (0, -3) gave the empty graph
    for bound in (2.5, True):
        with pytest.raises(ValueError, match=rf"^maxv_bound = {bound} is not an integer$"):
            enumerate_graphs(2, bound)
    for delta in (0, 2):
        with pytest.raises(ValueError, match="^maxv_bound = -3 is negative$"):
            enumerate_graphs(delta, -3)
    assert enumerate_graphs(0, 0) == [()] and enumerate_graphs(1, 0) == []


def test_refined_counts_refuses_a_non_integer_beta():
    # (1.5, 2) and (True, 2) were counted as (1, 2)
    for beta, at in (((1.5, 2), 0), ((True, 2), 0), ((2, QQ(1, 2)), 1)):
        with pytest.raises(ValueError, match=rf"beta\[{at}\] = .* is not an integer"):
            refined_counts(beta, 2)
    assert refined_counts((1, 2), 2) == refined_counts([1, 2], 2)


def test_refined_counts_at_refuses_points_without_a_delta():
    # a list of points takes its delta from the call; without one it raised
    # AttributeError on list.values
    with pytest.raises(ValueError, match="need a delta"):
        graphs.refined_counts_at([(0, 1, 2)])
    assert graphs.refined_counts_at([(0, 1, 2)], 1) == graphs.refined_counts_at({(0, 1, 2): 1})


# -- the log transform ---------------------------------------------------------------


def test_phi_single_edge_equals_p():
    G = ((0, 1, 2),)
    assert phi(G, (4,)) == QQ(count_orderings(G, (4,)))


def test_phi_two_identical_edges():
    # ordered multiset decompositions: Phi = P(G) - P({e})^2 / 2
    G = ((0, 2, 1), (0, 2, 1))
    e = ((0, 2, 1),)
    b = (3, 3)
    assert phi(G, b) == QQ(count_orderings(G, b)) - QQ(count_orderings(e, b)) ** 2 / 2


@pytest.mark.parametrize("delta", [1, 2, 3])
def test_phi_matches_literal_partition_sum(delta):
    # the integer recursion of _log_numerator against the literal sum, on
    # every graph with maxv <= 3
    cands = enumerate_graphs(delta, 3)
    if delta > 1:  # repeated edge classes are covered
        assert any(len(set(G)) < len(G) for G in cands)
    for G in cands:
        for beta in [(2, 2, 2), (3, 1, 2), (4, 4)]:
            for strict in (False, True):
                assert phi(G, beta, strict) == phi_bruteforce(G, beta, strict)


def test_phi_strict_matches_literal_partition_sum_at_heavy_ends():
    # strict Phi on the graphs an end-vertex mask acts on: an edge of
    # weight > 1 at vertex 0 or at vertex len(beta) = 4
    cands = [G for G in enumerate_graphs(4, 4)
             if any(w > 1 and (i == 0 or j == 4) for i, j, w in G)]
    compared = 0
    for G in cands:
        for beta in [(3, 3, 3, 3), (2, 4, 1, 3)]:
            assert phi(G, beta, strict=True) == phi_bruteforce(G, beta, strict=True), (G, beta)
            compared += 1
    assert compared == 594


def test_phi_refuses_negative_beta():
    # count_orderings reads 0 under a negative entry, which would make Phi
    # silently 0: a negative entry is refused whatever ran before
    G = ((1, 3, 1),)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"beta\[0\] = -1 is negative"):
            phi(G, (-1, 2, 2))
        assert phi(G, (0, 2, 2)) == 4
    with pytest.raises(ValueError, match=r"beta\[2\] = -3 is negative"):
        phi(G, (0, 2, -3), strict=True)
    with pytest.raises(ValueError, match=r"beta\[1\] = -1 is negative"):
        q_log_count((2, -1, 2), 1)
    with pytest.raises(ValueError, match="the log transform starts at cogenus 1"):
        q_log_count((2, 1, 2), 0)


def test_phi_strict_vanishes_off_shifted_templates():
    beta = (3, 4, 5, 6)
    for delta in (1, 2, 3):
        for G in enumerate_graphs(delta, len(beta)):
            if not is_template(shift(G, -minv(G))):
                assert phi(G, beta, strict=True) == 0


def test_phi_strict_bracketing():
    # Phi^s(T_(k)) equals Phi(T_(k)) exactly for 1-eps0 <= k <= M+eps1-l
    beta = (3, 4, 5, 6)
    M = len(beta) - 1
    for delta in (1, 2, 3):
        for T in enumerate_templates(delta):
            l, e0, e1 = length(T), eps0(T), eps1(T)
            for k in range(0, M + 2):
                G = shift(T, k)
                if maxv(G) > M + 1:
                    continue
                strict_val = phi(G, beta, strict=True)
                if (1 - e0) <= k <= (M + e1 - l):
                    assert strict_val == phi(G, beta)
                else:
                    assert strict_val == 0


# -- counts ---------------------------------------------------------------------------


def test_refined_count_cogenus_zero():
    assert refined_count(s_beta(0, 1, 3), 0).is_one()
    # an unknown y is refused even where no graph contributes
    with pytest.raises(ValueError, match="y must be"):
        refined_count((0, 0, 0), 2, "refined")


# beta sequences for the template composition against the all-graph sum:
# the s(c, m, d) grid, interior zeros, non-monotone, length 1 and empty
COMPOSITION_BETAS = sorted({s_beta(c, m, d) for c in range(3) for m in range(3)
                            for d in range(4)}) + [
    (2, 0, 3), (0, 0, 0), (0, 4, 0, 4), (3, 0, 0, 2, 5),
    (5, 1, 4, 0, 2), (1, 2, 3, 2, 1), (4, 1, 4), (0,), (3,), ()]


@pytest.mark.parametrize("y", ["sym", 1, -1])
def test_refined_count_matches_all_graph_sum(y):
    for beta in COMPOSITION_BETAS:
        for delta in range(5):
            assert refined_count(beta, delta, y) == refined_count_all_graphs(
                beta, delta, y), (beta, delta, y)


@pytest.mark.parametrize("y", ["sym", 1, -1])
def test_refined_counts_row_is_each_count(y):
    for beta in COMPOSITION_BETAS:
        row = refined_counts(beta, 4, y)
        assert row == [refined_count(beta, k, y) for k in range(5)], (beta, y)


@pytest.mark.parametrize("y", ["sym", 1, -1])
def test_refined_counts_by_prefix_matches_all_graph_sum(y):
    # every prefix, the empty one and those of length 1 included, so a
    # template with eps1 ends at every vertex of the sweep
    oracle: dict = {}
    for beta in COMPOSITION_BETAS:
        rows = refined_counts_by_prefix(beta, 4, y)
        assert len(rows) == len(beta) + 1
        for n, row in enumerate(rows):
            if beta[:n] not in oracle:
                oracle[beta[:n]] = [refined_count_all_graphs(beta[:n], k, y)
                                    for k in range(5)]
            assert row == oracle[beta[:n]], (beta, n, y)


def test_refined_counts_refuses_negative_cogenus_and_beta():
    with pytest.raises(ValueError, match="cogenus must be nonnegative"):
        refined_counts(s_beta(0, 1, 3), -1)
    with pytest.raises(ValueError, match=r"beta\[1\] = -2 is negative"):
        refined_count((2, -2, 2), 1)


def test_severi_twelve():
    assert refined_count(s_beta(0, 1, 3), 1, 1) == 12


def test_refined_d3_delta1():
    N = refined_count(s_beta(0, 1, 3), 1)
    assert N == YLaurent({2: 1, 0: 10, -2: 1})
    assert N.at_one() == 12
    assert N.at_minus_one() == 8


def test_welschinger_is_specialization():
    for (c, m, d) in [(0, 1, 3), (1, 1, 3), (0, 2, 2), (2, 0, 3)]:
        for delta in (1, 2, 3):
            N = refined_count(s_beta(c, m, d), delta)
            W = refined_count(s_beta(c, m, d), delta, -1)
            assert N.at_minus_one() == W
            assert N.at_one() == refined_count(s_beta(c, m, d), delta, 1)


def test_refined_counts_palindromic_nonnegative():
    for (c, m, d) in [(0, 1, 4), (2, 1, 3), (1, 2, 3), (1, 1, 3)]:
        for delta in range(4):
            N = refined_count(s_beta(c, m, d), delta)
            assert N.is_palindromic()
            assert N.is_integral()
            assert all(v >= 0 and v.denominator == 1 for v in N.terms.values())
            assert all(type(v) is int for v in N.terms.values())


def test_qlog_first_order_is_count():
    for d in (2, 3, 4):
        beta = s_beta(0, 1, d)
        assert q_log_count(beta, 1) == refined_count(beta, 1)


@pytest.mark.parametrize("args", [(1, 1, 4), (0, 1, 4), (2, 2, 3), (3, 0, 3), (0, 1, 5)])
def test_qlog_equals_series_log(args):
    # the log of the counts against the template sum of Phi^s; on two
    # sequences up to delta = 5
    top = 5 if args in ((1, 1, 4), (0, 1, 5)) else 4
    beta = s_beta(*args)
    for delta in range(1, top + 1):
        assert q_log_count(beta, delta) == q_log_count_templates(beta, delta)


def test_qlog_degree_two_in_d():
    # fitted on d = delta..delta+2, predicts d = delta+3..delta+5
    from refsev.linalg import solve_exact
    for delta in (1, 2):
        samples = {d: q_log_count(s_beta(0, 1, d), delta)
                   for d in range(delta, delta + 6)}
        A = [[QQ(1), QQ(d), QQ(d * d)] for d in range(delta, delta + 3)]
        rhs = [samples[d] for d in range(delta, delta + 3)]
        c0, c1, c2 = solve_exact(A, rhs)
        for d in range(delta + 3, delta + 6):
            pred = c0 + c1.scale(d) + c2.scale(d * d)
            assert pred == samples[d]


# -- linearity ---------------------------------------------------------------------------


def test_phi_linear_single_edge_window():
    T = ((0, 1, 2),)
    form = fit_phi_linear(T, [(1, 9, 9), (2, 9, 9), (5, 9, 9), (3, 1, 1)])
    const, coeffs = form
    assert const == -1 and coeffs[0] == 1 and coeffs[1] == 0


def test_phi_linear_empty_graph():
    const, coeffs = fit_phi_linear((), [(1, 2), (3, 4)])
    assert const == 0 and not coeffs


def test_phi_linear_held_out():
    for delta in (1, 2, 3):
        for T in enumerate_templates(delta):
            base = [lambda_bar_j(T, j + 1) for j in range(maxv(T) + 2)]
            probes = []
            while len(probes) < 22:
                b = tuple(x + random.randint(0, 6) for x in base)
                if beta_semiallowable(T, b):
                    probes.append(b)
            form = fit_phi_linear(T, probes[:12])
            for b in probes[12:]:
                assert eval_phi_linear(form, b) == phi(T, b)


def test_phi_linear_rank_deficiency_detected():
    T = ((0, 1, 2),)
    with pytest.raises(ValueError):
        fit_phi_linear(T, [(3, 9), (3, 9), (3, 9)])
