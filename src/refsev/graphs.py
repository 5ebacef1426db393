"""Long-edge-graph combinatorics.

A long edge graph lives on the vertex set Z_{>=0}; edges (i -> j, w) carry
i < j and weight w >= 1, and weight-1 edges of length 1 are forbidden. A
graph is the sorted tuple of its (i, j, w) edges, a multiset. The cogenus
is sum((j-i)w - 1) over edges, so a cogenus-delta graph has at most delta
edges, all short-ranged. Cut at the vertices no edge spans strictly,
a graph is a unique arrangement of shifted templates, and its cogenus,
multiplicity and P^s_beta are sums or products over them.

This module provides the graph-side engine: enumeration by cogenus,
multiplicities, the counts N^delta_beta by template composition for every
prefix of beta (refined_counts_by_prefix) or at points s(c, m, d), each
with its own delta, one sweep per (c, m) (refined_counts_at), and their log
Q^delta_beta (q_log_count). P_beta of one graph, its log transform Phi and
the sum of N^delta_beta over all graphs are oracles in tests/oracles.py.

P is a polynomial in the free fills f = beta - lambda: a dynamic
programme on {per-gap fill vector: count} that places the edges one at a
time from an empty fill (_place) gives weights W(n) with n_g of the
graph's edges in gap g, and P = sum_n W(n) prod_g C(f_g + n_g, n_g); a
factor is 1 where n_g = 0, so each n is kept sparse, its (g, n_g > 0), and
pays one binomial per gap it fills. Q^delta is the t^delta coefficient of
the log of the counts N^0, ..., N^delta. A call gathers the windows its
sweeps read (_windows), enumerates the templates of each cogenus once and
walks them into P sums per placement and window (_window_sums): the loads,
ends and symmetry of a template are read off its edges, and only one that
fits a window is placed, each edge prefix once. A sweep (_sweep) reads the
sums, and the call drops the templates and the sums on return.
"""
from __future__ import annotations

from itertools import accumulate
from math import comb, factorial, prod
from operator import eq, itemgetter, sub

from .qseries import QSeries
from .rationals import check_int
from .ylaurent import ring_at

__all__ = [
    "s_beta",
    "enumerate_graphs",
    "enumerate_templates",
    "refined_count",
    "refined_counts",
    "refined_counts_by_prefix",
    "refined_counts_at",
    "q_log_count",
]


def s_beta(c: int, m: int, d: int) -> tuple:
    """The tangency sequence s(c,m,d) = (c, c+m, ..., c+md); c, m, d ints >= 0."""
    for name, value in (("degree d", d), ("c", c), ("m", m)):
        check_int(name, value)
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, not {value}")
    return tuple(c + m * i for i in range(d + 1))


# -- enumeration -------------------------------------------------------------


def _edge_types(delta: int, maxv_bound: int):
    """All edge types (i, j, w) of cogenus excess (j-i)w-1 between 1 and
    delta, ordered by i, then j, then w."""
    return [(i, j, w) for i in range(maxv_bound) for j in range(i + 1, maxv_bound + 1)
            for w in range(1 + (j == i + 1), (delta + 1) // (j - i) + 1)]


def enumerate_graphs(delta: int, maxv_bound: int, templates: bool = False) -> list:
    """All long edge graphs of cogenus exactly delta with maxv <= maxv_bound,
    each the sorted tuple of its (i, j, w) edges; templates keeps only the
    templates among them. A delta or maxv_bound that is negative or no int
    raises ValueError."""
    check_int("delta", delta)
    if delta < 0:
        raise ValueError("cogenus must be nonnegative")
    check_int("maxv_bound", maxv_bound)
    if maxv_bound < 0:
        raise ValueError(f"maxv_bound = {maxv_bound} is negative")
    if templates and not delta:
        return []  # the empty graph is no template
    types = _edge_types(delta, maxv_bound)
    excess = [(j - i) * w - 1 for i, j, w in types]
    chosen = []

    def rec(start: int, remaining: int, reach: int):
        # a template's first edge starts before vertex 1, and each later one
        # before the farthest end so far, else that end is an interior
        # vertex no edge spans; the types come sorted by (i, j, w), so the
        # first type at or past reach ends the loop, and the edges, picked
        # at nondecreasing type index, come out sorted
        if remaining == 0:
            yield tuple(chosen)
            return
        for t in range(start, len(types)):
            i, j, _ = types[t]
            if i >= reach:
                return
            if excess[t] <= remaining:
                chosen.append(types[t])
                yield from rec(t, remaining - excess[t], max(reach, j))
                chosen.pop()

    # no type starts at maxv_bound, so a walk of all graphs never stops
    return list(rec(0, delta, 1 if templates else maxv_bound))


def enumerate_templates(delta: int) -> list:
    """All templates of cogenus delta (minv = 0, interior vertices spanned),
    a new list on each call."""
    # a template of cogenus delta has length at most delta + 1
    return enumerate_graphs(delta, delta + 1, templates=True)


# -- ordering counts ----------------------------------------------------------


def _place(fills: dict, edge) -> dict:
    """{n: count} after one more edge, placed as if distinguishable: one put
    into a gap that holds f edges has f + 1 places there, so the placements
    that reach the same fill merge. A fill reaches the farthest end placed."""
    i, j, _ = edge
    pad = (0,) * (j - len(next(iter(fills))))
    placed: dict = {}
    for fill, c in fills.items():
        f = list(fill + pad)
        for g in range(i, j):
            f[g] += 1
            n = tuple(f)
            placed[n] = placed.get(n, 0) + c * f[g]
            f[g] -= 1
    return placed


def _template_sum(fills: list, last, free) -> int:
    """P of a template under its free fills f, times the factorials of the
    multiplicities of its identical edges, from the sparse fills (count, n
    over the last edge's span plus its length, the (g, n_g) of n_g > 0) of
    its edges but the last, one binomial per gap filled. The last edge goes
    into a gap g of its span holding n_g edges in n_g + 1 ways, and (n_g + 1)
    C(f_g + n_g + 1, n_g + 1) = (f_g + n_g + 1) C(f_g + n_g, n_g)."""
    i, j, _ = last
    span, total = sum(free[i:j]), 0
    for c, in_span, gaps in fills:
        for g, ng in gaps:
            c *= comb(free[g] + ng, ng)
        total += c * (span + in_span)
    return total


def _windows(sweeps) -> dict:
    """{length: {(eps0, eps1): windows}}: the windows at which the sweeps of
    each (beta, delta) read the templates of each length (at most delta + 1),
    eps0 (asked at p = 0) and eps1 (asked at the last vertex)."""
    windows: dict = {}
    for beta, delta in sweeps:
        n = len(beta)
        for ell in range(1, min(n, delta + 1) + 1):
            for e0, e1 in ((0, 0), (0, 1), (1, 0), (1, 1)):
                windows.setdefault(ell, {}).setdefault((e0, e1), set()).update(
                    beta[p:p + ell] for p in range(1 - e0, n - ell + e1))
    return windows


def _window_sums(windows: dict, delta: int) -> list:
    """sums[kappa][length, weights][eps0, eps1][window], the placement
    tables of a call: the P sum of the templates of cogenus kappa <= delta
    with that placement at each window of their length, eps0 and eps1.
    The templates of each cogenus are enumerated once, walked once and
    dropped before the next cogenus. A template's length, loads, eps0 (no
    edge of weight > 1 at vertex 0), eps1 (none ending at the length),
    weights and symmetry factor are read off its edges; one that fits no
    window gets its entries, all 0, and no placement. Templates sharing an
    edge prefix come one after another, and none is a prefix of another,
    so each that fits resumes at the longest prefix it shares with the
    last one placed: stack[t] holds the undivided fills of its first t
    edges and their sparse form; _template_sum places the last edge."""
    sums = [{} for _ in range(delta + 1)]
    for kappa in range(1, delta + 1):
        placed, stack = (), [({(): 1}, [((), 1, ())])]
        for T in enumerate_templates(kappa):
            ell = max(map(itemgetter(1), T))
            if ell not in windows:
                continue
            steps, light = [0] * (ell + 1), [1] * (ell + 1)
            for i, j, w in T:  # loads by their steps; light where no heavy edge ends
                steps[i] += w
                steps[j] -= w
                if w > 1:
                    light[i] = light[j] = 0
            loads, eps = [*accumulate(steps)], (light[0], light[ell])
            classes = sums[kappa].setdefault((ell, tuple(sorted(map(itemgetter(2), T)))), {})
            at = windows[ell][eps]
            by_window = classes.get(eps) or classes.setdefault(eps, dict.fromkeys(at, 0))
            fits = [(win, free) for win in at if min(free := tuple(map(sub, win, loads))) >= 0]
            if not fits:
                continue
            k = [*map(eq, placed, T), False].index(False)  # the prefix shared
            del stack[k + 1:]
            for e in T[k:-1]:
                fills = _place(stack[-1][0], e)
                stack.append((fills, [(n, c, [(g, ng) for g, ng in enumerate(n) if ng])
                                      for n, c in fills.items()]))
            placed, (i, j, _) = T, T[-1]
            sym = 1 if len(set(T)) == len(T) else prod(factorial(T.count(e)) for e in set(T))
            fills = [(c, sum(n[i:j]) + j - i, gaps) for n, c, gaps in stack[-1][1]]
            for window, free in fits:
                by_window[window] += _template_sum(fills, T[-1], free) // sym
    return sums


# -- counts ------------------------------------------------------------------


def _refuse_bad_beta(beta) -> None:
    for i, b in enumerate(beta):
        check_int(f"beta[{i}]", b)
        if b < 0:
            raise ValueError(f"beta[{i}] = {b} is negative; tangencies are >= 0")


def refined_counts_by_prefix(beta, delta: int, y="sym") -> list:
    """out[q] = [N^0, ..., N^delta] of the prefix beta[:q] at y, for q = 0,
    ..., len(beta): the Laurent polynomials (y='sym'), the Severi counts
    n^delta (y=1) or the Welschinger counts W^delta (y=-1), from one
    _sweep over the P sums of beta's own windows. A beta entry or delta
    that is negative or no integer raises ValueError."""
    ring = ring_at(y)
    check_int("delta", delta)
    if delta < 0:
        raise ValueError("cogenus must be nonnegative")
    _refuse_bad_beta(beta)
    beta = tuple(beta)
    return _sweep(beta, delta, _window_sums(_windows([(beta, delta)]), delta), ring)


def _sweep(beta: tuple, delta: int, sums: list, ring) -> list:
    """refined_counts_by_prefix of beta in ring, with the P sums read from
    sums, _window_sums of windows that hold every window of beta.

    N^delta_beta sums multiplicity times P^s_beta over the cogenus-delta
    graphs with maxv <= M + 1. Cut at the vertices no edge spans strictly,
    such a graph is one arrangement of shifted templates in [0, M + 1], and
    its cogenus, multiplicity and P are sums or products over them: P of a
    template shifted to p is its P under beta[p:p + length], and P^s asks
    eps0 of a template at p = 0 and eps1 of one ending at M + 1. So the
    counts are a transfer sum over p of g[p][k], the total over the
    arrangements inside [0, p] of cogenus k: an empty gap steps to p + 1,
    and the templates of cogenus kappa and length l step to p + l, weighted
    by the sum of their P (integers) times their multiplicity, one ring
    product per weight tuple. A window of beta[:q] is a window of beta, so
    one sweep serves every prefix: the counts of beta[:q] are the end row
    of q, the arrangements whose last piece is an empty gap or a template
    with eps1, and g[q] adds to it those ending in any other template; at
    the last vertex only the end row is needed.
    """
    n = len(beta)  # the last vertex, M + 1
    # a multiplicity of 0 (an even weight at y = -1) drops its templates
    placements = [(ell, kappa, mu, classes)
                  for kappa in range(1, delta + 1)
                  for (ell, weights), classes in sums[kappa].items()
                  if ell <= n and (mu := ring.multiplicity(weights))]
    # end[q][k], rest[q][k]: the (g, P sum, multiplicity) triples that sum
    # to the end row of q and to g[q][k] less it
    end = [[[] for _ in range(delta + 1)] for _ in range(n + 1)]
    rest = [[[] for _ in range(delta + 1)] for _ in range(n + 1)]
    end[0][0].append((ring.one, 1, ring.one))
    out = []
    for p in range(n + 1):
        out.append([ring.sum_products(triples) for triples in end[p]])
        if p == n:
            return out
        g = [e + ring.sum_products(r) if r else e for e, r in zip(out[p], rest[p])]
        for k in range(delta + 1):
            if g[k]:
                end[p + 1][k].append((g[k], 1, ring.one))
        for ell, kappa, mu, classes in placements:
            q = p + ell
            if q > n:
                continue
            window = beta[p:q]
            p_sums = [0, 0]  # the templates without and with eps1
            for (e0, e1), by_window in classes.items():
                if (e0 or p) and (e1 or q < n):
                    p_sums[e1] += by_window[window]
            for row, s in zip((rest[q], end[q]), p_sums):
                if s:
                    for k in range(delta + 1 - kappa):
                        if g[k]:
                            row[k + kappa].append((g[k], s, mu))


def refined_counts_at(points, delta=None) -> dict:
    """{(c, m, d): [N^0, ..., N^delta] of s(c, m, d)} at 'sym', for points a
    {(c, m, d): delta} map or points that all take one delta. Each (c, m) is
    swept once, at its largest d and delta: s(c, m, d) is a prefix of its
    beta, and N^k reads no template of cogenus above k, so a point's row is
    the head of its sweep's. The sweeps share one _window_sums of all their
    windows, which the call drops when it returns. A d or delta that is no
    int or negative, or points not in a map and no delta, raises ValueError."""
    if delta is not None:
        points = dict.fromkeys(points, delta)
    elif not isinstance(points, dict):
        raise ValueError("points not given as a {(c, m, d): delta} map need a delta")
    for (_, _, d), dl in points.items():
        check_int("degree d", d)
        check_int("delta", dl)
    if any(dl < 0 for dl in points.values()):
        raise ValueError("cogenus must be nonnegative")
    if any(d < 0 for _, _, d in points):
        raise ValueError("degree d must be nonnegative")
    top: dict = {}  # (c, m) -> the largest d and delta asked
    for (c, m, d), dl in points.items():
        top[c, m] = tuple(map(max, top.get((c, m), (d, dl)), (d, dl)))
    sweeps = {(c, m): (s_beta(c, m, d), dl) for (c, m), (d, dl) in top.items()}
    sums = _window_sums(_windows(sweeps.values()), max(points.values(), default=0))
    rows = {cm: _sweep(beta, dl, sums, ring_at("sym")) for cm, (beta, dl) in sweeps.items()}
    return {(c, m, d): rows[c, m][d + 1][:dl + 1] for (c, m, d), dl in points.items()}


def refined_counts(beta, delta: int, y="sym") -> list:
    """[N^0_beta, ..., N^delta_beta] at y ('sym', 1 or -1): the last entry
    of refined_counts_by_prefix(beta, delta, y)."""
    return refined_counts_by_prefix(beta, delta, y)[-1]


def refined_count(beta, delta: int, y="sym"):
    """N^delta_beta at y ('sym', 1 or -1): the last entry of
    refined_counts(beta, delta, y)."""
    return refined_counts(beta, delta, y)[delta]


def q_log_count(beta, delta: int):
    """Q^delta_beta: the t^delta coefficient of log sum_delta N^delta t^delta,
    the log of refined_counts(beta, delta). A negative beta entry raises
    ValueError."""
    if delta < 1:
        raise ValueError("the log transform starts at cogenus 1")
    return QSeries(refined_counts(beta, delta), trunc=delta + 1).log().coeff_at(delta)
