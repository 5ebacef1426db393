"""Long-edge-graph combinatorics.

A long edge graph lives on the vertex set Z_{>=0}; edges (i -> j, w) carry
i < j and weight w >= 1, and weight-1 edges of length 1 are forbidden. The
cogenus is sum((j-i)w - 1) over edges, so a cogenus-delta graph has at most
delta edges, all short-ranged. Cut at the vertices no edge spans strictly,
a graph is a unique arrangement of shifted templates, and its cogenus,
multiplicity and P^s_beta are sums or products over them.

This module provides the graph-side engine: enumeration by cogenus,
multiplicities, beta-extended ordering counts P_beta / P^s_beta, the counts
N^delta_beta by template composition (refined_counts_by_prefix, one
transfer sum over template placements for every prefix of beta), their
log Q^delta_beta (q_log_count), the log-transform Phi of one graph, and the
linear fit of Phi in beta.

P is a polynomial in the free fills f = beta - lambda: a dynamic
programme over the edge classes on {per-gap fill vector: count}, run once
per graph from an empty fill (_fill_weights), gives weights W(n) with n_g
of the graph's edges in gap g, and P = sum_n W(n) prod_g C(f_g + n_g, n_g)
(_fill_sum). Phi is computed in integers, by the Euler operator recursion
on log P (see _log_numerator) over the P of each sub-multiset of the edge
classes; Phi^s is Phi or 0 (see phi). Q^delta is the t^delta coefficient
of the log of the counts N^0, ..., N^delta, taken by q_log_of_counts; the
template sum of Phi^s that it equals is kept as a test oracle. Beside the
index tables of _compositions and _euler_terms, the memos that outlive a
call are the template list of each cogenus and, beside it, its placement
table (_placement_tables): the templates' weights summed per placement and
load vector, which every refined_counts_by_prefix sweep reads, so a sweep
makes no P call and one sweep serves every prefix of its beta.
"""
from __future__ import annotations

import functools
import itertools
import operator
from math import comb, prod

from .linalg import solve_exact
from .qseries import QSeries
from .rationals import QQ
from .ylaurent import ring_at

__all__ = [
    "LongEdgeGraph",
    "s_beta",
    "enumerate_graphs",
    "enumerate_templates",
    "count_orderings",
    "phi",
    "refined_count",
    "refined_counts",
    "refined_counts_by_prefix",
    "q_log_count",
    "q_log_of_counts",
    "fit_phi_linear",
    "eval_phi_linear",
]


def s_beta(c: int, m: int, d: int) -> tuple:
    """The tangency sequence s(c,m,d) = (c, c+m, ..., c+md)."""
    return tuple(c + m * i for i in range(d + 1))


class LongEdgeGraph:
    """Immutable weighted edge multiset; edges are (i, j, w) with i < j."""

    __slots__ = ("edges", "_loads", "_placement")

    def __init__(self, edges):
        es = []
        for i, j, w in edges:
            if not (0 <= i < j) or w < 1:
                raise ValueError(f"bad edge ({i},{j},{w})")
            if j == i + 1 and w == 1:
                raise ValueError("short edges (length 1, weight 1) are forbidden")
            es.append((int(i), int(j), int(w)))
        self.edges = tuple(sorted(es))
        self._loads = self._placement = None

    def __eq__(self, other):
        return isinstance(other, LongEdgeGraph) and self.edges == other.edges

    def __hash__(self):
        return hash(self.edges)

    def __repr__(self):
        return f"LEG{list(self.edges)}"

    def is_empty(self) -> bool:
        return not self.edges

    def cogenus(self) -> int:
        return sum((j - i) * w - 1 for i, j, w in self.edges)

    def minv(self) -> int:
        return self.edges[0][0]  # the edges are sorted by their start

    def maxv(self) -> int:
        return max(j for _, j, _ in self.edges)

    def length(self) -> int:
        return self.maxv() - self.minv() if self.edges else 0

    def shift(self, k: int) -> "LongEdgeGraph":
        return LongEdgeGraph([(i + k, j + k, w) for i, j, w in self.edges])

    def loads(self) -> tuple:
        """The gap loads (lambda_1, ..., lambda_maxv); computed once."""
        if self._loads is None:
            lam = [0] * (self.maxv() if self.edges else 0)
            for i, k, w in self.edges:
                for g in range(i, k):
                    lam[g] += w
            self._loads = tuple(lam)
        return self._loads

    def lambda_j(self, j: int) -> int:
        """Total weight of edges (i -> k) spanning the gap i < j <= k."""
        lam = self.loads()
        return lam[j - 1] if 0 < j <= len(lam) else 0

    def lambda_bar_j(self, j: int) -> int:
        return self.lambda_j(j) - sum(
            1 for i, k, _ in self.edges if i == j - 1 and k == j
        )

    def _light_at(self, *vs: int) -> bool:
        """Every edge at any of the vertices vs has weight 1."""
        return all(w == 1 for i, j, w in self.edges if i in vs or j in vs)

    def eps0(self) -> int:
        return int(self._light_at(self.minv()))

    def eps1(self) -> int:
        return int(self._light_at(self.maxv()))

    def placement(self) -> tuple:
        """(length, eps0, eps1, the sorted edge weights): what a sum over
        shifts of the graph as a template reads of it; computed once."""
        if self._placement is None:
            self._placement = (self.length(), self.eps0(), self.eps1(),
                               tuple(sorted(w for _, _, w in self.edges)))
        return self._placement

    def is_template(self) -> bool:
        """minv = 0 and every interior vertex is strictly spanned by an edge."""
        if self.is_empty() or self.minv() != 0:
            return False
        return all(
            any(i < v < j for i, j, _ in self.edges)
            for v in range(1, self.length())
        )

    def multiplicity(self, y="sym"):
        """prod [w]_y^2 over the edges: refined (y='sym'), Severi (y=1) or
        Welschinger (y=-1) multiplicity."""
        return ring_at(y).multiplicity(w for _, _, w in self.edges)

    # -- allowability ------------------------------------------------------

    def beta_allowable(self, beta) -> bool:
        # maxv <= M + 1 and beta_j >= lambda_j on every gap j = 1, ..., M + 1
        lam = self.loads()
        return len(lam) <= len(beta) and all(
            b >= l for b, l in itertools.zip_longest(beta, lam, fillvalue=0))

    def beta_semiallowable(self, beta) -> bool:
        M = len(beta) - 1
        if self.edges and self.maxv() > M + 1:
            return False
        return all(beta[j - 1] >= self.lambda_bar_j(j) for j in range(1, M + 2))

    def strictly_beta_allowable(self, beta) -> bool:
        return self.beta_allowable(beta) and not self._heavy_end(len(beta))

    def _heavy_end(self, n: int) -> bool:
        """An edge of weight > 1 at vertex 0 or at vertex n = M + 1: what
        strict allowability under a beta of length n adds. An edge starting
        at n counts too; both callers rule it out first by maxv <= n."""
        return not self._light_at(0, n)


# -- enumeration -------------------------------------------------------------


def _edge_types(delta: int, maxv_bound: int):
    """All edge types (i, j, w) of cogenus excess (j-i)w-1 between 1 and
    delta, ordered by i, then j, then w."""
    return [(i, j, w) for i in range(maxv_bound) for j in range(i + 1, maxv_bound + 1)
            for w in range(1 + (j == i + 1), (delta + 1) // (j - i) + 1)]


def enumerate_graphs(delta: int, maxv_bound: int, templates: bool = False) -> list:
    """All long edge graphs of cogenus exactly delta with maxv <= maxv_bound;
    templates keeps only the templates among them."""
    if delta < 0:
        raise ValueError("cogenus must be nonnegative")
    if templates and not delta:
        return []  # the empty graph is no template
    types = _edge_types(delta, maxv_bound)
    excess = [(j - i) * w - 1 for i, j, w in types]
    chosen = []

    def rec(start: int, remaining: int, reach: int):
        # a template's first edge starts before vertex 1, and each later one
        # before the farthest end so far, else that end is an interior
        # vertex no edge spans; the types come sorted by start, so the first
        # type at or past reach ends the loop
        if remaining == 0:
            yield LongEdgeGraph(chosen)
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


@functools.cache
def enumerate_templates(delta: int) -> list:
    """All templates of cogenus delta (minv = 0, interior vertices spanned)."""
    # a template of cogenus delta has length at most delta + 1
    return enumerate_graphs(delta, delta + 1, templates=True)


# -- ordering counts ----------------------------------------------------------


def _edge_classes(G: LongEdgeGraph):
    """Group identical edges: list of ((i, j, w), multiplicity)."""
    return [(e, len(list(grp))) for e, grp in itertools.groupby(G.edges)]


@functools.cache
def _compositions(n: int, parts: int) -> tuple:
    """The ways to write n as an ordered sum of parts terms >= 0."""
    if parts == 1:
        return ((n,),)
    return tuple((t,) + rest for t in range(n + 1)
                 for rest in _compositions(n - t, parts - 1))


def _fill_weights(G: LongEdgeGraph) -> dict:
    """{n: W_G(n)}: the orderings of G's edges alone, with n[g] of them in
    gap g + 1, by the fill-vector programme from an empty fill.

    Placing t copies of a class into a gap that holds f edges multiplies
    by C(f + t, t), which depends on the placement only through the fill
    f; so this is a dynamic programme over the edge classes on {per-gap
    fill vector: count}, merging the placements that reach the same fill.
    """
    fills = {(0,) * len(G.loads()): 1}
    for (i, j, _), mult in _edge_classes(G):
        placed: dict = {}
        for fill, n in fills.items():
            for ts in _compositions(mult, j - i):
                f, c = list(fill), n
                for g, t in enumerate(ts, i):
                    if t:
                        c *= comb(f[g] + t, t)
                        f[g] += t
                f = tuple(f)
                placed[f] = placed.get(f, 0) + c
        fills = placed
    return fills


def _fill_sum(weights: dict, free) -> int:
    """sum_n W(n) prod_g C(free[g] + n[g], n[g]): P from the fill weights
    of a graph and its free fills beta_g - lambda_g."""
    return sum(w * prod(map(comb, map(operator.add, free, n), n))
               for n, w in weights.items())


def count_orderings(G: LongEdgeGraph, beta, strict: bool = False) -> int:
    """The number P_beta(G) (or P^s_beta) of beta-extended orderings of G,
    up to permutation of identical edges.

    Each edge of ext_beta(G) occupies one gap j between vertices j-1 and j
    of its span; orderings of a gap's edges count once per multiset
    permutation. The f_j = beta[j-1] - lambda_j(G) added short edges sit in
    gap j as one indistinguishable class. Placed after G's own edges, they
    interleave with the n_j of those in gap j in C(f_j + n_j, n_j) ways, so
    P is a polynomial in the free fills f: the sum over n of the fill
    weights W_G(n) of _fill_weights times prod_j C(f_j + n_j, n_j).
    """
    if not (G.strictly_beta_allowable(beta) if strict else G.beta_allowable(beta)):
        return 0
    # beta is at least as long as the loads, so map stops at the last gap
    return _fill_sum(_fill_weights(G), tuple(map(operator.sub, beta, G.loads())))


@functools.cache
def _placement_tables(kappa: int) -> dict:
    """(length, weights) -> {(eps0, eps1): {loads: {n: W}}}: the fill
    weights of the templates of cogenus kappa, summed per placement and
    load vector, for _table_sum."""
    tables: dict = {}
    for T in enumerate_templates(kappa):
        ell, e0, e1, weights = T.placement()
        summed = (tables.setdefault((ell, weights), {}).setdefault((e0, e1), {})
                  .setdefault(T.loads(), {}))
        for n, w in _fill_weights(T).items():
            summed[n] = summed.get(n, 0) + w
    return tables


def _table_sum(by_loads: dict, window) -> int:
    """The P sum under window of the templates of one _placement_tables
    entry {loads: {n: W}}: a load vector above the window in any entry
    leaves its templates not beta-allowable, and adds 0."""
    return sum(_fill_sum(weights, tuple(map(operator.sub, window, loads)))
               for loads, weights in by_loads.items()
               if all(map(operator.ge, window, loads)))


# -- the log transform Phi ---------------------------------------------------


def _refuse_negative(beta) -> None:
    for i, b in enumerate(beta):
        if b < 0:
            raise ValueError(f"beta[{i}] = {b} is negative; tangencies are >= 0")


@functools.cache
def _euler_terms(m: tuple) -> tuple:
    """For each nonzero j <= m in itertools.product order: (|j|, the
    indices of the k with 0 < k < j, the indices of the matching j - k)."""
    strides = [prod(x + 1 for x in m[c + 1:]) for c in range(len(m))]
    terms = []
    for j in itertools.islice(itertools.product(*[range(x + 1) for x in m]), 1, None):
        # the box k <= j, listed by index, is the box of j - k listed backwards
        box = list(map(sum, itertools.product(
            *[range(0, (x + 1) * s, s) for x, s in zip(j, strides)])))
        terms.append((sum(j), tuple(box[1:-1]), tuple(box[-2:0:-1])))
    return tuple(terms)


def _log_numerator(terms: tuple, F: list) -> int:
    """A_m, from the Euler terms of m and F = [1] + the P of each nonzero
    sub-multiset j <= m in itertools.product order.

    The Euler operator on log F gives |j| F_j = sum_{0<k<=j} A_k F_{j-k},
    with A_k = |k| [x^k] log F; every A_j is an integer."""
    A = [0]
    for (size, ks, rs), f in zip(terms, itertools.islice(F, 1, None)):
        A.append(size * f - sum(map(operator.mul, map(A.__getitem__, ks),
                                    map(F.__getitem__, rs))))
    return A[-1]


def phi(G: LongEdgeGraph, beta, strict: bool = False):
    """Phi_beta(G) (or Phi^s): the formal logarithm of P under ordered
    decompositions of the edge multiset; an exact rational. A negative
    beta entry raises ValueError.

    With F_j the P of the sub-multiset of class multiplicities j <= m,
    Phi = A_m / |m| by the integer recursion of _log_numerator. F_j = 0
    whenever j takes a class past vertex len(beta); then log F does not
    depend on that class, and Phi = 0. P^s of a sub-multiset is its P, or
    0 when it has an edge of weight > 1 at vertex 0 or len(beta); such an
    edge is a class of G, so by the same argument Phi^s is Phi, or 0 when
    G has such an edge.
    """
    _refuse_negative(beta)
    if G.is_empty() or G.maxv() > len(beta) or strict and G._heavy_end(len(beta)):
        return QQ(0)
    edges, m = zip(*_edge_classes(G))
    F = [1] + [count_orderings(LongEdgeGraph(_sub_multiset(edges, j)), beta)
               for j in itertools.islice(
                   itertools.product(*[range(x + 1) for x in m]), 1, None)]
    return QQ(_log_numerator(_euler_terms(m), F), sum(m))


def _sub_multiset(edges, j) -> list:
    """The sorted edge list taking j[c] copies of the class edge edges[c]."""
    return [e for e, c in zip(edges, j) for _ in range(c)]


# -- counts ------------------------------------------------------------------


def refined_counts_by_prefix(beta, delta: int, y="sym") -> list:
    """out[q] = [N^0, ..., N^delta] of the prefix beta[:q] at y, for q = 0,
    ..., len(beta): the Laurent polynomials (y='sym'), the Severi counts
    n^delta (y=1) or the Welschinger counts W^delta (y=-1). A negative beta
    entry raises ValueError.

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
    product per weight tuple. That P sum is read off the placement table of
    kappa, one _fill_sum per load vector at most the window. A window of
    beta[:q] is a window of beta, so one sweep serves every prefix: the
    counts of beta[:q] are the end row of q, the arrangements whose last
    piece is an empty gap or a template with eps1, and g[q] adds to it
    those ending in any other template; at the last vertex only the end
    row is needed.
    """
    ring = ring_at(y)
    if delta < 0:
        raise ValueError("cogenus must be nonnegative")
    _refuse_negative(beta)
    beta = tuple(beta)
    n = len(beta)  # the last vertex, M + 1
    # a multiplicity of 0 (an even weight at y = -1) drops its templates
    placements = [(ell, kappa, mu, tuple(classes.items()))
                  for kappa in range(1, delta + 1)
                  for (ell, weights), classes in _placement_tables(kappa).items()
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
            sums = [0, 0]  # the P sums of the templates without and with eps1
            for (e0, e1), by_loads in classes:
                if (e0 or p) and (e1 or q < n):
                    sums[e1] += _table_sum(by_loads, window)
            for row, s in zip((rest[q], end[q]), sums):
                if s:
                    for k in range(delta + 1 - kappa):
                        if g[k]:
                            row[k + kappa].append((g[k], s, mu))


def refined_counts(beta, delta: int, y="sym") -> list:
    """[N^0_beta, ..., N^delta_beta] at y ('sym', 1 or -1): the last entry
    of refined_counts_by_prefix(beta, delta, y)."""
    return refined_counts_by_prefix(beta, delta, y)[-1]


def refined_count(beta, delta: int, y="sym"):
    """N^delta_beta at y ('sym', 1 or -1): the last entry of
    refined_counts(beta, delta, y)."""
    return refined_counts(beta, delta, y)[delta]


def q_log_of_counts(counts: list):
    """The t^delta coefficient of log sum_k counts[k] t^k, delta =
    len(counts) - 1: Q^delta from the counts [N^0, ..., N^delta]."""
    return QSeries(counts, trunc=len(counts)).log().coeff_at(len(counts) - 1)


def q_log_count(beta, delta: int):
    """Q^delta_beta: the t^delta coefficient of log sum_delta N^delta t^delta,
    the log of refined_counts(beta, delta). A negative beta entry raises
    ValueError."""
    if delta < 1:
        raise ValueError("the log transform starts at cogenus 1")
    return q_log_of_counts(refined_counts(beta, delta))


def fit_phi_linear(T: LongEdgeGraph, probes):
    """Fit Phi_beta(T) as an affine-linear form in the window entries
    beta_i, minv(T) <= i <= maxv(T) (capped at the last beta index), from
    probe beta sequences on which T is beta-semiallowable.

    Returns (const, {i: coeff}). Raises when the probes are rank-deficient.
    """
    if T.is_empty():
        return QQ(0), {}
    lo, hi = T.minv(), T.maxv()
    for beta in probes:
        if not T.beta_semiallowable(beta):
            raise ValueError("probe beta must make the graph semiallowable")
    idxs = [i for i in range(lo, hi + 1) if i < len(probes[0])]
    A = [[QQ(1)] + [QQ(b[i]) for i in idxs] for b in probes]
    rhs = [phi(T, b) for b in probes]
    sol = solve_exact(A, rhs)
    return sol[0], {i: c for i, c in zip(idxs, sol[1:])}


def eval_phi_linear(form, beta):
    const, coeffs = form
    return const + sum(c * beta[i] for i, c in coeffs.items())
