"""Long-edge-graph combinatorics.

A long edge graph lives on the vertex set Z_{>=0}; edges (i -> j, w) carry
i < j and weight w >= 1, and weight-1 edges of length 1 are forbidden. The
cogenus is sum((j-i)w - 1) over edges, so a cogenus-delta graph has at most
delta edges, all short-ranged -- which is what makes the per-cogenus sums
over all graphs finite and fast.

This module provides the graph-side engine: enumeration by cogenus,
multiplicities, beta-extended ordering counts P_beta / P^s_beta, the
log-transform Phi, template sums for the log of the generating series, and
the linear fit of Phi in beta. Phi is computed in integers, by the Euler
operator recursion on log P (see phi). Within one q_log_count, the P of
every sub-multiset of every shifted template is read from one memo, keyed
by its edges shifted to minv 0 and its beta window.
"""
from __future__ import annotations

import functools
import itertools
import operator
from math import comb, factorial, prod

from .linalg import solve_exact
from .rationals import QQ
from .ylaurent import YL_ZERO, ring_at

__all__ = [
    "LongEdgeGraph",
    "s_beta",
    "enumerate_graphs",
    "enumerate_templates",
    "count_orderings",
    "count_orderings_bruteforce",
    "phi",
    "phi_bruteforce",
    "refined_count",
    "q_log_count",
    "fit_phi_linear",
    "eval_phi_linear",
]


def s_beta(c: int, m: int, d: int) -> tuple:
    """The tangency sequence s(c,m,d) = (c, c+m, ..., c+md)."""
    return tuple(c + m * i for i in range(d + 1))


class LongEdgeGraph:
    """Immutable weighted edge multiset; edges are (i, j, w) with i < j."""

    __slots__ = ("edges", "_loads")

    def __init__(self, edges):
        es = []
        for i, j, w in edges:
            if not (0 <= i < j) or w < 1:
                raise ValueError(f"bad edge ({i},{j},{w})")
            if j == i + 1 and w == 1:
                raise ValueError("short edges (length 1, weight 1) are forbidden")
            es.append((int(i), int(j), int(w)))
        self.edges = tuple(sorted(es))
        self._loads = None

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
        return min(i for i, _, _ in self.edges)

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

    def eps0(self) -> int:
        v = self.minv()
        return 1 if all(w == 1 for i, j, w in self.edges if i == v or j == v) else 0

    def eps1(self) -> int:
        v = self.maxv()
        return 1 if all(w == 1 for i, j, w in self.edges if i == v or j == v) else 0

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
        if not self.beta_allowable(beta):
            return False
        if self.is_empty():
            return True
        M = len(beta) - 1
        for i, j, w in self.edges:
            if (i == 0 or j == M + 1) and w != 1:
                return False
        return True


# -- enumeration -------------------------------------------------------------


def _edge_types(delta: int, maxv_bound: int):
    """All edge types (i, j, w) of cogenus excess (j-i)w-1 between 1 and
    delta, ordered by i, then j, then w."""
    return [(i, j, w) for i in range(maxv_bound) for j in range(i + 1, maxv_bound + 1)
            for w in range(1 + (j == i + 1), (delta + 1) // (j - i) + 1)]


def _iter_graphs(delta: int, maxv_bound: int, from_zero: bool = False):
    """Yield the cogenus-delta graphs with maxv <= maxv_bound; from_zero
    stops once the first edge would start after vertex 0."""
    if delta < 0:
        raise ValueError("cogenus must be nonnegative")
    types = _edge_types(delta, maxv_bound)
    excess = [(j - i) * w - 1 for i, j, w in types]
    chosen = []

    def rec(start: int, remaining: int):
        if remaining == 0:
            yield LongEdgeGraph(chosen)
            return
        for t in range(start, len(types)):
            if from_zero and not chosen and types[t][0]:
                return
            if excess[t] <= remaining:
                chosen.append(types[t])
                yield from rec(t, remaining - excess[t])
                chosen.pop()

    return rec(0, delta)


def enumerate_graphs(delta: int, maxv_bound: int) -> list:
    """All long edge graphs of cogenus exactly delta with maxv <= maxv_bound."""
    return list(_iter_graphs(delta, maxv_bound))


@functools.cache
def enumerate_templates(delta: int) -> list:
    """All templates of cogenus delta (minv = 0, interior vertices spanned)."""
    # a template of cogenus delta has length at most delta + 1
    return [G for G in _iter_graphs(delta, delta + 1, from_zero=True)
            if G.is_template()]


# -- ordering counts ----------------------------------------------------------


def _edge_classes(G: LongEdgeGraph):
    """Group identical edges: list of ((i, j, w), multiplicity)."""
    return [(e, len(list(grp))) for e, grp in itertools.groupby(G.edges)]


def count_orderings(G: LongEdgeGraph, beta, strict: bool = False) -> int:
    """The number P_beta(G) (or P^s_beta) of beta-extended orderings of G,
    up to permutation of identical edges.

    Each edge of ext_beta(G) occupies one gap j between vertices j-1 and j
    of its span; orderings of a gap's edges count once per multiset
    permutation. The beta[j-1] - lambda_j(G) added short edges sit in gap j
    as one indistinguishable class.
    """
    if strict:
        if not G.strictly_beta_allowable(beta):
            return 0
    elif not G.beta_allowable(beta):
        return 0
    if G.is_empty():
        return 1
    classes = _edge_classes(G)
    gap_counts = {j: b - l for j, (b, l)
                  in enumerate(itertools.zip_longest(beta, G.loads(), fillvalue=0), 1)}
    total = 0

    def rec(ci: int, acc: int):
        nonlocal total
        if ci == len(classes):
            total += acc
            return
        (i, j, w), mult = classes[ci]
        gaps = list(range(i + 1, j + 1))

        def distribute(gi: int, left: int, acc2: int):
            if gi == len(gaps) - 1:
                g = gaps[gi]
                f = comb(gap_counts[g] + left, left)
                gap_counts[g] += left
                rec(ci + 1, acc2 * f)
                gap_counts[g] -= left
                return
            g = gaps[gi]
            for take in range(left + 1):
                f = comb(gap_counts[g] + take, take)
                gap_counts[g] += take
                distribute(gi + 1, left - take, acc2 * f)
                gap_counts[g] -= take

        distribute(0, mult, acc)

    rec(0, 1)
    return total


def count_orderings_bruteforce(G: LongEdgeGraph, beta, strict: bool = False) -> int:
    """Oracle: place distinguishable edge instances, count linear orders per
    gap as n!, then divide by the product of identical-class factorials
    (the identical-edge permutation group acts freely on orderings)."""
    if strict:
        if not G.strictly_beta_allowable(beta):
            return 0
    elif not G.beta_allowable(beta):
        return 0
    M = len(beta) - 1
    # (allowed gap range) per distinguishable instance
    items = [range(i + 1, j + 1) for i, j, _ in G.edges]
    sym = 1
    for _, mult in _edge_classes(G):
        sym *= factorial(mult)
    for j in range(1, M + 2):
        s = beta[j - 1] - G.lambda_j(j)
        for _ in range(s):
            items.append(range(j, j + 1))
        sym *= factorial(s)
    total = 0
    for assignment in itertools.product(*items):
        ngap: dict = {}
        for g in assignment:
            ngap[g] = ngap.get(g, 0) + 1
        t = 1
        for n in ngap.values():
            t *= factorial(n)
        total += t
    q, r = divmod(total, sym)
    assert r == 0, "free action of identical-edge permutations violated"
    return q


# -- the log transform Phi ---------------------------------------------------


_PHI_CACHE: dict = {}
# non-strict P by (edges shifted to minv 0, beta window); emptied at the
# start of each q_log_count, so it holds the sub-multisets of one (beta, delta)
_P_MEMO: dict = {}


def _refuse_negative(beta) -> None:
    for i, b in enumerate(beta):
        if b < 0:
            raise ValueError(f"beta[{i}] = {b} is negative; tangencies are >= 0")


def phi(G: LongEdgeGraph, beta, strict: bool = False):
    """Phi_beta(G) (or Phi^s): the formal logarithm of P under ordered
    decompositions of the edge multiset; an exact rational. A negative
    beta entry raises ValueError.

    With F_j the P of the sub-multiset of class multiplicities j <= m, the
    Euler operator on log F gives |j| F_j = sum_{0<k<=j} A_k F_{j-k}, with
    A_k = |k| [x^k] log F. Every A_j is an integer and Phi = A_m / |m|.
    Non-strict P comes from _P_MEMO, shared by every sub-multiset of every
    shifted template in one q_log_count.
    """
    _refuse_negative(beta)
    if G.is_empty():
        return QQ(0)
    if strict:
        return _phi_compute(G, beta, strict=True)
    if G.maxv() > len(beta):
        return QQ(0)
    key = _window_key(G.edges, beta)
    val = _PHI_CACHE.get(key)
    if val is None:
        val = _PHI_CACHE[key] = _phi_compute(G, beta, strict=False)
    return val


def _window_key(edges, beta) -> tuple:
    """(sorted edges shifted to minv 0, beta over [minv, maxv)). With
    beta >= 0 it fixes the P of the edges, and of each sub-multiset."""
    v0 = edges[0][0]
    return (tuple((i - v0, j - v0, w) for i, j, w in edges),
            tuple(beta[v0:max(j for _, j, _ in edges)]))


def _orderings(edges: list, beta, strict: bool) -> int:
    """P of the sorted edge list; non-strict through _P_MEMO."""
    if strict:
        return count_orderings(LongEdgeGraph(edges), beta, strict=True)
    key = _window_key(edges, beta)
    val = _P_MEMO.get(key)
    if val is None:
        # a window shorter than the graph gives 0, as maxv > M + 1 does
        val = _P_MEMO[key] = count_orderings(LongEdgeGraph(key[0]), key[1])
    return val


def _sub_multiset(edges, j) -> list:
    """The sorted edge list taking j[c] copies of the class edge edges[c]."""
    return [e for e, c in zip(edges, j) for _ in range(c)]


def _phi_compute(G: LongEdgeGraph, beta, strict: bool):
    edges, m = zip(*_edge_classes(G))
    strides = [prod(x + 1 for x in m[c + 1:]) for c in range(len(m))]
    F, A = [], []
    # j <= m in itertools.product order sits at its mixed-radix index; the
    # box k <= j, listed by index, is the box of j - k listed backwards
    for j in itertools.product(*[range(x + 1) for x in m]):
        sub = _sub_multiset(edges, j)
        F.append(_orderings(sub, beta, strict) if sub else 1)
        box = list(map(sum, itertools.product(
            *[range(0, (x + 1) * s, s) for x, s in zip(j, strides)])))
        A.append(sum(j) * F[-1] - sum(map(
            operator.mul, [A[k] for k in box[:-1]], [F[k] for k in box[:0:-1]])))
    return QQ(A[-1], sum(m))


def phi_bruteforce(G: LongEdgeGraph, beta, strict: bool = False):
    """Oracle for Phi: literal sum over ordered decompositions of the edge
    multiset into nonempty sub-multisets (only sane for a few edges)."""
    if G.is_empty():
        return QQ(0)
    edges, m = zip(*_edge_classes(G))

    def P_of(j):
        return count_orderings(LongEdgeGraph(_sub_multiset(edges, j)), beta, strict)

    nonzero = [j for j in itertools.product(*[range(x + 1) for x in m])
               if any(j)]
    total = QQ(0)
    nmax = sum(m)

    def rec(remaining, nblocks, prod):
        nonlocal total
        if not any(remaining):
            total += QQ((-1) ** (nblocks + 1), nblocks) * prod
            return
        if nblocks == nmax:
            return
        for j in nonzero:
            if all(a <= b for a, b in zip(j, remaining)):
                p = P_of(j)
                if p:
                    rec(tuple(b - a for a, b in zip(j, remaining)), nblocks + 1, prod * p)

    rec(m, 0, 1)
    return total


# -- counts ------------------------------------------------------------------


@functools.cache
def _graphs(delta: int, maxv_bound: int) -> list:
    return enumerate_graphs(delta, maxv_bound)


def refined_count(beta, delta: int, y="sym"):
    """N^delta_beta at y: the Laurent polynomial (y='sym'), the Severi count
    n^delta_beta (y=1) or the Welschinger count W^delta_beta (y=-1). The sum
    of multiplicity times P^s_beta over all cogenus-delta graphs with
    maxv <= M+1."""
    if delta < 0:
        raise ValueError("cogenus must be nonnegative")
    ring = ring_at(y)
    M = len(beta) - 1
    acc = ring.zero
    for G in _graphs(delta, M + 1):
        P = count_orderings(G, beta, strict=True)
        if P:
            acc = acc + G.multiplicity(y) * P
    return acc


def q_log_count(beta, delta: int):
    """Q^delta_beta: the t^delta coefficient of log sum_delta N^delta t^delta,
    computed by the template sum (shifted-template support of Phi^s)."""
    if delta < 1:
        raise ValueError("the log transform starts at cogenus 1")
    _refuse_negative(beta)
    _P_MEMO.clear()
    M = len(beta) - 1
    acc = YL_ZERO
    for T in enumerate_templates(delta):
        ell = T.length()
        lo = 1 - T.eps0()
        hi = M - ell + T.eps1()
        if hi < lo:
            continue
        s = QQ(0)
        for k in range(lo, hi + 1):
            s += phi(T.shift(k), beta)
        if s:
            acc = acc + T.multiplicity().scale(s)
    return acc


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
