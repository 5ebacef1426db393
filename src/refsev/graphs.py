"""Long-edge-graph combinatorics.

A long edge graph lives on the vertex set Z_{>=0}; edges (i -> j, w) carry
i < j and weight w >= 1, and weight-1 edges of length 1 are forbidden. The
cogenus is sum((j-i)w - 1) over edges, so a cogenus-delta graph has at most
delta edges, all short-ranged -- which is what makes the per-cogenus sums
over all graphs finite and fast.

This module provides the graph-side engine: enumeration by cogenus,
multiplicities, beta-extended ordering counts P_beta / P^s_beta, the
log-transform Phi, template sums for the log of the generating series, and
the linear fit of Phi in beta.
"""
from __future__ import annotations

import functools
import itertools
from math import comb, factorial

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
    """All edge types (i, j, w) of cogenus excess (j-i)w-1 between 1 and delta."""
    types = []
    for i in range(maxv_bound):
        for j in range(i + 1, maxv_bound + 1):
            ell = j - i
            w = 1
            while ell * w - 1 <= delta:
                if not (ell == 1 and w == 1):
                    types.append((i, j, w))
                w += 1
    return types


def enumerate_graphs(delta: int, maxv_bound: int) -> list:
    """All long edge graphs of cogenus exactly delta with maxv <= maxv_bound."""
    if delta < 0:
        raise ValueError("cogenus must be nonnegative")
    if delta == 0:
        return [LongEdgeGraph([])]
    types = _edge_types(delta, maxv_bound)
    excess = [(j - i) * w - 1 for i, j, w in types]
    out = []

    def rec(start: int, remaining: int, chosen: list):
        if remaining == 0:
            out.append(LongEdgeGraph(chosen))
            return
        for t in range(start, len(types)):
            if excess[t] <= remaining:
                chosen.append(types[t])
                rec(t, remaining - excess[t], chosen)
                chosen.pop()

    rec(0, delta, [])
    return out


@functools.cache
def enumerate_templates(delta: int) -> list:
    """All templates of cogenus delta (minv = 0, interior vertices spanned)."""
    # a template of cogenus delta has length at most delta + 1
    cands = enumerate_graphs(delta, maxv_bound=delta + 1)
    return [G for G in cands if G.is_template()]


# -- ordering counts ----------------------------------------------------------


def _edge_classes(G: LongEdgeGraph):
    """Group identical edges: list of ((i, j, w), multiplicity)."""
    out = []
    for e, grp in itertools.groupby(G.edges):
        out.append((e, len(list(grp))))
    return out


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
    items = []  # (allowed gap range) per distinguishable instance
    for i, j, w in G.edges:
        items.append(range(i + 1, j + 1))
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


def phi(G: LongEdgeGraph, beta, strict: bool = False):
    """Phi_beta(G) (or Phi^s): the formal logarithm of P under ordered
    decompositions of the edge multiset; an exact rational.

    Computed as a truncated multivariate logarithm over the edge classes,
    never by literal ordered-tuple enumeration (same value, exponentially
    fewer terms).
    """
    if G.is_empty():
        return QQ(0)
    if not strict:
        # P_beta(G') for G' <= G depends only on beta over [minv, maxv) and
        # on maxv <= M+1, so shift-normalize the cache key.
        M = len(beta) - 1
        if G.maxv() > M + 1:
            return QQ(0)
        v0 = G.minv()
        window = tuple(beta[v0:G.maxv()])
        key = (G.shift(-v0).edges, window)
        hit = _PHI_CACHE.get(key)
        if hit is not None:
            return hit
        val = _phi_compute(G, beta, strict=False)
        _PHI_CACHE[key] = val
        return val
    return _phi_compute(G, beta, strict=True)


def _phi_compute(G: LongEdgeGraph, beta, strict: bool):
    classes = _edge_classes(G)
    m = tuple(mult for _, mult in classes)
    edges = [e for e, _ in classes]

    Pv = {}

    def F(j):
        # P of the sub-multiset with class multiplicities j
        if j not in Pv:
            sub = []
            for e, cnt in zip(edges, j):
                sub.extend([e] * cnt)
            Pv[j] = QQ(count_orderings(LongEdgeGraph(sub), beta, strict=strict))
        return Pv[j]

    Lv: dict = {}

    def sub_indices(bound):
        return itertools.product(*[range(b + 1) for b in bound])

    def L(j):
        # coefficient of x^j in log(sum_k F(k) x^k), F(0) = 1
        if all(x == 0 for x in j):
            return QQ(0)
        if j in Lv:
            return Lv[j]
        c = next(i for i, x in enumerate(j) if x > 0)
        s = F(j)
        for k in sub_indices(j):
            if all(x == 0 for x in k) or k == j or k[c] == 0:
                continue
            jk = tuple(a - b for a, b in zip(j, k))
            s -= QQ(k[c], j[c]) * L(k) * F(jk)
        Lv[j] = s
        return s

    return L(m)


def phi_bruteforce(G: LongEdgeGraph, beta, strict: bool = False):
    """Oracle for Phi: literal sum over ordered decompositions of the edge
    multiset into nonempty sub-multisets (only sane for a few edges)."""
    classes = _edge_classes(G)
    m = tuple(mult for _, mult in classes)
    edges = [e for e, _ in classes]
    if not edges:
        return QQ(0)

    def P_of(j):
        sub = []
        for e, cnt in zip(edges, j):
            sub.extend([e] * cnt)
        return count_orderings(LongEdgeGraph(sub), beta, strict=strict)

    nonzero = [
        j
        for j in itertools.product(*[range(x + 1) for x in m])
        if any(j)
    ]
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
