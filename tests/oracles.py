"""Independent oracles, slow by design, and the per-graph quantities of
the graph engine that only the tests use.

For one long edge graph, the sorted tuple of its edges: its cogenus,
shifts, end vertices, length, gap loads lambda_j and lambda_bar_j, eps0,
eps1, multiplicity, template test and (semi-, strict) beta-allowability; the
placement, its fill weights W(n), placed one edge at a time from an empty
fill, and the ordering count P_beta (or P^s_beta) from them; Phi_beta (or
Phi^s) by the integer Euler operator recursion, and its affine-linear fit
in beta. Against these: ordering counts by distinguishable edge instances
and by the fill-vector programme over the edge classes, whose run from an
empty fill is the reference for the engine's edge-by-edge fill weights,
and Phi by its literal partition sum. For the graph engine's counts the
all-graph sum for N^delta_beta and Q^delta_beta by the template sum of
Phi; for the floor diagrams (floor_diagrams.py) the literal orbit count of
markings; for the generating function its form (1), the q-series product;
for the q-series kernel the term-by-term loops of the product, power,
log, exp and composition; for the recursion's rows over delta the
Caporaso-Harris recursion one delta at a time."""
import functools
import itertools
import operator
import sys
from collections import Counter
from math import comb, factorial, prod

from floor_diagrams import FloorDiagram, FloorDiagramTooLarge, _compositions, _marking_classes
from refsev.caporaso import CHTable, _strip, canon_seq, iseq
from refsev.genfun import Invariants, base_series
from refsev.graphs import (
    _place,
    _refuse_negative,
    enumerate_graphs,
    enumerate_templates,
)
from refsev.linalg import solve_exact
from refsev.qseries import QSeries, _divide_coeff, _pow_coeff, _same_lattice
from refsev.rationals import QQ
from refsev.ylaurent import YL_ONE, YL_ZERO, ring_at


# -- one long edge graph: its gap loads, allowability under beta, P and Phi --
# A graph is the sorted tuple of its (i, j, w) edges, as the enumeration
# yields it: minv, _edge_classes and the sub-multisets of phi rely on the
# order.


def is_empty(G: tuple) -> bool:
    return not G


def cogenus(G: tuple) -> int:
    return sum((j - i) * w - 1 for i, j, w in G)


def shift(G: tuple, k: int) -> tuple:
    return tuple((i + k, j + k, w) for i, j, w in G)


def minv(G: tuple) -> int:
    return G[0][0]  # the edges are sorted by their start


def maxv(G: tuple) -> int:
    return max(j for _, j, _ in G)


def length(G: tuple) -> int:
    return maxv(G) - minv(G) if G else 0


def loads(G: tuple) -> tuple:
    """The gap loads (lambda_1, ..., lambda_maxv)."""
    lam = [0] * (maxv(G) if G else 0)
    for i, k, w in G:
        for g in range(i, k):
            lam[g] += w
    return tuple(lam)


def _light_at(G: tuple, v: int) -> bool:
    """Every edge at the vertex v has weight 1."""
    return all(w == 1 for i, j, w in G if v in (i, j))


def eps0(G: tuple) -> int:
    return int(_light_at(G, minv(G)))


def eps1(G: tuple) -> int:
    return int(_light_at(G, maxv(G)))


def multiplicity(G: tuple, y="sym"):
    """prod [w]_y^2 over the edges: refined (y='sym'), Severi (y=1) or
    Welschinger (y=-1) multiplicity."""
    return ring_at(y).multiplicity(w for _, _, w in G)


def lambda_j(G: tuple, j: int) -> int:
    """Total weight of edges (i -> k) spanning the gap i < j <= k."""
    lam = loads(G)
    return lam[j - 1] if 0 < j <= len(lam) else 0


def lambda_bar_j(G: tuple, j: int) -> int:
    return lambda_j(G, j) - sum(
        1 for i, k, _ in G if i == j - 1 and k == j
    )


def is_template(G: tuple) -> bool:
    """minv = 0 and every interior vertex is strictly spanned by an edge."""
    if is_empty(G) or minv(G) != 0:
        return False
    return all(
        any(i < v < j for i, j, _ in G)
        for v in range(1, length(G))
    )


def beta_allowable(G: tuple, beta) -> bool:
    # maxv <= M + 1 and beta_j >= lambda_j on every gap j = 1, ..., M + 1
    lam = loads(G)
    return len(lam) <= len(beta) and all(
        b >= l for b, l in itertools.zip_longest(beta, lam, fillvalue=0))


def beta_semiallowable(G: tuple, beta) -> bool:
    M = len(beta) - 1
    if G and maxv(G) > M + 1:
        return False
    return all(beta[j - 1] >= lambda_bar_j(G, j) for j in range(1, M + 2))


def strictly_beta_allowable(G: tuple, beta) -> bool:
    return beta_allowable(G, beta) and not _heavy_end(G, len(beta))


def _heavy_end(G: tuple, n: int) -> bool:
    """An edge of weight > 1 at vertex 0 or at vertex n = M + 1: what
    strict allowability under a beta of length n adds. An edge starting
    at n counts too; both callers rule it out first by maxv <= n."""
    return any(w > 1 for i, j, w in G if i in (0, n) or j in (0, n))


def placement(T: tuple) -> tuple:
    """(length, eps0, eps1, the sorted edge weights): what a sum over
    shifts of the template T reads of it, the key of the window sums."""
    return length(T), eps0(T), eps1(T), tuple(sorted(w for _, _, w in T))


def fill_weights(G: tuple) -> dict:
    """{n: W_G(n)}: the orderings of G's edges alone, with n[g] of them in
    gap g + 1, from an empty fill. The edges are placed one at a time by
    the engine's step (graphs._place); dividing by the factorials of the
    multiplicities of identical edges then counts each ordering once."""
    fills = functools.reduce(_place, G, {(): 1})
    sym = prod(map(factorial, Counter(G).values()))
    return {n: c // sym for n, c in fills.items()}


def fill_sum(weights, free) -> int:
    """sum_n W(n) prod_g C(free[g] + n[g], n[g]): P from the fill weights
    (n, W(n)) of a graph and its free fills beta_g - lambda_g."""
    return sum(w * prod(map(comb, map(operator.add, free, n), n))
               for n, w in weights)


def count_orderings(G: tuple, beta, strict: bool = False) -> int:
    """The number P_beta(G) (or P^s_beta) of beta-extended orderings of G,
    up to permutation of identical edges.

    Each edge of ext_beta(G) occupies one gap j between vertices j-1 and j
    of its span; orderings of a gap's edges count once per multiset
    permutation. The f_j = beta[j-1] - lambda_j(G) added short edges sit in
    gap j as one indistinguishable class. Placed after G's own edges, they
    interleave with the n_j of those in gap j in C(f_j + n_j, n_j) ways, so
    P is a polynomial in the free fills f: the sum over n of the fill
    weights W_G(n) of fill_weights times prod_j C(f_j + n_j, n_j).
    """
    if not (strictly_beta_allowable(G, beta) if strict else beta_allowable(G, beta)):
        return 0
    # beta is at least as long as the loads, so map stops at the last gap
    return fill_sum(fill_weights(G).items(),
                    tuple(map(operator.sub, beta, loads(G))))


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


def phi(G: tuple, beta, strict: bool = False):
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
    if is_empty(G) or maxv(G) > len(beta) or strict and _heavy_end(G, len(beta)):
        return QQ(0)
    edges, m = zip(*_edge_classes(G))
    F = [1] + [count_orderings(_sub_multiset(edges, j), beta)
               for j in itertools.islice(
                   itertools.product(*[range(x + 1) for x in m]), 1, None)]
    return QQ(_log_numerator(_euler_terms(m), F), sum(m))


def _sub_multiset(edges, j) -> tuple:
    """The sorted edge tuple taking j[c] copies of the class edge edges[c]."""
    return tuple(e for e, c in zip(edges, j) for _ in range(c))


def fit_phi_linear(T: tuple, probes):
    """Fit Phi_beta(T) as an affine-linear form in the window entries
    beta_i, minv(T) <= i <= maxv(T) (capped at the last beta index), from
    probe beta sequences on which T is beta-semiallowable.

    Returns (const, {i: coeff}). Raises when the probes are rank-deficient.
    """
    if is_empty(T):
        return QQ(0), {}
    lo, hi = minv(T), maxv(T)
    for beta in probes:
        if not beta_semiallowable(T, beta):
            raise ValueError("probe beta must make the graph semiallowable")
    idxs = [i for i in range(lo, hi + 1) if i < len(probes[0])]
    A = [[QQ(1)] + [QQ(b[i]) for i in idxs] for b in probes]
    rhs = [phi(T, b) for b in probes]
    sol = solve_exact(A, rhs)
    return sol[0], {i: c for i, c in zip(idxs, sol[1:])}


def eval_phi_linear(form, beta):
    const, coeffs = form
    return const + sum(c * beta[i] for i, c in coeffs.items())


# -- the graph engine's oracles ------------------------------------------------


def refined_count_all_graphs(beta, delta: int, y="sym"):
    """N^delta_beta at y as the sum of multiplicity times P^s_beta over all
    cogenus-delta graphs with maxv <= M + 1."""
    acc = ring_at(y).zero
    for G in enumerate_graphs(delta, len(beta)):
        P = count_orderings(G, beta, strict=True)
        if P:
            acc = acc + multiplicity(G, y) * P
    return acc


def q_log_count_templates(beta, delta: int):
    """Q^delta_beta as the sum of mu(T) Phi_beta(T shifted by k) over the
    templates T of cogenus delta and the shifts 1 - eps0 <= k <= M - length
    + eps1: the shifted templates that Phi^s does not send to 0, where it
    equals Phi."""
    M = len(beta) - 1
    acc = YL_ZERO
    for T in enumerate_templates(delta):
        for k in range(1 - eps0(T), M - length(T) + eps1(T) + 1):
            acc = acc + multiplicity(T).scale(phi(shift(T, k), beta))
    return acc


def count_orderings_bruteforce(G: tuple, beta, strict: bool = False) -> int:
    """Place distinguishable edge instances, count linear orders per gap as
    n!, then divide by the product of identical-class factorials (the
    identical-edge permutation group acts freely on orderings)."""
    if strict:
        if not strictly_beta_allowable(G, beta):
            return 0
    elif not beta_allowable(G, beta):
        return 0
    M = len(beta) - 1
    # (allowed gap range) per distinguishable instance
    items = [range(i + 1, j + 1) for i, j, _ in G]
    sym = 1
    for _, mult in _edge_classes(G):
        sym *= factorial(mult)
    for j in range(1, M + 2):
        s = beta[j - 1] - lambda_j(G, j)
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


def _edge_classes(G: tuple):
    """Group identical edges: list of ((i, j, w), multiplicity)."""
    return [(e, len(list(grp))) for e, grp in itertools.groupby(G)]


def fill_programme(G: tuple, start) -> dict:
    """The fill-vector programme over the edge classes from the per-gap
    fills start: placing t copies of a class into a gap holding f edges
    multiplies by C(f + t, t), and the placements that reach the same fill
    merge. {fill: count}; from an empty fill, the fill weights of G."""
    fills = {tuple(start): 1}
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


def count_orderings_fill_dp(G: tuple, beta, strict: bool = False) -> int:
    """The class programme started from the free fills beta_g - lambda_g."""
    if not (strictly_beta_allowable(G, beta) if strict else beta_allowable(G, beta)):
        return 0
    return sum(fill_programme(G, (b - l for b, l in itertools.zip_longest(
        beta, loads(G), fillvalue=0))).values())


def phi_bruteforce(G: tuple, beta, strict: bool = False):
    """Phi as the literal sum over ordered decompositions of the edge
    multiset into nonempty sub-multisets (only sane for a few edges)."""
    if is_empty(G):
        return QQ(0)
    edges, m = zip(*_edge_classes(G))

    def P_of(j):
        return count_orderings(_sub_multiset(edges, j), beta, strict)

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


def marking_count_literal(D: FloorDiagram, guard: int = 8) -> int:
    """Literal orbit count: enumerate every ordering of distinguishable
    items, canonicalize by the class-label sequence per gap, and count
    distinct canonical forms. Validates the free-action division used by
    marking_count; only viable for a handful of items."""
    classes = _marking_classes(D)
    items = []
    for cid, (cnt, lo, hi) in enumerate(classes):
        items.extend([(cid, lo, hi)] * cnt)
    if len(items) > guard:
        raise FloorDiagramTooLarge(f"{len(items)} items exceeds literal guard {guard}")
    seen = set()
    windows = [range(lo, hi + 1) for _, lo, hi in items]
    for assign in itertools.product(*windows):
        by_gap: dict = {}
        for idx, g in enumerate(assign):
            by_gap.setdefault(g, []).append(idx)
        pergap = sorted(by_gap.items())
        for perms in itertools.product(
            *[itertools.permutations(members) for _, members in pergap]
        ):
            canon = tuple(
                (g, tuple(items[i][0] for i in perm))
                for (g, _), perm in zip(pergap, perms)
            )
            seen.add(canon)
    return len(seen)


def reform_q_series(inv: Invariants, B1: QSeries, B2: QSeries, order: int,
                    R: QSeries | None = None, shift=0) -> QSeries:
    """Form (1): the refined q-series right side mod q^order, its point
    series raised to -shift. R defaults to 1."""
    dg, ddg, dt = base_series(order)
    F = dg.shift(-1).pow(inv.chi_L)
    F = F * B1.truncate(order).pow(inv.K2) * B2.truncate(order).pow(inv.LK)
    F = F * (dt * ddg).shift(-2).pow(QQ(-inv.chi_O, 2))
    if shift:
        F = F * dg.pow(-shift)
    if R is not None:
        F = F * R
    return F.truncate(order)


# -- the q-series kernel, one YLaurent product and partial sum per term ------


def mul_termwise(a: QSeries, b: QSeries) -> QSeries:
    """a * b by adding each product a_i b_j into its coefficient."""
    _same_lattice(a, b, "*", offsets=False)
    n = min(a.known_length(), b.known_length())
    lead = a.lead + b.lead
    out = [YL_ZERO] * n
    for i, ca in enumerate(a.coeffs):
        if ca.is_zero() or i >= n:
            continue
        for j, cb in enumerate(b.coeffs):
            k = i + j
            if k >= n:
                break
            out[k] = out[k] + ca * cb
    return QSeries(out, lead=lead, trunc=lead + n,
                   offset24=a.offset24 + b.offset24, step24=a.step24)


def pow_termwise(s: QSeries, r) -> QSeries:
    """s ** r by the recurrence m u0 w_m = sum_k (k r - (m - k)) u_k w_(m-k),
    one scaled product per term; the same refusals as QSeries.pow."""
    r = QQ(r)
    if s.is_known_zero():
        if r < 0:
            raise ZeroDivisionError("negative power of known-zero series")
        if r == 0:
            return QSeries.one(1)
        return QSeries.zero(s.trunc, offset24=s.offset24, step24=s.step24)
    if r == 0:
        return QSeries.one(s.known_length())
    e24_new = QQ(s.offset24 + s.lead * s.step24) * r
    if e24_new.denominator != 1:
        raise ValueError("fractional power leaves the 1/24 exponent lattice")
    n = s.known_length()
    u = s.coeffs
    u0 = u[0]
    if r.denominator != 1 and not u0.is_one():
        raise ValueError("fractional power requires leading coefficient 1")
    out = [_pow_coeff(u0, r)]
    for m in range(1, n):
        acc = YL_ZERO
        for k in range(1, m + 1):
            if u[k].is_zero():
                continue
            acc = acc + (u[k] * out[m - k]).scale(QQ(k) * r - QQ(m - k))
        out.append(_divide_coeff(acc.scale(QQ(1, m)), u0))
    return QSeries(out, lead=0, trunc=n, offset24=int(e24_new), step24=s.step24)


def log_termwise(s: QSeries) -> QSeries:
    """log s by m w_m = m u_m - sum_(k<m) k w_k u_(m-k), one scaled product
    per term."""
    if s.offset24 + s.lead * s.step24 != 0 or not s.coeffs or not s.coeffs[0].is_one():
        raise ValueError("log requires a series with constant term 1")
    n = s.known_length()
    u = s.coeffs
    out = [YL_ZERO]
    for m in range(1, n):
        acc = u[m]
        for k in range(1, m):
            if not out[k].is_zero() and not u[m - k].is_zero():
                acc = acc - (out[k] * u[m - k]).scale(QQ(k, m))
        out.append(acc)
    return QSeries(out, lead=0, trunc=n, offset24=0, step24=s.step24)


def exp_termwise(s: QSeries) -> QSeries:
    """exp s by m w_m = sum_k k a_k w_(m-k), one scaled product per term."""
    if s.lead < 0 or s.offset24 != 0:
        raise ValueError("exp requires a power series (no negative exponents)")
    if s.lead == 0 and s.coeffs and not s.coeffs[0].is_zero():
        raise ValueError("exp requires constant term 0")
    n = s.trunc
    a = [s.coeff_index(k) if s.lead <= k < s.trunc else YL_ZERO for k in range(n)]
    out = [YL_ONE]
    for m in range(1, n):
        acc = YL_ZERO
        for k in range(1, m + 1):
            if not a[k].is_zero():
                acc = acc + (a[k] * out[m - k]).scale(QQ(k, m))
        out.append(acc)
    return QSeries(out, lead=0, trunc=n, offset24=0, step24=s.step24)


def compose_termwise(outer: QSeries, inner: QSeries) -> QSeries:
    """outer(inner) by Horner on the term-by-term product, each partial
    sum multiplied in full and then cut to the order still needed."""
    n = min(outer.trunc, inner.trunc)
    acc = QSeries.zero(n)
    for k in range(n - 1, -1, -1):
        acc = mul_termwise(acc, inner).truncate(n - k) + outer.coeff_index(k)
    return acc


# -- the Caporaso-Harris recursion, one delta at a time ------------------------


class ScalarTable(CHTable):
    """A CHTable keyed per (state, delta), for the scalar recursion:
    memo[y] maps (m, c, d, delta, alpha, beta) to N^delta, and a store, if
    any, gets each value as it is inserted, under the keys of CHTable."""

    def lookup(self, y, key):
        hit = self.memo[y].get(key)
        if hit is not None:
            return hit
        if self.store is not None:
            payload = self.store.get(self._store_key(y, key))
            if payload is not None:
                val = self.memo[y][key] = ring_at(y).decode(payload)
                return val
        return None

    def insert(self, y, key, value):
        self.memo[y][key] = value
        if self.store is not None:
            self.store.put(self._store_key(y, key), ring_at(y).encode(value))

    def _splits(self, alpha) -> list:
        return CHTable._splits(self, alpha, None)


def per_delta(memo) -> dict:
    """The rows of a CHTable memo as a ScalarTable memo holds them:
    {(m, c, d, delta, alpha, beta): N^delta}."""
    return {(m, c, d, delta, alpha, beta): value
            for (m, c, d, alpha, beta), row in memo.items()
            for delta, value in enumerate(row)}


def relative_degree_scalar(s, delta: int, alpha, beta, y="sym", table=None):
    """N^{(S,L),delta}(alpha, beta) by the recursion asked for this delta
    alone, each state (m, c, d, delta, alpha, beta) computed on its own."""
    table = ScalarTable() if table is None else table
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 50000))
    try:
        return _N(s.m, s.c, s.d, delta, canon_seq(alpha), canon_seq(beta),
                  ring_at(y), table)
    finally:
        sys.setrecursionlimit(old)


def severi_degree_scalar(s, delta: int, y="sym", table=None):
    return relative_degree_scalar(s, delta, (), (s.HL,) if s.HL > 0 else (), y, table)


def _N(m, c, d, delta, alpha, beta, ring, table):
    key = (m, c, d, delta, alpha, beta)
    y = ring.y
    hit = table.lookup(y, key)
    if hit is not None:
        return hit

    # initial conditions: the fiber bundles cF on Sigma_m
    if d == 0 and delta == 0 and not beta and alpha == _strip((c,)):
        table.insert(y, key, ring.one)
        return ring.one

    dim = (d + 1) * (c + 1) + m * d * (d + 1) // 2 - 1
    HL = c + m * d
    gamma = dim - HL + sum(beta) - delta
    if gamma <= 0:
        table.insert(y, key, ring.zero)
        return ring.zero

    # the children as (factor, binomial, value) triples, summed once
    terms = []
    # first sum: trade one moving contact of order k for a fixed one
    for k_idx, bk in enumerate(beta):
        if not bk:
            continue
        k = k_idx + 1
        f = ring.qnum_prod(((k, 1),))
        if not f:
            continue
        a2 = list(alpha) + [0] * (k - len(alpha))
        a2[k - 1] += 1
        b2 = list(beta)
        b2[k - 1] -= 1
        # a2 ends in a positive entry; b2 may end in a zero
        terms.append((f, 1, _N(m, c, d, delta, tuple(a2), _strip(b2), ring, table)))

    # second sum: peel off the divisor H (d -> d-1); the fiber bundles are
    # the bottom of the tower. alpha' <= alpha and beta' = beta + gamma' with
    # I(gamma') = R = HL2 - I(alpha') - I(beta) in R - e parts, and
    # delta' = delta - HL2 + R - e; an alpha' with R < 0 or no delta' >= 0
    # is dropped. The children (f, C(beta', beta), delta', beta') depend on
    # alpha' only through R, so they are built once per R.
    if d > 0:
        HL2 = c + m * (d - 1)
        room = HL2 - iseq(beta)
        by_R: dict = {}
        for a2, ia2, ca in table._splits(alpha):
            R = room - ia2
            emax = delta - HL2 + R
            if R < 0 or emax < 0:
                continue
            children = by_R.get(R)
            if children is None:
                children = by_R[R] = []
                for e, gam, top in table._gammas(R, emax):
                    f = ring.qnum_prod(gam)
                    if not f:
                        continue
                    b2 = list(beta) + [0] * (top - len(beta))
                    for i, gi in gam:
                        b2[i - 1] += gi
                    # b2 ends in a positive entry, the last of beta or gamma'
                    children.append((f, prod(map(comb, b2, beta)), emax - e,
                                     tuple(b2)))
            for f, cb, delta2, b2 in children:
                terms.append((f, ca * cb,
                              _N(m, c, d - 1, delta2, a2, b2, ring, table)))

    total = ring.sum_products(terms)
    table.insert(y, key, total)
    return total
