"""Independent oracles, slow by design: for the graph engine the all-graph
sum for N^delta_beta, ordering counts by distinguishable edge instances,
ordering counts by the fill-vector programme from the free fills
beta - lambda, Phi by its literal partition sum and Q^delta_beta by the
template sum of Phi; for the floor diagrams the literal
orbit count of markings; for the generating function its form (1), the
q-series product; for the q-series kernel the term-by-term loops of the
product, power, log, exp and composition."""
import itertools
from math import comb, factorial

from refsev.floor_diagrams import FloorDiagram, FloorDiagramTooLarge, _marking_classes
from refsev.genfun import Invariants, base_series
from refsev.graphs import (
    LongEdgeGraph,
    _compositions,
    _edge_classes,
    _sub_multiset,
    count_orderings,
    enumerate_graphs,
    enumerate_templates,
    phi,
)
from refsev.qseries import QSeries, _divide_coeff, _pow_coeff, _same_lattice
from refsev.rationals import QQ
from refsev.ylaurent import YL_ONE, YL_ZERO, ring_at


def refined_count_all_graphs(beta, delta: int, y="sym"):
    """N^delta_beta at y as the sum of multiplicity times P^s_beta over all
    cogenus-delta graphs with maxv <= M + 1."""
    acc = ring_at(y).zero
    for G in enumerate_graphs(delta, len(beta)):
        P = count_orderings(G, beta, strict=True)
        if P:
            acc = acc + G.multiplicity(y) * P
    return acc


def q_log_count_templates(beta, delta: int):
    """Q^delta_beta as the sum of mu(T) Phi_beta(T shifted by k) over the
    templates T of cogenus delta and the shifts 1 - eps0 <= k <= M - length
    + eps1: the shifted templates that Phi^s does not send to 0, where it
    equals Phi."""
    M = len(beta) - 1
    acc = YL_ZERO
    for T in enumerate_templates(delta):
        for k in range(1 - T.eps0(), M - T.length() + T.eps1() + 1):
            acc = acc + T.multiplicity().scale(phi(T.shift(k), beta))
    return acc


def count_orderings_bruteforce(G: LongEdgeGraph, beta, strict: bool = False) -> int:
    """Place distinguishable edge instances, count linear orders per gap as
    n!, then divide by the product of identical-class factorials (the
    identical-edge permutation group acts freely on orderings)."""
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


def count_orderings_fill_dp(G: LongEdgeGraph, beta, strict: bool = False) -> int:
    """The fill-vector programme over the edge classes, started from the
    free fills beta_g - lambda_g: placing t copies of a class into a gap
    holding f edges multiplies by C(f + t, t)."""
    if not (G.strictly_beta_allowable(beta) if strict else G.beta_allowable(beta)):
        return 0
    fills = {tuple(b - l for b, l
                   in itertools.zip_longest(beta, G.loads(), fillvalue=0)): 1}
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
    return sum(fills.values())


def phi_bruteforce(G: LongEdgeGraph, beta, strict: bool = False):
    """Phi as the literal sum over ordered decompositions of the edge
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
