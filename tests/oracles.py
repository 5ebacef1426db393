"""Independent oracles, slow by design: for the graph engine the all-graph
sum for N^delta_beta, ordering counts by distinguishable edge instances,
Phi by its literal partition sum and Q^delta_beta by the template sum of
Phi; for the floor diagrams the literal
orbit count of markings; for the generating function its form (1), the
q-series product."""
import itertools
from math import factorial

from refsev.floor_diagrams import FloorDiagram, FloorDiagramTooLarge, _marking_classes
from refsev.genfun import Invariants, base_series
from refsev.graphs import (
    LongEdgeGraph,
    _edge_classes,
    _sub_multiset,
    count_orderings,
    enumerate_graphs,
    enumerate_templates,
    phi,
)
from refsev.qseries import QSeries
from refsev.rationals import QQ
from refsev.ylaurent import YL_ZERO, ring_at


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
