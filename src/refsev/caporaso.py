"""The refined Caporaso-Harris recursion for P^2, P(1,1,m) and Sigma_m.

States are (m, c, d, delta, alpha, beta) with I(alpha) + I(beta) = HL,
HL the lattice length c + m*d of the bottom edge of Delta_{c,m,d}. P^2 and
P(1,1,m) run through the Sigma_m states with c = 0 (same polygons, same
degrees); the recursion terminates at the fiber bundles (d = 0): the count
is 1 exactly for delta = 0, beta = 0 and alpha = c simple contacts.

The recursion runs once, over a value ring (ylaurent.YRing) chosen by y:
'sym' computes exact Laurent polynomials in y; 1 and -1 compute their
values on plain ints (classical Severi degrees and tropical Welschinger
numbers), the integer rings being the images of the Laurent ring under
evaluation. At y = -1 the half-integer powers are taken at y^(1/2) = i,
so [n]_{-1} = 0 for even n and a factor that vanishes there prunes its
branch; the value of a refined count at y = -1 is always real, since the
count is palindromic.
"""
from __future__ import annotations

import itertools
import sys
from collections import namedtuple
from math import comb, prod
from operator import mul

from .cache import CacheStore
from .ylaurent import RINGS, ring_at

__all__ = [
    "SurfaceBundle",
    "P2",
    "P11m",
    "Sigma",
    "CHTable",
    "relative_degree",
    "severi_degree",
    "welschinger_degree",
    "canon_seq",
    "iseq",
]


# -- sequences ---------------------------------------------------------------


def canon_seq(seq, name: str = "sequence") -> tuple:
    """Strip trailing zeros; sequences are indexed from 1. A ValueError
    naming the sequence when an entry is negative."""
    seq = list(seq)
    if any(x < 0 for x in seq):
        raise ValueError(f"{name} = {tuple(seq)} has a negative entry")
    while seq and seq[-1] == 0:
        seq.pop()
    return tuple(seq)


def iseq(seq) -> int:
    """I(seq) = sum_i i * seq_i."""
    return sum(map(mul, seq, itertools.count(1)))


def _strip(seq) -> tuple:
    """seq without trailing zeros, for sequences nonnegative by construction."""
    n = len(seq)
    while n and not seq[n - 1]:
        n -= 1
    return tuple(seq[:n])


# -- surfaces ----------------------------------------------------------------

SURFACES = ("p2", "p11m", "sigma")


class SurfaceBundle(namedtuple("SurfaceBundle", "family m c d")):
    """A pair (surface, line bundle) from the three h-transversal families.

    family 'p2' is (P^2, dH); 'p11m' is (P(1,1,m), dH); 'sigma' is
    (Sigma_m, cF + dH). It holds only the data of the polygon Delta_{c,m,d}
    the recursion reads; genfun.Invariants.of(bundle) gives the
    intersection numbers the generating function reads.
    """

    __slots__ = ()

    def __new__(cls, family: str, m: int, c: int, d: int):
        if family not in SURFACES:
            raise ValueError(f"unknown family {family!r}")
        if family == "p2" and (m != 1 or c != 0):
            raise ValueError(f"P2 bundles have m = 1, c = 0, not m = {m}, c = {c}")
        if family == "p11m" and c != 0:
            raise ValueError(f"P(1,1,m) bundles have c = 0, not c = {c}")
        if family == "p11m" and m < 1:
            raise ValueError(f"P(1,1,m) bundles have m >= 1, not m = {m}")
        for name, value in (("m", m), ("c", c), ("d", d)):
            if value < 0:
                raise ValueError(f"{name} = {value} is negative")
        return super().__new__(cls, family, m, c, d)

    @classmethod
    def _make(cls, iterable):
        """As namedtuple's, but validated, and so is _replace, which calls it."""
        return cls(*iterable)

    @property
    def HL(self) -> int:
        return self.c + self.m * self.d

    @property
    def dim_L(self) -> int:
        return (self.d + 1) * (self.c + 1) + self.m * self.d * (self.d + 1) // 2 - 1


def P2(d: int) -> SurfaceBundle:
    return SurfaceBundle("p2", 1, 0, d)


def P11m(m: int, d: int) -> SurfaceBundle:
    return SurfaceBundle("p11m", m, 0, d)


def Sigma(m: int, c: int, d: int) -> SurfaceBundle:
    return SurfaceBundle("sigma", m, c, d)


# -- memo table --------------------------------------------------------------


class CHTable:
    """Memo for recursion values, optionally backed by an append-only store.

    Entries are immutable once written; recomputation of a key reproduces
    the stored value bit for bit (asserted in the test suite). The table
    also owns the lists the recursion's second sum reads (_splits per
    alpha, _gammas per (R, emax)): they hold sequences and integers, no
    ring values, so they serve every ring and never reach the store.
    """

    def __init__(self, store: CacheStore | None = None):
        self.memo = {y: {} for y in RINGS}
        self.store = store
        self.splits: dict = {}
        self.gammas: dict = {}

    @staticmethod
    def _store_key(y, key) -> str:
        m, c, d, delta, alpha, beta = key
        a = ",".join(map(str, alpha))
        b = ",".join(map(str, beta))
        return f"{y}|{m}|{c}|{d}|{delta}|{a}|{b}"

    def lookup(self, y, key):
        hit = self.memo[y].get(key)
        if hit is not None:
            return hit
        if self.store is not None:
            skey = self._store_key(y, key)
            payload = self.store.get(skey)
            if payload is not None:
                try:
                    val = ring_at(y).decode(payload)
                except (ValueError, TypeError, ZeroDivisionError):
                    # undecodable: a miss, so the recomputed value is
                    # appended and wins on the next open
                    self.store.forget(skey)
                    return None
                self.memo[y][key] = val
                return val
        return None

    def insert(self, y, key, value):
        self.memo[y][key] = value
        if self.store is not None:
            self.store.put(self._store_key(y, key), ring_at(y).encode(value))

    def flush(self):
        if self.store is not None:
            self.store.flush()

    def _splits(self, alpha) -> list:
        """(alpha' stripped, I(alpha'), prod_i C(alpha_i, alpha'_i)) for
        every alpha' <= alpha, in itertools.product order."""
        hit = self.splits.get(alpha)
        if hit is None:
            hit = self.splits[alpha] = [
                (_strip(a2), iseq(a2), prod(map(comb, alpha, a2)))
                for a2 in itertools.product(*[range(x + 1) for x in alpha])]
        return hit

    def _gammas(self, R: int, emax: int) -> list:
        """(e, gamma', its largest part) for every gamma' with I(gamma') = R
        in R - e parts, e <= emax: `ones` parts of size 1 and the parts
        mu_j + 1 of a partition mu of e, listed by e, then by _partitions."""
        hit = self.gammas.get((R, emax))
        if hit is None:
            hit = self.gammas[R, emax] = []
            for e in range(min(R, emax) + 1):
                for mu in _partitions(e):
                    ones = R - e - len(mu)
                    if ones < 0:
                        continue
                    gam: dict = {}
                    if ones:
                        gam[1] = ones
                    for p in mu:
                        gam[p + 1] = gam.get(p + 1, 0) + 1
                    hit.append((e, tuple(gam.items()), max(gam, default=0)))
        return hit


def _partitions(e: int) -> tuple:
    """All partitions of e as tuples of parts >= 1, descending."""
    out = []

    def rec(rest, maxpart, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for p in range(min(rest, maxpart), 0, -1):
            acc.append(p)
            rec(rest - p, p, acc)
            acc.pop()

    rec(e, e, [])
    return tuple(out)


# -- the recursion -------------------------------------------------------------


def relative_degree(s: SurfaceBundle, delta: int, alpha, beta, y="sym",
                    table: CHTable | None = None):
    """The relative refined degree N^{(S,L),delta}(alpha,beta).

    alpha are fixed contacts with the bottom divisor, beta moving ones;
    I(alpha) + I(beta) must equal HL. y is 'sym' for the Laurent polynomial,
    1 or -1 for its integer value there (at y = -1, y^(1/2) = i).
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    alpha = canon_seq(alpha, "alpha")
    beta = canon_seq(beta, "beta")
    if iseq(alpha) + iseq(beta) != s.HL:
        raise ValueError(
            f"I(alpha) + I(beta) = {iseq(alpha) + iseq(beta)} != HL = {s.HL}"
        )
    ring = ring_at(y)
    if table is None:
        table = CHTable()
    old = sys.getrecursionlimit()
    if old < 50000:
        sys.setrecursionlimit(50000)
    try:
        return _N(s.m, s.c, s.d, delta, alpha, beta, ring, table)
    finally:
        sys.setrecursionlimit(old)


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


def severi_degree(s: SurfaceBundle, delta: int, y="sym",
                  table: CHTable | None = None):
    """N^{(S,L),delta}(y): all HL contacts with the bottom divisor simple
    and moving, i.e. alpha = 0, beta = (HL)."""
    beta = (s.HL,) if s.HL > 0 else ()
    return relative_degree(s, delta, (), beta, y=y, table=table)


def welschinger_degree(s: SurfaceBundle, delta: int,
                       table: CHTable | None = None) -> int:
    """Tropical Welschinger number: the recursion over the integers at
    y = -1."""
    return severi_degree(s, delta, y=-1, table=table)
