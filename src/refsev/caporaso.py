"""The refined Caporaso-Harris recursion for P^2, P(1,1,m) and Sigma_m.

States are (m, c, d, alpha, beta) with I(alpha) + I(beta) = HL, HL the
lattice length c + m*d of the bottom edge of Delta_{c,m,d}. The value of a
state is a row [N^0, ..., N^D] over delta: a state asked to D walks its
children, alpha splits and beta lists once for the whole row and sums the
terms of each delta once, so a caller asks a bundle once, at the largest
delta it reads. P^2 and P(1,1,m) run through the Sigma_m states with c = 0
(same polygons, same degrees); the recursion terminates at the fiber
bundles (d = 0): the count is 1 exactly for delta = 0, beta = 0 and
alpha = c simple contacts.

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
    "severi_degrees",
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

    memo[y] maps a state to its row, filled in ascending delta. Entries are
    immutable once written; recomputation of a key reproduces the stored
    value bit for bit (asserted in the test suite). The table also owns the
    lists the second sum reads (_splits per (alpha, bound), _gammas per
    (R, emax), _children per (y, beta, R, emax)), none of them stored.
    """

    def __init__(self, store: CacheStore | None = None):
        self.memo = {y: {} for y in RINGS}
        self.store = store
        self.splits: dict = {}
        self.gammas: dict = {}
        self.children: dict = {}

    @staticmethod
    def _store_key(y, state, delta) -> str:
        m, c, d, alpha, beta = state
        a = ",".join(map(str, alpha))
        b = ",".join(map(str, beta))
        return f"{y}|{m}|{c}|{d}|{delta}|{a}|{b}"

    def lookup(self, y, state, delta):
        """The row held for state = (m, c, d, alpha, beta), or None: the
        memo's, extended from the store one delta at a time up to delta,
        until the first miss."""
        row = self.memo[y].get(state)
        if self.store is None:
            return row
        row = [] if row is None else row
        while len(row) <= delta:
            skey = self._store_key(y, state, len(row))
            payload = self.store.get(skey)
            if payload is None:
                break
            try:
                row.append(ring_at(y).decode(payload))
            except (ValueError, TypeError, ZeroDivisionError):
                # undecodable: a miss, so the recomputed value is
                # appended and wins on the next open
                self.store.forget(skey)
                break
        if row:
            self.memo[y][state] = row
        return row or None

    def insert(self, y, state, lo, values):
        """Append [N^lo, N^(lo+1), ...] to state's row; a store gets a record per value."""
        self.memo[y].setdefault(state, []).extend(values)
        if self.store is not None:
            encode = ring_at(y).encode
            for delta, value in enumerate(values, lo):
                self.store.put(self._store_key(y, state, delta), encode(value))

    def flush(self):
        if self.store is not None:
            self.store.flush()

    def _splits(self, alpha, bound) -> list:
        """(alpha' stripped, I(alpha'), prod_i C(alpha_i, alpha'_i)) for
        every alpha' <= alpha with I(alpha') <= bound (every alpha' for
        bound None), in itertools.product order."""
        hit = self.splits.get((alpha, bound))
        if hit is None:
            if bound is None:
                hit = [(_strip(a2), iseq(a2), prod(map(comb, alpha, a2)))
                       for a2 in itertools.product(*[range(x + 1) for x in alpha])]
            else:
                hit = [s for s in self._splits(alpha, None) if s[1] <= bound]
            self.splits[alpha, bound] = hit
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

    def _children(self, ring, beta, R: int, emax: int) -> list:
        """(f, C(beta', beta), e, beta' = beta + gamma') per (e, gamma') of
        _gammas(R, emax) whose f = prod [gamma'_i]_y is nonzero in ring."""
        hit = self.children.get((ring.y, beta, R, emax))
        if hit is None:
            hit = self.children[ring.y, beta, R, emax] = []
            for e, gam, top in self._gammas(R, emax):
                f = ring.qnum_prod(gam)
                if not f:
                    continue
                b2 = list(beta) + [0] * (top - len(beta))
                for i, gi in gam:
                    b2[i - 1] += gi
                # b2 ends in a positive entry, the last of beta or gamma'
                hit.append((f, prod(map(comb, b2, beta)), e, tuple(b2)))
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
        return _N(s.m, s.c, s.d, delta, alpha, beta, ring, table)[delta]
    finally:
        sys.setrecursionlimit(old)


def _N(m, c, d, D, alpha, beta, ring, table):
    """The table's row [N^0, ..., N^D, ...] of (m, c, d, alpha, beta), extended to D.
    A caller reads a long enough row from the memo, as lookup would, without calling."""
    state = (m, c, d, alpha, beta)
    y = ring.y
    row = table.lookup(y, state, D)
    lo = 0 if row is None else len(row)
    if lo > D:
        return row
    memo = table.memo[y]

    # gamma = dim - HL + |beta| - delta is positive to top; past it N = 0
    top = min(D, (d + 1) * (c + 1) + m * d * (d + 1) // 2 - 2 - c - m * d + sum(beta))
    # per delta in [lo, top], its children as (factor, binomial, value) triples
    terms = [[] for _ in range(lo, top + 1)]
    if terms:
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
            # a2 ends in a positive entry; beta - e_k may end in a zero
            a2, b2 = tuple(a2), _strip(beta[:k_idx] + (bk - 1,) + beta[k:])
            child = memo.get((m, c, d, a2, b2))
            if child is None or len(child) <= top:
                child = _N(m, c, d, top, a2, b2, ring, table)
            for t, v in zip(terms, child[lo:]):
                t.append((f, 1, v))

    # second sum: peel off the divisor H (d -> d-1); the fiber bundles are
    # the bottom of the tower. alpha' <= alpha and beta' = beta + gamma' with
    # I(gamma') = R = HL2 - I(alpha') - I(beta) in R - e parts, and
    # delta' = delta - HL2 + R - e; _splits drops the alpha' with R < 0 or
    # no delta' >= 0 at top. The children depend on alpha' only through R.
    if terms and d > 0:
        HL2 = c + m * (d - 1)
        room = HL2 - iseq(beta)
        for a2, ia2, ca in table._splits(alpha, room + min(0, top - HL2)):
            R = room - ia2
            emax = top - HL2 + R
            for f, cb, e, b2 in table._children(ring, beta, R, emax):
                child = memo.get((m, c, d - 1, a2, b2))
                if child is None or len(child) <= emax - e:
                    child = _N(m, c, d - 1, emax - e, a2, b2, ring, table)
                # delta' = 0 at delta = top - emax + e, index `at` of terms
                at, k = top - emax + e - lo, ca * cb
                for t, v in zip(terms[max(at, 0):], child[max(-at, 0):]):
                    t.append((f, k, v))

    # a lone 1 * 1 * v term is v itself, values being immutable
    vals = [t[0][2] if len(t) == 1 and t[0][1] == 1 and t[0][0] == ring.one
            else ring.sum_products(t) for t in terms] + [ring.zero] * (D - max(top, lo - 1))
    # initial conditions: the fiber bundles cF on Sigma_m
    if lo == 0 and d == 0 and not beta and alpha == _strip((c,)):
        vals[0] = ring.one
    table.insert(y, state, lo, vals)
    return memo[state]


def severi_degree(s: SurfaceBundle, delta: int, y="sym",
                  table: CHTable | None = None):
    """N^{(S,L),delta}(y): all HL contacts with the bottom divisor simple
    and moving, i.e. alpha = 0, beta = (HL)."""
    return severi_degrees(s, delta, y, table)[delta]


def severi_degrees(s: SurfaceBundle, delta_max: int, y="sym",
                   table: CHTable | None = None) -> list:
    """[N^0, ..., N^delta_max] of (S, L) at y, from one run of the
    recursion; ask once, at the largest delta wanted."""
    table = CHTable() if table is None else table
    beta = (s.HL,) if s.HL > 0 else ()
    relative_degree(s, delta_max, (), beta, y=y, table=table)
    return table.memo[y][s.m, s.c, s.d, (), beta][:delta_max + 1]


def welschinger_degree(s: SurfaceBundle, delta: int,
                       table: CHTable | None = None) -> int:
    """Tropical Welschinger number: the recursion over the integers at
    y = -1."""
    return severi_degree(s, delta, y=-1, table=table)
