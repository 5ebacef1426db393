"""Exact Laurent polynomials in y^(1/2) over the rationals.

Exponents are stored doubled (an int k stands for y^(k/2)), so half-integer
powers such as the quantum number [2]_y = y^(1/2) + y^(-1/2) are exact.
Coefficients are exact rationals; zero coefficients are never stored.

YRing is where refined counts take their values: the Laurent polynomials
themselves (y = 'sym'), or their evaluations at y = 1 and y = -1 on plain
ints.
"""
from __future__ import annotations

import json

from .rationals import QQ

__all__ = ["YLaurent", "qnum", "qnum_at", "YL_ZERO", "YL_ONE", "YRing",
           "RINGS", "ring_at", "ring_named"]


class YLaurent:
    """A Laurent polynomial in y^(1/2) with rational coefficients.

    terms: dict mapping doubled exponent -> nonzero rational coefficient.
    Instances are treated as immutable; all operations return new objects.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None, _canonical=False):
        if terms is None:
            self.terms = {}
        elif _canonical:
            self.terms = terms
        else:
            self.terms = {int(e): QQ(c) for e, c in dict(terms).items() if c != 0}
        self._hash = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c) -> "YLaurent":
        c = QQ(c)
        return YLaurent({0: c} if c != 0 else {}, _canonical=True)

    @staticmethod
    def y_pow(doubled_exp: int, coeff=1) -> "YLaurent":
        c = QQ(coeff)
        return YLaurent({int(doubled_exp): c} if c != 0 else {}, _canonical=True)

    # -- basic predicates ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {0: 1} or (len(self.terms) == 1 and self.terms.get(0) == 1)

    def is_integral(self) -> bool:
        """True iff all exponents of y are integers (doubled exponents even)."""
        return all(e % 2 == 0 for e in self.terms)

    def is_palindromic(self) -> bool:
        """Invariance under y -> 1/y."""
        return all(self.terms.get(-e) == c for e, c in self.terms.items())

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, YLaurent):
            other = YLaurent.const(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e)
            if s is None:
                t[e] = c
            else:
                s = s + c
                if s:
                    t[e] = s
                else:
                    del t[e]
        return YLaurent(t, _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        return YLaurent({e: -c for e, c in self.terms.items()}, _canonical=True)

    def __sub__(self, other):
        if not isinstance(other, YLaurent):
            other = YLaurent.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return YLaurent.const(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, YLaurent):
            c = QQ(other)
            if not c:
                return YL_ZERO
            return YLaurent({e: v * c for e, v in self.terms.items()}, _canonical=True)
        a, b = self.terms, other.terms
        if not a or not b:
            return YL_ZERO
        if len(a) > len(b):
            a, b = b, a
        t: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                s = t.get(e)
                if s is None:
                    t[e] = ca * cb
                else:
                    t[e] = s + ca * cb
        return YLaurent({e: c for e, c in t.items() if c}, _canonical=True)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers of YLaurent are not defined; use divexact")
        result = YL_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def divexact(self, other: "YLaurent") -> "YLaurent":
        """Exact division; raises ValueError when other does not divide self."""
        if other.is_zero():
            raise ZeroDivisionError("division of YLaurent by zero")
        if self.is_zero():
            return YL_ZERO
        # long division in the variable u = y^(1/2), highest exponent first
        lo_d = min(other.terms)
        hi_d = max(other.terms)
        rem = dict(self.terms)
        quot: dict = {}
        lead = other.terms[hi_d]
        qmin = min(rem) - lo_d  # an exact quotient cannot reach below this
        while rem:
            hi_r = max(rem)
            e = hi_r - hi_d
            if e < qmin:
                raise ValueError("YLaurent division is not exact")
            c = rem[hi_r] / lead
            quot[e] = c
            for ed, cd in other.terms.items():
                k = e + ed
                s = rem.get(k, 0) - c * cd
                if s:
                    rem[k] = s
                else:
                    rem.pop(k, None)
        return YLaurent(quot, _canonical=True)

    # -- specialization --------------------------------------------------

    def at_one(self):
        """Value at y = 1 (sum of coefficients)."""
        s = QQ(0)
        for c in self.terms.values():
            s += c
        return s

    def at_minus_one(self):
        """Value at y = -1; defined only for integral elements."""
        if not self.is_integral():
            raise ValueError("specialization at y = -1 needs integral exponents")
        s = QQ(0)
        for e, c in self.terms.items():
            s += c if (e // 2) % 2 == 0 else -c
        return s

    def mirror(self) -> "YLaurent":
        """Apply y -> 1/y."""
        return YLaurent({-e: c for e, c in self.terms.items()}, _canonical=True)

    def dy(self) -> "YLaurent":
        """The operator y d/dy (multiplies each y^(e/2) by e/2)."""
        return YLaurent(
            {e: c * QQ(e, 2) for e, c in self.terms.items() if e != 0}, _canonical=True
        )

    def scale(self, c) -> "YLaurent":
        return self * QQ(c)

    # -- structure ------------------------------------------------------

    def coeff(self, doubled_exp: int):
        return self.terms.get(doubled_exp, QQ(0))

    def min_exp(self) -> int:
        return min(self.terms)

    def max_exp(self) -> int:
        return max(self.terms)

    def __eq__(self, other):
        if isinstance(other, YLaurent):
            return self.terms == other.terms
        if isinstance(other, (int, type(QQ(0)))):
            return self.terms == ({0: QQ(other)} if other else {})
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(sorted(self.terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    # -- io ----------------------------------------------------------------

    def to_triples(self):
        """[numerator, denominator, doubled exponent] triples, exponent-sorted."""
        return [
            [str(c.numerator), str(c.denominator), e]
            for e, c in sorted(self.terms.items())
        ]

    @staticmethod
    def from_triples(triples) -> "YLaurent":
        return YLaurent(
            {int(e): QQ(int(num), int(den)) for num, den, e in triples}
        )

    def __repr__(self):
        return f"YLaurent({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items(), reverse=True):
            if e == 0:
                parts.append(str(c))
            else:
                p = "y" if e == 2 else ("y^(1/2)" if e == 1 else f"y^({e}/2)" if e % 2 else f"y^{e // 2}")
                if c == 1:
                    parts.append(p)
                elif c == -1:
                    parts.append(f"-{p}")
                else:
                    parts.append(f"{c}*{p}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


YL_ZERO = YLaurent({}, _canonical=True)
YL_ONE = YLaurent({0: QQ(1)}, _canonical=True)


def qnum(n: int) -> YLaurent:
    """Quantum number [n]_y = y^((n-1)/2) + y^((n-3)/2) + ... + y^(-(n-1)/2).

    [n]_y at y=1 is n; at y=-1 it is 0 for even n and (-1)^((n-1)/2) for odd n.
    """
    if n <= 0:
        raise ValueError(f"[n]_y requires n >= 1, got {n}")
    one = QQ(1)
    return YLaurent({e: one for e in range(-(n - 1), n, 2)}, _canonical=True)


def qnum_at(n: int, y: int) -> int:
    """Integer specialization of [n]_y at y = 1 or y = -1."""
    if y == 1:
        return n
    if y == -1:
        return 0 if n % 2 == 0 else (1 if ((n - 1) // 2) % 2 == 0 else -1)
    raise ValueError("qnum_at supports y = 1 and y = -1 only")


class YRing:
    """The values of refined counts: Laurent polynomials in y, or their
    evaluation at y = 1 (Severi degrees) or y = -1 (tropical Welschinger
    numbers). The engines need only zero, one, +, * and products of
    quantum numbers, so one code path serves all three rings.

    mode is the y of the recursion ('sym', 1, -1), name the count mode of
    the graph engines ('refined', 'severi', 'welschinger'); encode and
    decode convert values to and from cache payloads.
    """

    __slots__ = ("mode", "name", "zero", "one", "qnum", "encode", "decode",
                 "_prods")

    def __init__(self, mode, name, zero, one, qnum, encode, decode):
        self.mode = mode
        self.name = name
        self.zero = zero
        self.one = one
        self.qnum = qnum
        self.encode = encode
        self.decode = decode
        self._prods: dict = {}

    def qnum_prod(self, powers: tuple):
        """prod [i]_y ** e over the (i, e) pairs of powers; memoised."""
        hit = self._prods.get(powers)
        if hit is None:
            hit = self.one
            for i, e in powers:
                hit = hit * self.qnum(i) ** e
            self._prods[powers] = hit
        return hit

    def multiplicity(self, weights):
        """prod [w]_y ** 2 over the edge weights of a long edge graph or a
        floor diagram."""
        return self.qnum_prod(tuple((w, 2) for w in sorted(weights)))


RINGS = (
    YRing("sym", "refined", YL_ZERO, YL_ONE, qnum,
          lambda v: json.dumps(v.to_triples(), separators=(",", ":")),
          lambda p: YLaurent.from_triples(json.loads(p))),
    YRing(1, "severi", 0, 1, lambda n: qnum_at(n, 1), str, int),
    YRing(-1, "welschinger", 0, 1, lambda n: qnum_at(n, -1), str, int),
)


def ring_at(y) -> YRing:
    """The ring of the recursion at y = 'sym', 1 or -1."""
    for r in RINGS:
        if r.mode == y:
            return r
    raise ValueError("y must be 'sym', 1 or -1")


def ring_named(mode) -> YRing:
    """The ring of a graph-engine count mode: 'refined', 'severi' or
    'welschinger'."""
    for r in RINGS:
        if r.name == mode:
            return r
    raise ValueError(f"unknown mode {mode!r}")
