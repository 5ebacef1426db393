"""Exact Laurent polynomials in y^(1/2) over the rationals.

Exponents are stored doubled (an int k stands for y^(k/2)), so half-integer
powers such as the quantum number [2]_y = y^(1/2) + y^(-1/2) are exact.
Coefficients are exact rationals, stored as int when integral and as Fraction
otherwise, so the engines, whose values are integral, compute on plain ints;
every division of coefficients goes through QQ, never int / int. Zero
coefficients are never stored.

YRing is where refined counts take their values: the Laurent polynomials
themselves (y = 'sym'), or their images on plain ints under evaluation at
y = 1 and y = -1. Evaluation at y = -1 sets y^(1/2) = i, so [n]_{-1} is 0
for even n; it is defined where the value is real, which holds for every
palindromic element and so for every refined count.
"""
from __future__ import annotations

import functools
import json

from .rationals import QQ, check_int, choose

__all__ = ["YLaurent", "qnum", "YL_ZERO", "YL_ONE", "sum_products", "YRing",
           "RINGS", "ring_at"]


def _exact(c):
    """c as an int when it is an integral rational, else as a Fraction."""
    q = QQ(c)
    return q.numerator if q.denominator == 1 else q


class YLaurent:
    """A Laurent polynomial in y^(1/2) with rational coefficients.

    terms: dict mapping doubled exponent -> nonzero int or Fraction coefficient.
    Instances are treated as immutable; all operations return new objects.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None, _canonical=False):
        if terms is None:
            self.terms = {}
        elif _canonical:
            self.terms = terms
        else:
            self.terms = {int(e): _exact(c) for e, c in dict(terms).items() if c != 0}

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c) -> "YLaurent":
        c = _exact(c)
        return YLaurent({0: c} if c != 0 else {}, _canonical=True)

    @staticmethod
    def y_pow(doubled_exp: int, coeff=1) -> "YLaurent":
        c = _exact(coeff)
        return YLaurent({int(doubled_exp): c} if c != 0 else {}, _canonical=True)

    # -- basic predicates ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {0: 1}

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
                if not s:
                    del t[e]
                elif type(s) is int or s.denominator != 1:
                    t[e] = s
                else:  # two Fractions summing to an integer
                    t[e] = s.numerator
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
            if type(other) is int:
                # int * int stays an int; only Fraction products can turn
                # integral and need normalising
                if not other:
                    return YL_ZERO
                return YLaurent({e: v * other if type(v) is int else _exact(v * other)
                                 for e, v in self.terms.items()}, _canonical=True)
            c = _exact(other)
            if not c:
                return YL_ZERO
            return YLaurent({e: v * c for e, v in self.terms.items()})
        return sum_products(((self, 1, other),))

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
            c = _exact(QQ(rem[hi_r]) / lead)
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
        s = 0
        for c in self.terms.values():
            s += c
        return s

    def at_minus_one(self):
        """Value at y = -1, taken at y^(1/2) = i (so y^(e/2) -> i^e); raises
        ValueError when that value is not real."""
        real = imag = 0
        for e, c in self.terms.items():
            if e % 2:
                imag += c if e % 4 == 1 else -c
            else:
                real += c if e % 4 == 0 else -c
        if imag:
            raise ValueError(f"{self} is not real at y^(1/2) = i")
        return real

    def mirror(self) -> "YLaurent":
        """Apply y -> 1/y."""
        return YLaurent({-e: c for e, c in self.terms.items()}, _canonical=True)

    def dy(self) -> "YLaurent":
        """The operator y d/dy (multiplies each y^(e/2) by e/2)."""
        return YLaurent({e: c * QQ(e, 2) for e, c in self.terms.items() if e})

    def scale(self, c) -> "YLaurent":
        return self * c

    # -- structure ------------------------------------------------------

    def coeff(self, doubled_exp: int):
        return self.terms.get(doubled_exp, 0)

    def __eq__(self, other):
        if isinstance(other, YLaurent):
            return self.terms == other.terms
        if isinstance(other, (int, QQ)):
            return self.terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

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
YL_ONE = YLaurent({0: 1}, _canonical=True)


def sum_products(triples) -> YLaurent:
    """sum f * c * v over (f, c, v) triples, f and v YLaurent and c an int,
    accumulated in one term dict; integral coefficients come out as ints."""
    t: dict = {}
    get = t.get
    for f, c, v in triples:
        for ef, cf in f.terms.items():
            k = cf * c
            for ev, cv in v.terms.items():
                e = ef + ev
                t[e] = get(e, 0) + k * cv
    return YLaurent({e: s if type(s) is int else _exact(s)
                     for e, s in t.items() if s}, _canonical=True)


def qnum(n: int) -> YLaurent:
    """Quantum number [n]_y = y^((n-1)/2) + y^((n-3)/2) + ... + y^(-(n-1)/2).

    [n]_y at y=1 is n; at y=-1 (y^(1/2) = i) it is 0 for even n and
    (-1)^((n-1)/2) for odd n.
    """
    check_int("n", n, 1)
    return YLaurent({e: 1 for e in range(-(n - 1), n, 2)}, _canonical=True)


class YRing:
    """The values of refined counts: Laurent polynomials in y, or their
    images under evaluation at y = 1 (Severi degrees) or y = -1 (tropical
    Welschinger numbers). The engines need only zero, one, +, * and products
    of quantum numbers, so one code path serves all three rings.

    y is the y of the ring ('sym', 1, -1); at maps a Laurent polynomial
    into the ring, and zero, one and [n]_y are the images of YL_ZERO, YL_ONE
    and qnum(n); sum_products(triples) is the sum of f * c * v over (f, c, v)
    triples, c an int; encode and decode convert values to and from cache
    payloads.
    """

    __slots__ = ("y", "at", "zero", "one", "sum_products", "encode", "decode")

    def __init__(self, y, at, sum_products, encode, decode):
        self.y = y
        self.at = at
        self.zero = at(YL_ZERO)
        self.one = at(YL_ONE)
        self.sum_products = sum_products
        self.encode = encode
        self.decode = decode

    @functools.cache
    def qnum_prod(self, powers: tuple):
        """prod [i]_y ** e over the (i, e) pairs of powers; memoised."""
        out = self.one
        for i, e in powers:
            out = out * self.at(qnum(i)) ** e
        return out

    def multiplicity(self, weights):
        """prod [w]_y ** 2 over the edge weights of a long edge graph: one
        power per distinct weight, none for [1]_y = 1."""
        ws = sorted(weights)
        return self.qnum_prod(tuple((w, 2 * ws.count(w)) for w in dict.fromkeys(ws) if w != 1))


def _integer_ring(y, at) -> YRing:
    """The image of the Laurent ring under the evaluation `at`, on ints."""
    def to_int(v) -> int:
        q = at(v)
        if q.denominator != 1:
            raise ValueError(f"{v} has no integer value at y = {y}")
        return q.numerator
    return YRing(y, to_int, lambda triples: sum(f * c * v for f, c, v in triples),
                 str, int)


RINGS = {r.y: r for r in (
    YRing("sym", lambda v: v, sum_products,
          lambda v: json.dumps(v.to_triples(), separators=(",", ":")),
          lambda p: YLaurent.from_triples(json.loads(p))),
    _integer_ring(1, YLaurent.at_one),
    _integer_ring(-1, YLaurent.at_minus_one),
)}


def ring_at(y) -> YRing:
    """The ring of values at y = 'sym', 1 or -1."""
    return choose("y", y, RINGS)
