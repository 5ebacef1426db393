"""Truncated Laurent series in q over the YLaurent ring.

A QSeries stores dense coefficients on an exponent lattice
    exponent(k) = (offset24 + k*step24) / 24,   lead <= k < trunc,
with a single global fractional prefactor per series (offset24), never
per-term fractional powers. Everything below `lead` is exactly zero; the
only knowledge boundary is `trunc`. step24 is 24 (integer q-powers) for all
but one construction (theta_2(q) needs half-integer steps).

Operands share one lattice: +, - and first_difference need equal
(offset24, step24), * and / equal step24 (their offsets add); anything else
raises ValueError. All operations are exact; truncations combine by the
min rule, shifted by leading orders under multiplication and division.

A result on its operand's lattice is built by one private constructor,
`_like`, on the operand's (offset24, step24) and by default its window:
map_coeffs (so -, scale, dy and specialize_y), D, truncate, shift, +, log
and exp. d/dq, on any lattice, is D().shift(-1).

The product, power, log and exp build each output coefficient by one
integer-weighted accumulation (ylaurent.sum_products) and one exact
division, never a YLaurent per term of the sum.
"""
from __future__ import annotations

import math

from .rationals import QQ
from .ylaurent import YLaurent, YL_ONE, YL_ZERO, sum_products

__all__ = ["QSeries", "compose", "compose_inverse"]


class TruncationError(ValueError):
    """Result would have no known coefficients."""


def _coerce_coeff(c) -> YLaurent:
    if isinstance(c, YLaurent):
        return c
    return YLaurent.const(c)


class QSeries:
    __slots__ = ("offset24", "step24", "lead", "trunc", "coeffs")

    def __init__(self, coeffs, lead=0, trunc=None, offset24=0, step24=24):
        coeffs = [_coerce_coeff(c) for c in coeffs]
        if trunc is None:
            trunc = lead + len(coeffs)
        if trunc - lead > len(coeffs):
            coeffs = coeffs + [YL_ZERO] * (trunc - lead - len(coeffs))
        elif trunc - lead < len(coeffs):
            raise ValueError("coeffs length exceeds the window [lead, trunc)")
        # canonical form: strip exactly-zero leading coefficients and keep
        # the fractional offset inside [0, step24)
        while coeffs and coeffs[0].is_zero():
            coeffs.pop(0)
            lead += 1
        if offset24 // step24:
            whole, offset24 = divmod(offset24, step24)
            lead += whole
            trunc += whole
        self.coeffs = coeffs
        self.lead = lead
        self.trunc = trunc
        self.offset24 = offset24
        self.step24 = step24

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(trunc: int, offset24: int = 0, step24: int = 24) -> "QSeries":
        return QSeries([], lead=trunc, trunc=trunc, offset24=offset24, step24=step24)

    @staticmethod
    def one(trunc: int) -> "QSeries":
        return QSeries.monomial(0, trunc=trunc)

    @staticmethod
    def monomial(k: int, coeff=1, trunc: int = None, offset24: int = 0) -> "QSeries":
        if trunc is None:
            trunc = k + 1
        return QSeries([coeff], lead=k, trunc=trunc, offset24=offset24)

    def _like(self, coeffs, lead=None, trunc=None) -> "QSeries":
        """coeffs on this series' lattice, on its window unless told otherwise."""
        return QSeries(coeffs, self.lead if lead is None else lead,
                       self.trunc if trunc is None else trunc, self.offset24, self.step24)

    # -- views --------------------------------------------------------------

    def exponent(self, k: int) -> QQ:
        """The q-exponent of lattice index k, as an exact rational."""
        return QQ(self.offset24 + k * self.step24, 24)

    def coeff_index(self, k: int) -> YLaurent:
        if k >= self.trunc:
            raise TruncationError(
                f"coefficient index {k} is beyond truncation {self.trunc}"
            )
        if k < self.lead:
            return YL_ZERO
        return self.coeffs[k - self.lead]

    def coeff_at(self, n) -> YLaurent:
        """Exact coefficient of q^n; zero off the lattice, error past trunc."""
        e24 = QQ(n) * 24
        num = e24 - self.offset24
        k, rem = divmod(int(num), self.step24) if num == int(num) else (None, 1)
        if k is None or rem != 0:
            # off the lattice: known-zero only below the truncation boundary
            if e24 >= self.offset24 + self.trunc * self.step24:
                raise TruncationError(f"q^{n} is beyond the truncation bound")
            return YL_ZERO
        return self.coeff_index(k)

    def known_length(self) -> int:
        return self.trunc - self.lead

    def is_known_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        """Exact equality of the stored data (same lattice, same window)."""
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.offset24 == other.offset24
            and self.step24 == other.step24
            and self.lead == other.lead
            and self.trunc == other.trunc
            and self.coeffs == other.coeffs
        )

    def first_difference(self, other: "QSeries"):
        """Earliest exponent where the two series disagree on the common
        known window, or None. Returns (exponent, coeff_self, coeff_other)."""
        _same_lattice(self, other, "first_difference")
        for k in range(min(self.lead, other.lead), min(self.trunc, other.trunc)):
            ca, cb = self.coeff_index(k), other.coeff_index(k)
            if ca != cb:
                return (self.exponent(k), ca, cb)
        return None

    def agrees_with(self, other: "QSeries") -> bool:
        return self.first_difference(other) is None

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QSeries):
            # the constant term, known past our own boundary
            other = QSeries([other], trunc=max(1, self.trunc + 1), step24=self.step24)
        _same_lattice(self, other, "+")
        lead = min(self.lead, other.lead)
        trunc = min(self.trunc, other.trunc)
        return self._like([self.coeff_index(k) + other.coeff_index(k)
                           for k in range(lead, trunc)], lead, trunc)

    __radd__ = __add__

    def __neg__(self):
        return self.map_coeffs(YLaurent.__neg__)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "QSeries":
        """Each coefficient times c, a YLaurent or an exact scalar."""
        return self.map_coeffs(lambda ci: ci * c)

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return self.scale(other)
        _same_lattice(self, other, "*", offsets=False)
        a, b = self.coeffs, other.coeffs
        # a known-zero operand has lead == trunc, so n = 0: O(q^(ta + lb))
        n = min(len(a), len(b))
        out = [sum_products([(a[i], 1, b[k - i]) for i in range(k + 1)])
               for k in range(n)]
        lead = self.lead + other.lead
        return QSeries(out, lead=lead, trunc=lead + n,
                       offset24=self.offset24 + other.offset24, step24=self.step24)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, QSeries):
            return self.scale(QQ(1) / QQ(other))
        if other.is_known_zero():
            raise ZeroDivisionError("division by a series with no nonzero known part")
        return self * other.pow(-1)

    def pow(self, r) -> "QSeries":
        """Raise to an exact rational power.

        Integer r works for any series with invertible leading coefficient.
        Fractional r needs leading coefficient 1 and the leading exponent
        times r must land back on the 1/24 lattice. With r = p/q and unit
        part u, the coefficients w of u^r satisfy
            m q u_0 w_m = sum_(1<=k<=m) (k p - (m - k) q) u_k w_(m-k).
        """
        r = QQ(r)
        if self.is_known_zero():
            if r < 0:
                raise ZeroDivisionError("negative power of known-zero series")
            if r == 0:
                return QSeries.one(1)
            return self._like([])
        if r == 0:
            return QSeries.one(self.known_length())
        e24_new = QQ(self.offset24 + self.lead * self.step24) * r
        if e24_new.denominator != 1:
            raise ValueError("fractional power leaves the 1/24 exponent lattice")
        n = self.known_length()
        u = self.coeffs  # unit part, u[0] != 0
        u0 = u[0]
        p, q = r.numerator, r.denominator
        out = [_pow_coeff(u0, r)]  # refuses a fractional r unless u0 = 1
        for m in range(1, n):
            s = sum_products([(u[k], k * p - (m - k) * q, out[m - k])
                              for k in range(1, m + 1)])
            out.append(_divide_coeff(s * QQ(1, m * q), u0))
        return QSeries(out, lead=0, trunc=n, offset24=e24_new.numerator,
                       step24=self.step24)

    def log(self) -> "QSeries":
        """Formal logarithm; requires constant term exactly 1. The k w_k
        (integral when u is) satisfy m w_m = m u_m - sum_(k<m) k w_k u_(m-k)."""
        if self.offset24 + self.lead * self.step24 != 0 or not self.coeffs or not self.coeffs[0].is_one():
            raise ValueError("log requires a series with constant term 1")
        n = self.known_length()
        u = self.coeffs
        out, d = [YL_ZERO], [YL_ZERO]
        for m in range(1, n):
            s = sum_products([(u[m], m, YL_ONE)]
                             + [(d[k], -1, u[m - k]) for k in range(1, m)])
            d.append(s)
            out.append(s * QQ(1, m))
        return self._like(out)

    def exp(self) -> "QSeries":
        """Formal exponential; requires constant term 0 and no lower terms.
        Its coefficients w satisfy m w_m = sum_(1<=k<=m) k a_k w_(m-k)."""
        if self.lead < 0 or self.offset24 != 0:
            raise ValueError("exp requires a power series (no negative exponents)")
        if self.lead == 0 and self.coeffs and not self.coeffs[0].is_zero():
            raise ValueError("exp requires constant term 0")
        n = self.trunc
        if n <= 0:
            raise TruncationError("exp has no known coefficients")
        a = [self.coeff_index(k) for k in range(n)]
        out = [YL_ONE]
        for m in range(1, n):
            s = sum_products([(a[k], k, out[m - k]) for k in range(1, m + 1)])
            out.append(s * QQ(1, m))
        return self._like(out, 0)

    # -- operators -----------------------------------------------------------

    def D(self) -> "QSeries":
        """q d/dq: multiplies each coefficient by its full exponent
        (including the offset24/24 part)."""
        return self._like([c.scale(self.exponent(k))
                           for k, c in enumerate(self.coeffs, self.lead)])

    def dy(self) -> "QSeries":
        """y d/dy applied to every coefficient."""
        return self.map_coeffs(YLaurent.dy)

    def subs_qpow(self, r: int) -> "QSeries":
        """Substitute q -> q^r for a positive integer r."""
        if r <= 0:
            raise ValueError("subs_qpow needs a positive integer power")
        if r == 1:
            return self
        trunc = (self.trunc - 1) * r + 1
        out = [YL_ZERO] * (r * len(self.coeffs) - r + 1)
        out[::r] = self.coeffs
        # a known zero (lead = trunc) stays one, on the same truncation
        return QSeries(out, lead=min(self.lead * r, trunc), trunc=trunc,
                       offset24=self.offset24 * r, step24=self.step24)

    def specialize_y(self, y) -> "QSeries":
        """Evaluate every coefficient at y = 1 or y = -1 (y^(1/2) = i); the
        identity at y = 'sym'."""
        if y == "sym":
            return self
        at = {1: YLaurent.at_one, -1: YLaurent.at_minus_one}.get(y)
        if at is None:
            raise ValueError("only y = 1 and y = -1 specializations are exact here")
        return self.map_coeffs(at)

    def truncate(self, new_trunc: int) -> "QSeries":
        if new_trunc >= self.trunc:
            return self
        lead = min(self.lead, new_trunc)  # O(q^new_trunc) at or below the lead
        return self._like(self.coeffs[: new_trunc - lead], lead, new_trunc)

    def shift(self, k: int) -> "QSeries":
        """Multiply by q^k (integer lattice steps)."""
        return self._like(self.coeffs, self.lead + k, self.trunc + k)

    def map_coeffs(self, f) -> "QSeries":
        return self._like([f(c) for c in self.coeffs])

    def is_palindromic(self) -> bool:
        return all(c.is_palindromic() for c in self.coeffs)

    # -- io --------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "offset24": self.offset24,
            "step24": self.step24,
            "lead": self.lead,
            "trunc": self.trunc,
            "coeffs": [c.to_triples() for c in self.coeffs],
        }

    @staticmethod
    def from_dict(d: dict) -> "QSeries":
        return QSeries(
            [YLaurent.from_triples(t) for t in d["coeffs"]],
            lead=d["lead"], trunc=d["trunc"],
            offset24=d["offset24"], step24=d.get("step24", 24),
        )

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coeffs[:8]):
            if c.is_zero():
                continue
            e = self.exponent(self.lead + i)
            parts.append(f"({c})q^{e}")
        tail = " + ..." if self.known_length() > 8 else ""
        body = " + ".join(parts) if parts else "0"
        return f"QSeries[{body}{tail}; trunc q^{self.exponent(self.trunc)}]"


# -- helpers ---------------------------------------------------------------


def _divide_coeff(num: YLaurent, den: YLaurent) -> YLaurent:
    return num if den.is_one() else num.divexact(den)


def _pow_coeff(c: YLaurent, r: QQ) -> YLaurent:
    if c.is_one():
        return YL_ONE
    if r.denominator != 1:
        raise ValueError("fractional power requires leading coefficient 1")
    ri = int(r)
    if ri >= 0:
        return c ** ri
    if len(c.terms) == 1:  # a monomial: the Laurent ring's units
        return YL_ONE.divexact(c) ** -ri
    raise ValueError("leading coefficient is not invertible in the Laurent ring")


def _same_lattice(a: QSeries, b: QSeries, op: str, offsets: bool = True):
    """Refuse operands of op on different exponent lattices: equal step24,
    and equal offset24 unless offsets add under op."""
    if a.step24 != b.step24 or (offsets and a.offset24 != b.offset24):
        raise ValueError(
            f"{op} needs operands on one exponent lattice, not (offset24, step24) = "
            f"({a.offset24}, {a.step24}) and ({b.offset24}, {b.step24})")


def compose(outer: QSeries, inner: QSeries) -> QSeries:
    """outer(inner) for a power series outer and inner = O(t), both with
    integer exponents; known to the lesser of their truncations.

    Horner from the top coefficient down: the partial sum that inner^k
    will still multiply is needed only below order n - k, and inner = O(t)
    needs it only below order n - k - 1. outer is taken times the common
    denominator of its coefficients, which is divided out once at the end,
    so an integral inner keeps every product on ints.
    """
    if inner.offset24 != 0 or inner.step24 != 24 or inner.lead < 1:
        raise ValueError("compose needs inner = O(t) with integer exponents")
    if outer.offset24 != 0 or outer.step24 != 24 or outer.lead < 0:
        raise ValueError("compose needs an integer-exponent power series outer")
    n = min(outer.trunc, inner.trunc)
    den = math.lcm(*(c.denominator for y in outer.coeffs for c in y.terms.values()))
    acc = QSeries.zero(n)
    for k in range(n - 1, -1, -1):
        acc = (acc.truncate(n - k - 1) * inner).truncate(n - k) \
            + outer.coeff_index(k) * den
    return acc if den == 1 else acc.scale(QQ(1, den))


def compose_inverse(a: QSeries) -> QSeries:
    """The compositional inverse g with a(g(t)) = t to truncation order.

    a must be t + O(t^2) on the integer lattice. Lagrange inversion:
    [t^k] g = (1/k) [t^(k-1)] (t/a)^k.
    """
    if a.offset24 != 0 or a.step24 != 24 or a.lead != 1 or not a.coeffs or not a.coeffs[0].is_one():
        raise ValueError("compositional inverse needs a = t + O(t^2)")
    h = a.shift(-1).pow(-1)  # t/a
    hk = QSeries.one(a.trunc)
    coeffs = []
    for k in range(1, a.trunc):
        hk = hk * h
        coeffs.append(hk.coeff_index(k - 1).scale(QQ(1, k)))
    return a._like(coeffs, 1)
