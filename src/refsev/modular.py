"""Named q-series: Eisenstein series, eta products, theta functions, the
refined discriminant and point series, singularity correction factors, and
the embedded universal-series tables.

All constructors take a truncation order K and return exact QSeries over
the YLaurent ring. The default K = 20 covers the embedded tables to q^17.
"""
from __future__ import annotations

import functools
from math import comb, factorial

from . import tables
from .qseries import QSeries
from .rationals import QQ
from .ylaurent import YLaurent, YL_ONE, YL_ZERO, qnum

__all__ = [
    "DEFAULT_TRUNC",
    "bernoulli",
    "eta",
    "euler_product",
    "eisenstein",
    "eisenstein_bar",
    "theta2_of_qsq",
    "theta2",
    "theta_y",
    "theta_y_product",
    "theta_unit",
    "dgtilde2",
    "ddgtilde2",
    "delta_tilde",
    "f_lower",
    "f_bar",
    "f_bar_closed",
    "fhat_cm",
    "fhat_cm_general",
    "h_series",
    "h_at",
    "b_series",
    "b_bar_series",
    "named_series",
    "SERIES_IDENTITIES",
]

DEFAULT_TRUNC = 20


# -- basics --------------------------------------------------------------------

@functools.cache
def bernoulli(n: int) -> QQ:
    """Bernoulli number B_n (B_1 = -1/2 convention), exact."""
    if n == 0:
        return QQ(1)
    if n == 1:
        return QQ(-1, 2)
    if n % 2 == 1:
        return QQ(0)
    return -sum(QQ(comb(n + 1, k)) * bernoulli(k) for k in range(n)) / QQ(n + 1)


def _divisors(n: int):
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return out


def _divisor_sum(K: int, term, c0=0) -> QSeries:
    """c0 + sum_{n>0} (sum_{d|n} term(n, d)) q^n mod q^K."""
    coeffs = [c0]
    for n in range(1, K):
        coeffs.append(sum(term(n, d) for d in _divisors(n)))
    return QSeries(coeffs, trunc=K)


def _lacunary(K: int, term, offset24: int = 0) -> QSeries:
    """sum_{n>=0} c q^e mod q^K (times q^(offset24/24)), where
    (e, c) = term(n) and e increases with n."""
    coeffs = [0] * K
    n = 0
    e, c = term(n)
    while e < K:
        coeffs[e] = c
        n += 1
        e, c = term(n)
    return QSeries(coeffs, trunc=K, offset24=offset24)


def _euler_type(K: int, poly, power: int = 1, out: QSeries | None = None) -> QSeries:
    """out * prod_{n>0} poly(q^n)^power mod q^K, where poly lists the
    coefficients of a polynomial; out defaults to 1."""
    out = QSeries.one(K) if out is None else out
    for n in range(1, K):
        fac = [YL_ZERO] * K
        for i, c in enumerate(poly):
            if i * n < K:
                fac[i * n] = c
        fac = QSeries(fac, trunc=K)
        for _ in range(power):
            out = fac * out  # __mul__ skips the sparse factor's zeros
    return out


def _pentagonal(n: int):
    """The n-th pentagonal term (k(3k-1)/2, (-1)^k), k = 0, 1, -1, 2, -2, ..."""
    k = (n + 1) // 2 * (-1) ** (n + 1)
    return k * (3 * k - 1) // 2, (-1) ** k


def euler_product(K: int) -> QSeries:
    """prod_{n>0} (1 - q^n) mod q^K by the pentagonal number theorem."""
    return _lacunary(K, _pentagonal)


def eta(K: int) -> QSeries:
    """Dirichlet eta: q^(1/24) prod (1 - q^n)."""
    return _lacunary(K, _pentagonal, offset24=1)


def _eisenstein_index(k2: int) -> None:
    if k2 < 2 or k2 % 2:
        raise ValueError("Eisenstein index must be a positive even integer")


def eisenstein(k2: int, K: int) -> QSeries:
    """G_{2k}: -B_{2k}/4k + sum_n sigma_{2k-1}(n) q^n (k2 = 2k)."""
    _eisenstein_index(k2)
    return _divisor_sum(K, lambda n, d: d ** (k2 - 1), -bernoulli(k2) / QQ(2 * k2))


def eisenstein_bar(k2: int, K: int) -> QSeries:
    """Gbar_{2k} = G_{2k}(q) - G_{2k}(q^2) = sum_{n/d odd} d^{2k-1} q^n."""
    _eisenstein_index(k2)
    return _divisor_sum(K, lambda n, d: d ** (k2 - 1) if (n // d) % 2 else 0)


# -- theta functions -------------------------------------------------------------


def theta2_of_qsq(K: int) -> QSeries:
    """theta_2(q^2) = sum_n (-1)^n q^(n^2) = eta(q)^2/eta(q^2)."""
    return _lacunary(K, lambda n: (n * n, 2 * (-1) ** n if n else 1))


def theta2(K: int) -> QSeries:
    """theta_2(q) = sum_n (-1)^n q^(n^2/2), on the half-integer lattice:
    theta_2(q^2) to order 2K, read with step24 = 12 (index k <-> q^(k/2)).
    Series operations need operands with the same step24, so it combines
    only with other step-12 series; every caller prints it as it is."""
    return QSeries(theta2_of_qsq(2 * K).coeffs, trunc=2 * K, step24=12)


def theta_y(K: int) -> QSeries:
    """theta(y,q) = sum_n (-1)^n q^((n+1/2)^2/2) y^(n+1/2): offset 1/8."""
    def term(n):
        sgn = (-1) ** n
        return n * (n + 1) // 2, YLaurent({2 * n + 1: sgn, -(2 * n + 1): -sgn})
    return _lacunary(K, term, offset24=3)


def theta_unit(K: int) -> QSeries:
    """prod (1-q^n)(1-y q^n)(1-q^n/y): theta stripped of q^(1/8)(y^(1/2)-y^(-1/2))."""
    u = YLaurent({2: 1, 0: 1, -2: 1})  # y + 1 + 1/y
    return _euler_type(K, [YL_ONE, -u, u, -YL_ONE])


def theta_y_product(K: int) -> QSeries:
    """The product form of theta(y,q); equals theta_y(K) identically."""
    s = QSeries([YLaurent({1: 1, -1: -1})], trunc=K, offset24=3)
    return s * theta_unit(K)


# -- refined series ----------------------------------------------------------------


def dgtilde2(K: int) -> QSeries:
    """sum_{n>=1} sum_{d|n} (n/d) [d]_y^2 q^n: the point-condition series."""
    return _divisor_sum(K, lambda n, d: (qnum(d) * qnum(d)).scale(n // d))


def ddgtilde2(K: int) -> QSeries:
    return dgtilde2(K).D()


def delta_tilde(K: int) -> QSeries:
    """q prod (1-q^n)^20 (1-yq^n)^2 (1-q^n/y)^2 = eta^18 theta^2/(y-2+1/y)."""
    # (1 - y q^n)(1 - q^n/y) = 1 - (y + 1/y) q^n + q^(2n), squared
    return _euler_type(K, [YL_ONE, YLaurent({2: -1, -2: -1}), YL_ONE], power=2,
                       out=euler_product(K).pow(20)).shift(1)


# -- A_1 correction factors ----------------------------------------------------------


def f_lower(l: int, K: int) -> QSeries:
    """f_l, the correction factor for multiplicity-l points at an A_1
    singularity: with l = 2k + h, (-1)^k/l! prod_(i<k) (D - (i + h/2)^2)
    applied to theta_2(q^2) (h = 0) or eta(q^2)^3 (h = 1)."""
    if l < 0:
        raise ValueError("f_l needs l >= 0")
    k, h = divmod(l, 2)
    out = eta(K).subs_qpow(2).pow(3) if h else theta2_of_qsq(K)
    for i in range(k):
        a = QQ(2 * i + h, 2)
        out = out.D() - out.scale(a * a)
    return out.scale(QQ((-1) ** k, factorial(l))).truncate(K)


def f_bar(l: int, K: int) -> QSeries:
    """fbar_l = f_l / q^(l^2/4); integer q-powers for every l."""
    f = f_lower(l, K + (l * l + 3) // 4)
    return QSeries(f.coeffs, lead=f.lead, trunc=f.trunc,
                   offset24=f.offset24 - 6 * l * l, step24=f.step24)


def f_bar_closed(l: int, K: int) -> QSeries:
    """Closed form: sum_m (-1)^m (2m+l)/(m+l) C(m+l,l) q^(m(m+l)), l >= 1."""
    if l < 1:
        raise ValueError("the closed form needs l >= 1")
    return _lacunary(K, lambda m: (m * (m + l),
                                   (-1) ** m * QQ(2 * m + l, m + l) * comb(m + l, l)))


# -- the 1/m(1,1) singularity factors ---------------------------------------------------


def fhat_cm(m: int, K: int) -> QSeries:
    """Correction factor for the 1/m(1,1) singular point of P(1,1,m).

    m = 2 is exactly theta_2(q^2); m = 3, 4 are table-backed to their
    trusted order; other m are unavailable beyond the generic q^3 part.
    """
    if m == 2:
        return theta2_of_qsq(K)
    if m in tables.FHAT_TRUSTED:
        trusted = tables.FHAT_TRUSTED[m]
        if K > trusted:
            raise ValueError(f"Fhat_c{m} is only trusted to q^{trusted - 1}")
        tab = tables.symmetric_table(f"Fhat_c{m}")
        return QSeries([tab.get(n, YL_ZERO) for n in range(K)], trunc=K)
    raise ValueError(f"no embedded table for Fhat_c{m}")


def fhat_cm_general(m: int, K: int = 4) -> QSeries:
    """The displayed low-order expansion valid for every m >= 2 (to q^3)."""
    if K > 4:
        raise ValueError("the general expansion is only stated to q^3")
    c2 = YLaurent({2: m - 2, 0: QQ(m * m + 3 * m - 10, 2), -2: m - 2})
    c3 = YLaurent({
        2: -(m * m + 5 * m - 14),
        0: -QQ(m ** 3 + 9 * m * m + 44 * m - 132, 6),
        -2: -(m * m + 5 * m - 14),
    })
    return QSeries([YL_ONE, YLaurent.const(-m), c2, c3][:K], trunc=K)


# -- multiple-point factors ---------------------------------------------------------


def _f1_series(K: int) -> QSeries:
    def term(n, d):
        nd = n // d
        coef = QQ(-(nd ** 3) + nd * n - nd, 2)
        return YLaurent({2 * d: coef, 0: -2 * coef, -2 * d: coef})
    return _divisor_sum(K, term)


def _f2_series(K: int) -> QSeries:
    # the proof's divisor sum: sum sgn(d)(m^2 - md/2) y^d q^(md)
    def term(n, d):
        nd = n // d
        coef = QQ(nd * nd) - QQ(n, 2)
        return YLaurent({2 * d: coef, -2 * d: -coef})
    return _divisor_sum(K, term)


def h_series(m: int, K: int) -> QSeries:
    """Refined correction factor H_m for an ordinary m-fold point;
    available for m = 1, 2."""
    if m == 1:
        return dgtilde2(K)
    if m == 2:
        s2 = YLaurent({2: 1, 0: -2, -2: 1})          # (y^(1/2)-y^(-1/2))^2
        yy = YLaurent({2: 1, -2: -1})                # y - 1/y
        den = s2 * s2 * yy
        f1 = _f1_series(K)
        f2 = _f2_series(K)
        num = f1 * yy + f2 * s2
        return num.map_coeffs(lambda c: c.divexact(den))
    raise ValueError("refined H_m is only on record for m = 1, 2")


# quasimodular expressions for H_m(1) and H_m(-1); term = (coeff, factors),
# factor = ("G", l, 2k) for D^l G_{2k}, ("Gbar", l, 2k), ("Delta", l)

_H_AT1 = {
    1: [(QQ(1), (("G", 1, 2),))],
    2: [
        (QQ(-1, 24), (("G", 1, 2),)),
        (QQ(1, 6), (("G", 2, 2),)),
        (QQ(-1, 8), (("G", 1, 4),)),
        (QQ(-1, 24), (("G", 3, 2),)),
        (QQ(1, 24), (("G", 2, 4),)),
    ],
    3: [
        (QQ(1, 90), (("G", 1, 2),)),
        (QQ(-1, 18), (("G", 2, 2),)),
        (QQ(1, 24), (("G", 1, 4),)),
        # source table has a minus sign; +13/288 is forced by the engine
        # data (overdetermined exact solve; q^1 coefficients must cancel)
        (QQ(13, 288), (("G", 3, 2),)),
        (QQ(-73, 1440), (("G", 2, 4),)),
        (QQ(1, 120), (("G", 1, 6),)),
        (QQ(-1, 144), (("G", 4, 2),)),
        (QQ(13, 1440), (("G", 3, 4),)),
        (QQ(-1, 480), (("G", 2, 6),)),
        (QQ(1, 2880), (("G", 5, 2),)),
        (QQ(-1, 2016), (("G", 4, 4),)),
        (QQ(1, 6912), (("G", 3, 6),)),
        (QQ(1, 241920), (("Delta", 0),)),
    ],
    4: [
        (QQ(-9, 1120), (("G", 1, 2),)),
        (QQ(7, 160), (("G", 2, 2),)),
        (QQ(-21, 640), (("G", 1, 4),)),
        (QQ(-1063, 23040), (("G", 3, 2),)),
        (QQ(1207, 23040), (("G", 2, 4),)),
        (QQ(-3, 320), (("G", 1, 6),)),
        (QQ(79, 5760), (("G", 4, 2),)),
        (QQ(-43, 2304), (("G", 3, 4),)),
        (QQ(149, 26880), (("G", 2, 6),)),
        (QQ(-1, 2688), (("G", 1, 8),)),
        (QQ(-91, 69120), (("G", 5, 2),)),
        (QQ(95, 48384), (("G", 4, 4),)),
        (QQ(-461, 645120), (("G", 3, 6),)),
        (QQ(101, 1451520), (("G", 2, 8),)),
        (QQ(-11, 5806080), (("Delta", 0),)),
        (QQ(1, 17280), (("G", 6, 2),)),
        (QQ(-89, 967680), (("G", 5, 4),)),
        (QQ(1, 25920), (("G", 4, 6),)),
        (QQ(-1, 207360), (("G", 3, 8),)),
        (QQ(1, 2903040), (("Delta", 1),)),
        (QQ(-1, 967680), (("G", 7, 2),)),
        (QQ(1, 580608), (("G", 6, 4),)),
        (QQ(-1, 1244160), (("G", 5, 6),)),
        # source table is ambiguous here (reads like D^4 G_4); D^4 G_8 is
        # the only weight-16 reading and is what the engine data confirms
        (QQ(1, 8211456), (("G", 4, 8),)),
        (QQ(-1, 84913920), (("Delta", 2),)),
        (QQ(1, 864864), (("Delta", 0), ("G", 0, 4))),
    ],
}

# the ambiguous monomial and its literal alternative, kept so the checkers
# can tell a transcription problem apart from a real failure
H4_AT1_AMBIGUOUS = (QQ(1, 8211456), (("G", 4, 8),))
H4_AT1_LITERAL = (QQ(1, 8211456), (("G", 4, 4),))

_H_ATM1 = {
    1: [(QQ(1), (("Gbar", 0, 2),))],
    2: [
        (QQ(1, 8), (("Gbar", 0, 2),)),
        (QQ(-1, 8), (("Gbar", 1, 2),)),
        (QQ(1, 8), (("Gbar", 0, 4),)),
        (QQ(-1, 8), (("G", 1, 2),)),
    ],
    3: [
        (QQ(1, 24), (("Gbar", 0, 2),)),
        (QQ(-1, 24), (("G", 1, 2),)),
        (QQ(7, 96), (("Gbar", 0, 4),)),
        (QQ(-7, 96), (("Gbar", 1, 2),)),
        (QQ(1, 2), (("Gbar", 0, 2), ("Gbar", 0, 2), ("Gbar", 0, 2))),
        (QQ(-1, 192), (("Gbar", 1, 4),)),
        (QQ(-5, 64), (("G", 0, 4), ("Gbar", 0, 2))),
        (QQ(1, 96), (("G", 2, 2),)),
        (QQ(-5, 1024), (("G", 1, 4),)),
    ],
    4: [
        (QQ(3, 128), (("Gbar", 0, 2),)),
        (QQ(-5, 192), (("G", 1, 2),)),
        (QQ(-67, 1536), (("Gbar", 1, 2),)),
        (QQ(67, 1536), (("Gbar", 0, 4),)),
        (QQ(35, 2304), (("G", 2, 2),)),
        (QQ(-247, 24576), (("G", 1, 4),)),
        (QQ(55, 144), (("Gbar", 0, 2), ("Gbar", 0, 2), ("Gbar", 0, 2))),
        (QQ(-55, 1536), (("G", 0, 4), ("Gbar", 0, 2))),
        (QQ(-11, 4608), (("Gbar", 1, 4),)),
        # source table has a plus sign; -1/192 is forced by the engine data
        (QQ(-1, 192), (("G", 3, 2),)),
        (QQ(25, 6144), (("G", 2, 4),)),
        (QQ(-7, 8192), (("G", 1, 6),)),
        (QQ(11, 8), (("Gbar", 0, 2),) * 4),
        (QQ(-13, 192), (("Gbar", 0, 2), ("G", 2, 2))),
        (QQ(35, 512), (("Gbar", 0, 2), ("G", 1, 4))),
        (QQ(-21, 1024), (("G", 0, 6), ("Gbar", 0, 2))),
        (QQ(1, 512), (("Gbar", 2, 4),)),
    ],
}


def _eval_factor(fac, K: int) -> QSeries:
    kind = fac[0]
    if kind == "G":
        _, l, k2 = fac
        s = eisenstein(k2, K)
    elif kind == "Gbar":
        _, l, k2 = fac
        s = eisenstein_bar(k2, K)
    elif kind == "Delta":
        l = fac[1]
        s = eta(K).pow(24)
    else:
        raise ValueError(f"unknown factor {fac!r}")
    for _ in range(l):
        s = s.D()
    return s


def h_at(m: int, y: int, K: int) -> QSeries:
    """The quasimodular expression for H_m(y) at y = 1 or y = -1, m <= 4."""
    table = _H_AT1 if y == 1 else (_H_ATM1 if y == -1 else None)
    if table is None:
        raise ValueError("y must be 1 or -1")
    if m not in table:
        raise ValueError(f"no quasimodular expression on record for H_{m}({y})")
    return quasimodular_sum(table[m], K)


def quasimodular_sum(terms, K: int) -> QSeries:
    """sum coeff * prod factors mod q^K over terms in the H tables' format."""
    acc = QSeries.zero(K)
    for coeff, facs in terms:
        prod = QSeries.one(K)
        for fac in facs:
            prod = prod * _eval_factor(fac, K)
        acc = acc + prod.scale(coeff)
    return acc


# -- embedded B tables -------------------------------------------------------------


def b_series(which: int, K: int) -> QSeries:
    """B_1 or B_2 from the embedded tables (trusted to q^17)."""
    if K > tables.B_TRUSTED:
        raise ValueError(f"B tables are only trusted to q^{tables.B_TRUSTED - 1}")
    if which == 1:
        tab = tables.symmetric_table("B1")
        return QSeries([tab[n] for n in range(K)], trunc=K)
    if which == 2:
        tab = tables.symmetric_table("B2_bracket")
        bracket = QSeries([tab[n] for n in range(K)], trunc=K)
        pref = QSeries([YL_ONE, YLaurent({2: -1, -2: -1}), YL_ONE][:K], trunc=K)
        return bracket / pref
    raise ValueError("which must be 1 or 2")


def b_bar_series(which: int, K: int) -> QSeries:
    """Bbar_1 or Bbar_2 (the y = -1 tables, trusted to q^30)."""
    if K > tables.BBAR_TRUSTED:
        raise ValueError(f"Bbar tables are only trusted to q^{tables.BBAR_TRUSTED - 1}")
    data = tables.B1BAR if which == 1 else tables.B2BAR
    return QSeries([YLaurent.const(x) for x in data[:K]], trunc=K)


# -- dispatcher ---------------------------------------------------------------------

# lower-cased name -> series(K)
_NAMED = {
    "eta": eta,
    "delta": lambda K: eta(K).pow(24),
    "theta2": theta2,
    "theta2ofqsquared": theta2_of_qsq,
    "dgtilde2": dgtilde2,
    "ddgtilde2": ddgtilde2,
    "deltatilde": delta_tilde,
    "thetay": theta_y,
    "b1": lambda K: b_series(1, K),
    "b2": lambda K: b_series(2, K),
    "b1bar": lambda K: b_bar_series(1, K),
    "b2bar": lambda K: b_bar_series(2, K),
    "f0": lambda K: dgtilde2(K) * QSeries([YLaurent({2: 1, 0: -2, -2: 1})], trunc=K),
    "f1": _f1_series,
    "f2": _f2_series,
}
# lower-cased name -> series(K, param), for the names that need a param
_NAMED_WITH_PARAM = {
    "g2k": lambda K, p: eisenstein(p, K),
    "gbar2k": lambda K, p: eisenstein_bar(p, K),
    "flower": lambda K, p: f_lower(p, K),
    "fbar": lambda K, p: f_bar(p, K),
    "fhatcm": lambda K, p: fhat_cm(p, K),
    "h": lambda K, p: h_series(p, K),
    "h_at1": lambda K, p: h_at(p, 1, K),
    "h_atminus1": lambda K, p: h_at(p, -1, K),
}


def named_series(name: str, K: int = DEFAULT_TRUNC, param: int | None = None) -> QSeries:
    """Construct a named series to truncation order K.

    Names: Eta, Delta, G2k, Gbar2k, Theta2, Theta2OfQSquared, DGtilde2,
    DDGtilde2, DeltaTilde, ThetaY, fLower, fBar, FhatCm, H, H_at1,
    H_atMinus1, B1, B2, B1bar, B2bar, F0, F1, F2. G2k/Gbar2k take the
    weight as param (2k); fLower/fBar the multiplicity l; FhatCm/H/H_at*
    the parameter m. ValueError for an order below 1, a missing param,
    and a param given to a name that takes none.
    """
    key = name.lower()
    if key not in _NAMED and key not in _NAMED_WITH_PARAM:
        raise ValueError(f"unknown series name {name!r}")
    if K < 1:
        raise ValueError(f"order must be >= 1, not {K}")
    if key in _NAMED_WITH_PARAM:
        if param is None:
            raise ValueError(f"series {name!r} needs a param")
        return _NAMED_WITH_PARAM[key](K, param)
    if param is not None:
        raise ValueError(f"series {name!r} takes no param")
    return _NAMED[key](K)


# -- identity checks ------------------------------------------------------------------
#
# Each checker takes the order K, fbar_closed_form also lmax and
# fhat_general_tables nothing, and returns (first difference or None, detail).


def _same(lhs, rhs):
    """The checker of lhs(K) == rhs(K)."""
    return lambda K: (lhs(K).first_difference(rhs(K)), "")


def _id_f0_theta(K):
    th = theta_y(K)
    lhs = named_series("F0", K) * th
    rhs = -(th.D()) - eisenstein(2, K).scale(3) * th
    return lhs.first_difference(rhs), ""


def _id_f1_theta(K):
    th = theta_y(K)
    dth = th.D()
    g2 = eisenstein(2, K)
    lhs = _f1_series(K) * th * th
    rhs = (dth * dth).scale(QQ(1, 2)) + (dth * th * g2).scale(3) \
        + (dth * th).scale(QQ(1, 2)) \
        + th * th * (eisenstein(4, K).scale(QQ(15, 8))
                     - eisenstein(2, K).D().scale(QQ(9, 4)) + g2.scale(QQ(3, 2)))
    return lhs.first_difference(rhs), ""


def _id_f2_theta(K):
    th = theta_y(K)
    dth = th.D()
    thp = th.dy()
    lhs = _f2_series(K) * th * th
    rhs = -(dth * thp).scale(QQ(1, 2)) - (thp.D() * th).scale(QQ(1, 6)) \
        - eisenstein(2, K) * thp * th * 2
    return lhs.first_difference(rhs), ""


def _id_fbar_closed_form(K, lmax):
    for l in range(1, lmax + 1):
        fb = f_bar(l, K)
        d = fb.first_difference(f_bar_closed(l, K))
        if d is not None:
            return d, f"l={l}"
        one = QSeries.one(min(K, l + 1))
        d = fb.truncate(l + 1).first_difference(one)
        if d is not None:
            return d, f"l={l} (fbar != 1 mod q^(l+1))"
    return None, ""


def _id_jacobi_triple(K):
    # eta(q^2)^3 = q^(1/4) sum_{n>=0} (-1)^n (2n+1) q^(n(n+1))
    lhs = eta(K).subs_qpow(2).pow(3)
    rhs = _lacunary(K, lambda n: (n * (n + 1), (-1) ** n * (2 * n + 1)), offset24=6)
    return lhs.first_difference(rhs), ""


def _id_b_minus1_tables(K):
    if K > tables.B_TRUSTED:
        raise ValueError(f"B_minus1_tables checks orders 1 to {tables.B_TRUSTED}, not {K}")
    for which in (1, 2):
        lhs = b_series(which, K).specialize_y(-1)
        d = lhs.first_difference(b_bar_series(which, K))
        if d is not None:
            return d, f"B{which}"
    return None, ""


def _id_fhat_general_tables():
    for m in (2, 3, 4):
        d = fhat_cm_general(m, 4).first_difference(fhat_cm(m, 4))
        if d is not None:
            return d, f"m={m}"
    return None, ""


# identity id -> checker; conjectures.CHECK_IDS lists them in this order
SERIES_IDENTITIES = {
    "F0_theta": _id_f0_theta,
    "F1_theta": _id_f1_theta,
    "F2_theta": _id_f2_theta,
    "fbar_closed_form": _id_fbar_closed_form,
    "eta_quotient_theta2": _same(lambda K: eta(K) * eta(K) / eta(K).subs_qpow(2),
                                 theta2_of_qsq),
    "Fhat_c2_is_theta2": _same(lambda K: fhat_cm(2, K), theta2_of_qsq),
    "jacobi_triple": _id_jacobi_triple,
    "theta_prod_sum": _same(theta_y, theta_y_product),
    "dgtilde2_minus1": _same(lambda K: dgtilde2(K).specialize_y(-1),
                             lambda K: eisenstein_bar(2, K)),
    "delta_tilde_minus1": _same(
        lambda K: delta_tilde(K).specialize_y(-1),
        lambda K: eta(K).pow(16) * eta(K).subs_qpow(2).pow(4)),
    "B_minus1_tables": _id_b_minus1_tables,
    "fhat_general_tables": _id_fhat_general_tables,
}
