"""The generating-function identity in its three equivalent forms, and the
solver for the universal series B_1, B_2 from node-polynomial data.

The identity depends on (S, L) only through the invariants K^2, L.K,
chi(L) and chi(O), carried by `Invariants`; they enter as exponents:

  (1) sum_delta M^delta * P^delta = (P/q)^chi(L) B1^{K^2} B2^{LK}
        / (Dtilde * DP / q^2)^{chi(O)/2} * R,        P = the point series,
  (2) the same after substituting q = g(t), g the compositional inverse
        of P, so the t^delta coefficient is M^delta directly,
  (3) M^delta = Coeff_{q^{chi(L)-chi(O)}} [ P^{chi(L)-1-delta} B1^{K^2}
        B2^{LK} DP / (Dtilde*DP)^{chi(O)/2} * R ].

Forms (2) and (3) have one function each: `reform_eval` and
`reform_coefficient`. Form (2) is the workhorse: it needs the B tables
only to q-order delta, which is what makes every conjecture check feasible
with the embedded tables. Form (3) takes a rational point-series shift.
Form (1) runs on no check; it is the reference the other two are tested
against, and lives with the test oracles. Multiple-point checks pass
R = H_m together with a shift of the point-series exponent (equivalently
a Laurent R = H_m * P^{-shift}).
"""
from __future__ import annotations

import itertools
import math
from collections import namedtuple
from functools import lru_cache

from .caporaso import P2, Sigma, severi_degrees
from .linalg import solve_exact
from .modular import dgtilde2, delta_tilde
from .qseries import QSeries, compose, compose_inverse
from .rationals import QQ, check_int
from .ylaurent import YL_ZERO, ring_at

__all__ = ["Invariants", "reform_eval", "reform_coefficient", "in_regime",
           "solve_bundles", "engine_data", "solve_universal_B", "base_series"]


class Invariants(namedtuple("Invariants", "K2 LK chi_L chi_O", defaults=(1,))):
    """The intersection numbers K^2, L.K, chi(L) and chi(O) of (S, L);
    chi_O defaults to 1.

    chi_L may be rational only in so far as chi_L - chi_O stays a valid
    q-exponent; K2 may be rational (fractional powers of B_1 are fine since
    B_1 has constant term 1).
    """

    __slots__ = ()

    @property
    def qexp(self):
        """chi(L) - chi(O) = (L^2 - L.K)/2, the extraction exponent."""
        return self.chi_L - self.chi_O

    @staticmethod
    def of(bundle) -> "Invariants":
        """The invariants of a caporaso.SurfaceBundle: K^2 is 9 on P^2, 8 on
        Sigma_m and (m+2)^2/m on P(1,1,m); chi(L) = dim|L| + 1 and chi(O) = 1
        (rational surfaces)."""
        m, c, d, chi_L = bundle.m, bundle.c, bundle.d, bundle.dim_L + 1
        if bundle.family == "p2":
            return Invariants(K2=9, LK=-3 * d, chi_L=chi_L)
        K2 = 8 if bundle.family == "sigma" else QQ((m + 2) ** 2, m)
        return Invariants(K2=K2, LK=-(2 * c + (m + 2) * d), chi_L=chi_L)


@lru_cache(maxsize=32)
def base_series(K: int, y="sym"):
    """(P, DP, Dtilde) to order K at y: 'sym' is refined, 1 or -1 specializes."""
    dg = dgtilde2(K).specialize_y(y)
    return dg, dg.D(), delta_tilde(K).specialize_y(y)


@lru_cache(maxsize=32)
def _substitution(T: int, y="sym"):
    """The pieces of q = g(t) to order T, g the compositional inverse of
    the point series: (g, g/t, g g'/Dtilde(g)); the last two are known one
    order below g, as g' = dg/dt is."""
    dg, _, dt = base_series(T, y)
    g = compose_inverse(dg)
    core = (g * g.D().shift(-1)) / compose(dt, g)
    return g, g.shift(-1), core


def reform_eval(invs: list, B1: QSeries, B2: QSeries, order: int,
                R: QSeries | None = None, shift: int = 0, y="sym") -> list:
    """Form (2) for each of invs: the list of t-series whose
    coeff_at(delta + shift) is M^delta, valid for delta <= order. B_1, B_2
    and R (default 1) are composed with g once for all of them.

    `shift` lowers the point-series exponent (multiple-point checks).
    y = 1/-1 run the scalar specializations.
    """
    if not isinstance(shift, int):
        raise ValueError("form 2 needs an integer exponent shift; "
                         "reform_coefficient takes a rational one")
    # one extra order: g' = dg/dt is known one order below g
    g, g_over_t, core = _substitution(order + shift + 2, y)
    B1g, B2g = compose(B1, g), compose(B2, g)
    Rg = None if R is None else compose(R, g)
    out = []
    for inv in invs:
        s = g_over_t.pow(-inv.chi_L) * B1g.pow(inv.K2) * B2g.pow(inv.LK)
        s = s * core.pow(QQ(inv.chi_O, 2))
        out.append(s if Rg is None else s * Rg)
    return out


def reform_coefficient(inv: Invariants, B1: QSeries, B2: QSeries, delta: int,
                       R: QSeries | None = None, shift=0):
    """Form (3): the single refined YLaurent M^delta. shift lowers the
    point-series exponent and may be rational as long as exponents stay on
    the 1/24 lattice. R defaults to 1."""
    K = math.ceil(QQ(inv.qexp)) + 2
    dg, ddg, dt = base_series(K)
    F = dg.pow(inv.chi_L - 1 - delta - shift)
    F = F * B1.truncate(K).pow(inv.K2) * B2.truncate(K).pow(inv.LK)
    F = F * ddg * (dt * ddg).pow(QQ(-inv.chi_O, 2))
    if R is not None:
        F = F * R
    return F.coeff_at(inv.qexp)


def in_regime(bundle, delta: int, y="sym") -> bool:
    """Whether the identity holds for bundle at cogenus delta and y, by the
    rules measured against the recursion. P^2(d): delta <= 2d - 2 at 'sym'
    and y = 1 (Block's threshold), delta <= 3(d - 1) at y = -1, delta <= 2
    for every d >= 1 and delta = 0 for every d. P^1 x P^1 = Sigma_0(c, d):
    min(c, d) >= ceil(delta/2) at 'sym' and y = 1, ceil(delta/3) at y = -1,
    at or above every bound measured to delta = 14. A ValueError for any
    other bundle, a negative or non-int delta or a y other than 'sym', 1 and -1."""
    check_int("delta", delta)
    if delta < 0:
        raise ValueError(f"delta = {delta} is negative")
    k = 3 if ring_at(y).y == -1 else 2
    if bundle.family == "p2":
        return delta <= k * (bundle.d - 1) or delta <= (2 if bundle.d >= 1 else 0)
    if bundle.family == "sigma" and bundle.m == 0:
        return min(bundle.c, bundle.d) >= -(-delta // k)
    raise ValueError(f"no regime rule for {bundle}")


def solve_bundles(order: int, y="sym"):
    """The bundles solve-B takes its data from at the given order and y:
    P^2(p), Sigma_0(s, s) and P^2(p + 1), with p >= 2 and s >= 1 the
    smallest that keep every delta < order in_regime at y, but s + 1 where
    3s = 2p (only at (p, s) = (3, 2)): there the (K^2, L.K) of the first
    two, (9, -3p) and (8, -4s), are proportional. Any two bundles then fix
    B; the third overdetermines the solve, so data outside the regime
    raises instead of passing, as do a negative or non-int order and any other y."""
    check_int("order", order)
    if order < 0:
        raise ValueError(f"order = {order} is negative")
    ring_at(y)  # refuses any other y, also where no delta is asked
    def smallest(bundle, start):
        return next(n for n in itertools.count(start)
                    if all(in_regime(bundle(n), dl, y) for dl in range(order)))

    p, s = smallest(P2, 2), smallest(lambda n: Sigma(0, n, n), 1)
    if 3 * s == 2 * p:
        s += 1
    return P2(p), Sigma(0, s, s), P2(p + 1)


def engine_data(bundles, order: int, y, table):
    """The data solve_universal_B takes, from the recursion: per bundle
    (Invariants, {delta: degree at y}) for delta < order."""
    return [(Invariants.of(b),
             dict(enumerate(severi_degrees(b, order - 1, y=y, table=table))))
            for b in bundles]


def solve_universal_B(datasets, order: int, y="sym"):
    """Solve for B_1, B_2 mod q^order from node-polynomial data.

    datasets: iterable of (Invariants, {delta: M^delta}) for delta < order,
    with M^0 = 1 and at least two (K2, LK) pairs of full rank; values are
    YLaurent (y = 'sym') or ints (y = 1/-1). The logarithm of form (2) is
    linear in the unknowns: with M(t) = sum_delta M^delta t^delta,

      log M + chi(L) log(g/t) - chi(O)/2 log(g g'/Dtilde(g)) = K2 u + LK v,

    u = log(B_1)(g), v = log(B_2)(g). The B-independent left side is built
    once; each t^n coefficient is one exact solve over all bundles, so a
    third bundle makes inconsistent data raise. Then B_j = exp(u(P)) and
    exp(v(P)), and every datum is fed back through form (2).
    """
    datasets = list(datasets)
    if len(datasets) < 2:
        raise ValueError("need at least two bundles to separate B_1 and B_2")
    for inv, vals in datasets:
        for n in range(order):
            if n not in vals:
                raise ValueError(f"dataset lacks the delta = {n} value")
        if vals[0] != 1:
            raise ValueError(f"M^0 = {vals[0]}, not 1, at {inv}")
    T = order + 1
    _, g_over_t, core = _substitution(T, y)
    log_g_over_t, log_core = g_over_t.log(), core.log()
    lhs = [QSeries([vals[n] for n in range(order)]).log()
           + log_g_over_t.scale(QQ(inv.chi_L)) - log_core.scale(QQ(inv.chi_O, 2))
           for inv, vals in datasets]
    A = [[QQ(inv.K2), QQ(inv.LK)] for inv, _ in datasets]
    u, v = [YL_ZERO], [YL_ZERO]
    for n in range(1, order):
        un, vn = solve_exact(A, [s.coeff_index(n) for s in lhs])
        u.append(un)
        v.append(vn)
    P = base_series(T, y)[0]
    B1, B2 = (compose(QSeries(w), P).exp() for w in (u, v))
    # feeding the solution back must reproduce every datum
    fed_back = reform_eval([inv for inv, _ in datasets], B1, B2, order - 1, y=y)
    for (inv, vals), S in zip(datasets, fed_back):
        for d, val in vals.items():
            if d < order and S.coeff_at(d) != val:
                raise ValueError(
                    f"inconsistent data: delta={d} residual at {inv}"
                )
    return B1, B2
