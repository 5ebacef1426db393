"""The generating-function identity in its three equivalent forms, and the
solver for the universal series B_1, B_2 from node-polynomial data.

Invariants of the pair (surface, bundle) enter as exponents:

  (1) sum_delta M^delta * P^delta = (P/q)^chi(L) B1^{K^2} B2^{LK}
        / (Dtilde * DP / q^2)^{chi(O)/2} * R,        P = the point series,
  (2) the same after substituting q = g(t), g the compositional inverse
        of P, so the t^delta coefficient is M^delta directly,
  (3) M^delta = Coeff_{q^{chi(L)-chi(O)}} [ P^{chi(L)-1-delta} B1^{K^2}
        B2^{LK} DP / (Dtilde*DP)^{chi(O)/2} * R ].

Form (2) is the workhorse: it needs the B tables only to q-order delta,
which is what makes every conjecture check feasible with the embedded
tables. Multiple-point checks pass R = H_m together with a shift of the
point-series exponent (equivalently a Laurent R = H_m * P^{-shift}).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .caporaso import P2, Sigma, severi_degree
from .linalg import solve_exact
from .modular import dgtilde2, delta_tilde
from .qseries import QSeries, compose, compose_inverse
from .rationals import QQ
from .ylaurent import YL_ZERO

__all__ = ["Invariants", "reform_eval", "solve_bundles", "engine_data",
           "solve_universal_B", "base_series"]


@dataclass(frozen=True)
class Invariants:
    """The intersection numbers a reform evaluation needs.

    chi_L may be rational only in so far as chi_L - chi_O stays a valid
    q-exponent; K2 may be rational (fractional powers of B_1 are fine since
    B_1 has constant term 1).
    """

    K2: object
    LK: int
    chi_L: object
    chi_O: int = 1

    @property
    def qexp(self):
        return self.chi_L - self.chi_O

    @staticmethod
    def of(bundle) -> "Invariants":
        return Invariants(K2=bundle.K2, LK=bundle.LK, chi_L=bundle.chi_L,
                          chi_O=bundle.chi_O)


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
    core = (g * g.tderiv()) / compose(dt, g)
    return g, QSeries(list(g.coeffs), lead=0, trunc=T - 1), core


def reform_eval(inv: Invariants | list, B1: QSeries, B2: QSeries, form: int,
                order: int, R: QSeries | None = None, shift=0, y="sym"):
    """Evaluate the chosen form of the generating identity.

    form 1 -> the q-series RHS mod q^order;
    form 2 -> the t-series whose coeff_at(delta + shift) is M^delta,
              valid for delta <= order; given a list of Invariants, the
              list of their t-series, composing B_1, B_2 and R with g once;
    form 3 -> the single YLaurent M^delta with delta = order.

    `shift` lowers the point-series exponent (multiple-point checks);
    it may be rational as long as exponents stay on the 1/24 lattice.
    R defaults to 1. y = 1/-1 run the scalar specializations.
    """
    if form == 2:
        if not isinstance(shift, int):
            raise ValueError("form 2 needs an integer exponent shift")
        # one extra order: g' = dg/dt is known one order below g
        g, g_over_t, core = _substitution(order + shift + 2, y)
        B1g, B2g = compose(B1, g), compose(B2, g)
        Rg = None if R is None else compose(R, g)

        def series(inv):
            s = g_over_t.pow(-inv.chi_L)
            s = s * B1g.pow(inv.K2)
            s = s * B2g.pow(inv.LK)
            s = s * core.pow(QQ(inv.chi_O, 2))
            return s if Rg is None else s * Rg

        if isinstance(inv, Invariants):
            return series(inv)
        return [series(i) for i in inv]
    if form in (1, 3):
        delta = order if form == 3 else None
        K = (
            _ceil_exp(inv.qexp) + 2
            if form == 3
            else order
        )
        dg, ddg, dt = base_series(K, y)
        if form == 1:
            F = (dg.shift(-1)).pow(inv.chi_L)
            F = F * B1.truncate(K).pow(inv.K2) * B2.truncate(K).pow(inv.LK)
            F = F * (dt * ddg).shift(-2).pow(QQ(-inv.chi_O, 2))
            if shift:
                F = F * dg.pow(-shift)
            if R is not None:
                F = F * R
            return F.truncate(order)
        e = inv.chi_L - 1 - delta - shift
        F = dg.pow(e)
        F = F * B1.truncate(K).pow(inv.K2) * B2.truncate(K).pow(inv.LK)
        F = F * ddg * (dt * ddg).pow(QQ(-inv.chi_O, 2))
        if R is not None:
            F = F * R
        return F.coeff_at(inv.qexp)
    raise ValueError("form must be 1, 2 or 3")


def _ceil_exp(x) -> int:
    q = QQ(x)
    return -int((-q.numerator) // q.denominator)


def solve_bundles(order: int):
    """The bundles solve-B takes its data from at the given order:
    P^2(d0), Sigma_0(d0, d0) and P^2(d0 + 1), with d0 = max(order // 2 + 1,
    2) the smallest degree whose Goettsche threshold delta <= 2 d0 - 2
    covers every delta < order. Two bundles fix B; the third overdetermines
    the solve, so data outside the regime raises instead of passing."""
    d0 = max(order // 2 + 1, 2)
    return P2(d0), Sigma(0, d0, d0), P2(d0 + 1)


def engine_data(bundles, order: int, y, table):
    """The data solve_universal_B takes, from the recursion: per bundle
    (Invariants, {delta: degree at y}) for delta < order."""
    return [(Invariants.of(b),
             {dl: severi_degree(b, dl, y=y, table=table) for dl in range(order)})
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
    fed_back = reform_eval([inv for inv, _ in datasets], B1, B2, form=2,
                           order=order - 1, y=y)
    for (inv, vals), S in zip(datasets, fed_back):
        for d, val in vals.items():
            if d < order and S.coeff_at(d) != val:
                raise ValueError(
                    f"inconsistent data: delta={d} residual at {inv}"
                )
    return B1, B2
