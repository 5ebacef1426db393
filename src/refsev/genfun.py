"""The generating-function identity in its three equivalent forms, and the
order-by-order solver for the universal series B_1, B_2.

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

from .caporaso import severi_degree
from .linalg import solve_exact
from .modular import dgtilde2, delta_tilde
from .qseries import QSeries, compose, compose_inverse
from .rationals import QQ
from .ylaurent import YLaurent, YL_ZERO

__all__ = ["Invariants", "reform_eval", "engine_data", "solve_universal_B", "base_series"]


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
def _inverse_point_series(T: int, y="sym") -> QSeries:
    dg, _, _ = base_series(T, y)
    return compose_inverse(dg)


def reform_eval(inv: Invariants, B1: QSeries, B2: QSeries, form: int,
                order: int, R: QSeries | None = None, shift=0, y="sym"):
    """Evaluate the chosen form of the generating identity.

    form 1 -> the q-series RHS mod q^order;
    form 2 -> the t-series whose coeff_at(delta + shift) is M^delta,
              valid for delta + shift < order;
    form 3 -> the single YLaurent M^delta with delta = order.

    `shift` lowers the point-series exponent (multiple-point checks);
    it may be rational as long as exponents stay on the 1/24 lattice.
    R defaults to 1. y = 1/-1 run the scalar specializations.
    """
    if form == 2:
        if not isinstance(shift, int):
            raise ValueError("form 2 needs an integer exponent shift")
        # one extra order: g' = dg/dt is known one order below g
        T = order + shift + 2
        g = _inverse_point_series(T, y)
        gp = g.tderiv()
        _, _, dt = base_series(T, y)
        g_over_t = QSeries(list(g.coeffs), lead=0, trunc=T - 1)
        s = g_over_t.pow(-inv.chi_L)
        s = s * compose(B1.truncate(T), g).pow(inv.K2)
        s = s * compose(B2.truncate(T), g).pow(inv.LK)
        core = (g * gp) / compose(dt, g)
        s = s * core.pow(QQ(inv.chi_O, 2))
        if R is not None:
            s = s * compose(R, g)
        return s
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


def engine_data(bundles, order: int, y, table):
    """The data solve_universal_B takes, from the recursion: per bundle
    (Invariants, {delta: degree at y}) for delta < order."""
    return [(Invariants.of(b),
             {dl: severi_degree(b, dl, y=y, table=table) for dl in range(order)})
            for b in bundles]


def solve_universal_B(datasets, order: int, y="sym"):
    """Solve for B_1, B_2 mod q^order from node-polynomial data.

    datasets: iterable of (Invariants, {delta: M^delta}) with at least two
    (K2, LK) pairs of full rank; values are YLaurent (y = 'sym') or ints
    (y = 1/-1). Solves order by order through form (2): at q-order n the
    unknown coefficients (b1_n, b2_n) enter the t^n coefficient affinely
    as K2*b1_n + LK*b2_n. Overdetermined data must be consistent.
    """
    datasets = list(datasets)
    if len(datasets) < 2:
        raise ValueError("need at least two bundles to separate B_1 and B_2")
    b1 = [YLaurent.const(1)]
    b2 = [YLaurent.const(1)]
    for n in range(1, order):
        A = []
        rhs = []
        for inv, vals in datasets:
            if n not in vals:
                raise ValueError(f"dataset lacks the delta = {n} value")
            # pad the known B's with an exact-zero q^n slot so the product
            # machinery exposes the t^n coefficient of the known part
            B1t = QSeries(b1 + [YL_ZERO], trunc=n + 1)
            B2t = QSeries(b2 + [YL_ZERO], trunc=n + 1)
            S = reform_eval(inv, B1t, B2t, form=2, order=n, y=y)
            known = S.coeff_at(n)
            A.append([QQ(inv.K2), QQ(inv.LK)])
            rhs.append(vals[n] - known)
        sol = solve_exact(A, rhs)
        b1.append(sol[0])
        b2.append(sol[1])
    B1 = QSeries(b1, trunc=order)
    B2 = QSeries(b2, trunc=order)
    # idempotence: feeding the solution back must reproduce every datum
    for inv, vals in datasets:
        S = reform_eval(inv, B1, B2, form=2, order=order - 1, y=y)
        for d, v in vals.items():
            if d < order and S.coeff_at(d) != v:
                raise ValueError(
                    f"inconsistent data: delta={d} residual at {inv}"
                )
    return B1, B2
