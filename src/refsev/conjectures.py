"""Conjecture and identity checkers over computable parameter ranges.

Every check compares an engine-computed degree (recursion or graph count)
against a generating-function evaluation, coefficient by coefficient.
Passes are exact; a failure reports the earliest discrepancy (delta,
q-power, doubled y-exponent) so table-typo triage is possible.
"""
from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field

from . import modular
from .caporaso import CHTable, P2, Sigma, severi_degree
from .genfun import Invariants, reform_eval, solve_universal_B
from .graphs import refined_count, s_beta
from .nodepoly import fit_node_polynomial, node_values
from .rationals import QQ
from .ylaurent import YLaurent

__all__ = ["ConjectureReport", "check_conjecture", "CHECK_IDS"]


@dataclass
class ConjectureReport:
    conj_id: str
    params: dict
    instances: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def record(self, params: dict, ok: bool, detail: str = ""):
        self.instances.append((params, "pass" if ok else "fail", detail))

    def skip(self, params: dict, reason: str):
        self.instances.append((params, "skip", reason))

    @property
    def ok(self) -> bool:
        return all(v != "fail" for _, v, _ in self.instances)

    @property
    def counts(self):
        c = {"pass": 0, "fail": 0, "skip": 0}
        for _, v, _ in self.instances:
            c[v] += 1
        return c

    def summary(self) -> str:
        c = self.counts
        head = (
            f"[{'PASS' if self.ok else 'FAIL'}] {self.conj_id}: "
            f"{c['pass']} pass, {c['fail']} fail, {c['skip']} skip"
        )
        lines = [head]
        for p, v, detail in self.instances:
            if v != "pass":
                lines.append(f"    {v.upper()} {p} {detail}")
        for n in self.notes:
            lines.append(f"    note: {n}")
        return "\n".join(lines)


def _yl_diff(a: YLaurent, b: YLaurent):
    d = a - b
    if d.is_zero():
        return None
    e = min(d.terms)
    return (e, a.coeff(e), b.coeff(e))


def _compare(report, params, lhs: YLaurent, rhs: YLaurent, delta):
    diff = _yl_diff(lhs, rhs)
    if diff is None:
        report.record(params, True)
    else:
        e, va, vb = diff
        report.record(
            params, False,
            f"first discrepancy at (delta={delta}, y-exp {e}/2): "
            f"engine {va} vs genfun {vb}",
        )


def _b_tables(K: int, y="sym"):
    if y == -1:
        return modular.b_bar_series(1, K), modular.b_bar_series(2, K)
    return (modular.b_series(1, K).specialize_y(y),
            modular.b_series(2, K).specialize_y(y))


# -- individual checks ---------------------------------------------------------


def _check_refpol(table, delta_max=4, d_max=8) -> ConjectureReport:
    """Refined node polynomials of P^2 from the generating identity with the
    embedded B tables equal the fitted ones and the engine degrees."""
    rep = ConjectureReport("refpol", {"delta_max": delta_max, "d_max": d_max})
    fits = {dl: fit_node_polynomial("p2", dl) for dl in range(1, delta_max + 1)}
    B1, B2 = _b_tables(delta_max + 2)
    for d in range(1, d_max + 1):
        inv = Invariants.of(P2(d))
        S = reform_eval(inv, B1, B2, form=2, order=delta_max)
        nv = node_values(fits, delta_max, m=1, d=d)
        for delta in range(delta_max + 1):
            if d < delta:
                rep.skip({"d": d, "delta": delta}, "outside the polynomial regime")
                continue
            gen = S.coeff_at(delta)
            _compare(rep, {"d": d, "delta": delta, "side": "fit"},
                     nv[delta], gen, delta)
            eng = severi_degree(P2(d), delta, table=table)
            _compare(rep, {"d": d, "delta": delta, "side": "engine"},
                     eng, gen, delta)
    return rep


def _check_gsp_sigma_w(table, delta_max=8, d_max=10) -> ConjectureReport:
    """The Welschinger generating identity on P^2 with the Bbar tables."""
    rep = ConjectureReport("GSPSigmaW", {"delta_max": delta_max, "d_max": d_max})
    B1, B2 = _b_tables(delta_max + 2, y=-1)
    for d in range(2, d_max + 1):
        inv = Invariants.of(P2(d))
        S = reform_eval(inv, B1, B2, form=2, order=delta_max, y=-1)
        for delta in range(delta_max + 1):
            if delta > 3 * (d - 1):
                rep.skip({"d": d, "delta": delta}, "d < delta/3 + 1")
                continue
            w = severi_degree(P2(d), delta, y=-1, table=table)
            _compare(rep, {"d": d, "delta": delta},
                     YLaurent.const(w), S.coeff_at(delta), delta)
    return rep


_RULED_DELTA = {2: 5, 3: 4, 4: 3}  # table-limited scaled-down bounds


def _check_ruledblow(table, ms=(2, 3, 4), d_max=4, eta_route=False) -> ConjectureReport:
    """N^{(Sigma_m,dH),delta} against the singular-surface identity with the
    1/m(1,1) correction factor Fhat_{c_m}."""
    rep = ConjectureReport(
        "conjan_P112" if eta_route else "ruledblow",
        {"ms": list(ms), "d_max": d_max},
    )
    for m in ms:
        delta_m = _RULED_DELTA[m]
        K = delta_m + 2
        B1, B2 = _b_tables(K)
        if eta_route:
            e = modular.eta(K)
            R = e * e / e.subs_qpow(2)
        else:
            R = modular.fhat_cm(m, min(K, modular.tables.FHAT_TRUSTED.get(m, K)))
        for d in range(1, d_max + 1):
            dmax_here = min(delta_m, d, R.trunc - 2)
            bundle = Sigma(m, 0, d)
            inv = Invariants(K2=8, LK=-(d * (m + 2)), chi_L=bundle.chi_L)
            S = reform_eval(inv, B1, B2, form=2, order=dmax_here, R=R)
            for delta in range(dmax_here + 1):
                eng = severi_degree(bundle, delta, table=table)
                _compare(rep, {"m": m, "d": d, "delta": delta},
                         eng, S.coeff_at(delta), delta)
    return rep


def _blowk_cases(ks, dprimes):
    for k2 in ks:          # k2 = 2k, so half-integers stay exact
        k = QQ(k2, 2)
        for dp in dprimes:  # dp = d - k, an integer
            yield k, QQ(dp) + k


def _check_blowk(table, ks=(1, 2, 3, 4), dprimes=(2, 3), delta_max=2) -> ConjectureReport:
    """Multiplicity-k points at the A_1 singularity of P(1,1,2): the
    blown-up identity with the correction factor fbar_{2k}."""
    rep = ConjectureReport("blowk", {"2k": list(ks), "dprimes": list(dprimes),
                                     "delta_max": delta_max})
    for k, d in _blowk_cases(ks, dprimes):
        if delta_max > 2 * (d - k) + 1:
            rep.skip({"k": str(k), "d": str(d)}, "outside delta <= 2(d-k)+1")
            continue
        k2 = int(2 * k)
        chi_L = (d + 1) ** 2 - k * k
        inv = Invariants(K2=8, LK=int(-4 * d), chi_L=int(chi_L))
        R = modular.f_bar(k2, delta_max + 3)
        B1, B2 = _b_tables(delta_max + 2)
        S = reform_eval(inv, B1, B2, form=2, order=delta_max, R=R)
        bundle = Sigma(2, k2, int(d - k))
        for delta in range(delta_max + 1):
            eng = severi_degree(bundle, delta, table=table)
            _compare(rep, {"k": str(k), "d": str(d), "delta": delta},
                     eng, S.coeff_at(delta), delta)
    return rep


def _check_a1con_sigma2(table, delta_max=2) -> ConjectureReport:
    """Same content as blowk but through form (3) with the un-barred f_{2k}
    (fractional q-offsets exercised end to end)."""
    rep = ConjectureReport("A1con_sigma2", {"delta_max": delta_max})
    cases = [(QQ(1, 2), QQ(5, 2)), (QQ(1), QQ(3)), (QQ(3, 2), QQ(5, 2)), (QQ(2), QQ(3))]
    for k, d in cases:
        k2 = int(2 * k)
        # extraction at L(L-K_S)/2 of the *unblown* bundle; the k^2 lives in
        # the point-series exponent shift and in f_{2k} = q^(k^2) fbar_{2k}
        qexp = d * d + 2 * d
        chi_L = qexp + 1
        Kq = int(qexp) + 2
        if Kq > modular.tables.B_TRUSTED:
            rep.skip({"k": str(k), "d": str(d)}, "beyond the B tables")
            continue
        B1, B2 = _b_tables(Kq)
        R = modular.f_lower(k2, Kq)
        # chi(L) = (d+1)^2 is fractional for half-integral Weil divisors;
        # only chi - 1 - delta - k^2 and the extraction exponent need to
        # land on the exponent lattice, and they do
        inv = Invariants(K2=8, LK=int(-4 * d), chi_L=chi_L)
        bundle = Sigma(2, k2, int(d - k))
        for delta in range(delta_max + 1):
            eng = severi_degree(bundle, delta, table=table)
            gen = reform_eval(inv, B1, B2, form=3, order=delta, R=R,
                              shift=k * k)
            _compare(rep, {"k": str(k), "d": str(d), "delta": delta},
                     eng, gen, delta)
    return rep


def _check_p2blow(table, m_max=1, delta_max=4, d_max=8) -> ConjectureReport:
    """Multiple points on P^2 via blowups of Sigma_1; m = 1 has H_1 equal to
    the point series, reducing to the plain identity with a shifted
    exponent."""
    rep = ConjectureReport("P2blow", {"m_max": m_max, "delta_max": delta_max,
                                      "d_max": d_max})
    B1, B2 = _b_tables(delta_max + 2 + m_max * (m_max + 1) // 2)
    for m in range(1, m_max + 1):
        shift = m * (m + 1) // 2
        K = delta_max + shift + 2
        R = modular.h_series(m, K)
        for d in range(m + 1, d_max + 1):
            inv = Invariants.of(P2(d))
            S = reform_eval(inv, B1, B2, form=2, order=delta_max, R=R,
                            shift=shift)
            bundle = Sigma(1, m, d - m)
            for delta in range(delta_max + 1):
                # the naive validity bound overreaches at tiny d (the
                # identity demonstrably fails at m=1, d=2, delta=3, where
                # both engines give 0); stay within delta <= 2(d-m)
                if delta > 2 * (d - m):
                    rep.skip({"m": m, "d": d, "delta": delta}, "outside validity")
                    continue
                eng = severi_degree(bundle, delta, table=table)
                _compare(rep, {"m": m, "d": d, "delta": delta},
                         eng, S.coeff_at(delta + shift), delta)
    return rep


def _check_multcon_h12(table, delta_max_h1=4, delta_max_h2=3, d_max=7) -> ConjectureReport:
    """The refined multiple-point factors H_1 = point series and H_2 =
    theta-derived combination, on Sigma_1 data."""
    rep = ConjectureReport("multcon_H12", {"delta_max": (delta_max_h1, delta_max_h2),
                                           "d_max": d_max})
    for m, dmax_delta in ((1, delta_max_h1), (2, delta_max_h2)):
        shift = m * (m + 1) // 2
        K = dmax_delta + shift + 2
        B1, B2 = _b_tables(K)
        R = modular.h_series(m, K)
        for d in range(m + 2, d_max + 1):
            inv = Invariants.of(P2(d))
            S = reform_eval(inv, B1, B2, form=2, order=dmax_delta, R=R, shift=shift)
            bundle = Sigma(1, m, d - m)
            for delta in range(dmax_delta + 1):
                eng = severi_degree(bundle, delta, table=table)
                _compare(rep, {"m": m, "d": d, "delta": delta},
                         eng, S.coeff_at(delta + shift), delta)
    return rep


def _check_multcon_h34(table, delta_max=3, with_ambiguous_probe=True) -> ConjectureReport:
    """H_3 and H_4 at y = +-1 from the quasimodular expressions. A failure
    localized to the single ambiguous H_4(1) monomial is reported as a
    table-typo candidate rather than a failure."""
    rep = ConjectureReport("multcon_H34_at_pm1", {"delta_max": delta_max})
    for m in (3, 4):
        shift = m * (m + 1) // 2
        K = delta_max + shift + 2
        for yv in (1, -1):
            B1, B2 = _b_tables(K, y=yv)
            variants = [("primary", None)]
            if m == 4 and yv == 1 and with_ambiguous_probe:
                literal = [
                    t if t != modular.H4_AT1_AMBIGUOUS else modular.H4_AT1_LITERAL
                    for t in modular._H_AT1[4]
                ]
                variants.append(("literal D^4G_4", literal))
            for d in (m + 2, m + 3):
                inv = Invariants.of(P2(d))
                bundle = Sigma(1, m, d - m)
                outcomes = []
                for tag, terms in variants:
                    R = modular.h_at(m, yv, K, terms_override=terms)
                    S = reform_eval(inv, B1, B2, form=2, order=delta_max,
                                    R=R, shift=shift, y=yv)
                    bad = None
                    for delta in range(min(delta_max, 2 * (d - m)) + 1):
                        eng = severi_degree(bundle, delta, y=yv, table=table)
                        gen = S.coeff_at(delta + shift)
                        if eng != gen:
                            bad = (delta, eng, gen)
                            break
                    outcomes.append((tag, bad))
                tag0, bad0 = outcomes[0]
                if bad0 is None:
                    rep.record({"m": m, "y": yv, "d": d}, True)
                elif len(outcomes) > 1 and outcomes[1][1] is None:
                    rep.record({"m": m, "y": yv, "d": d}, True,
                               "table-typo candidate: only the literal "
                               "D^4G_4 reading of the ambiguous monomial passes")
                    rep.notes.append("H_4(1) ambiguous monomial sensitive")
                else:
                    delta, eng, gen = bad0
                    rep.record({"m": m, "y": yv, "d": d}, False,
                               f"delta={delta}: engine {eng} vs genfun {gen}")
    return rep


def _check_cross_engine(table, cmax=6, dmax=6, mmax=3, deltamax=4) -> ConjectureReport:
    """Recursion equals the long-edge-graph count, exactly."""
    rep = ConjectureReport(
        "cross_engine",
        {"cmax": cmax, "dmax": dmax, "mmax": mmax, "deltamax": deltamax},
    )
    for m in range(mmax + 1):
        for c in range(cmax + 1):
            for delta in range(deltamax, -1, -1):
                for d in range(dmax, 0, -1):
                    a = severi_degree(Sigma(m, c, d), delta, table=table)
                    b = refined_count(s_beta(c, m, d), delta)
                    _compare(rep, {"m": m, "c": c, "d": d, "delta": delta},
                             a, b, delta)
    return rep


def _check_solve_b(table, order=5, order_minus1=9) -> ConjectureReport:
    """Recover B_1/B_2 from node-polynomial data and compare to the
    embedded tables; same at y = -1 against the Bbar tables."""
    rep = ConjectureReport("solveB", {"order": order, "order_minus1": order_minus1})
    # refined: fitted node polynomials evaluated at P^2 d=5 and Sigma_0 (5,5)
    fits_p2 = {dl: fit_node_polynomial("p2", dl) for dl in range(1, order)}
    fits_s0 = {dl: fit_node_polynomial("p1xp1", dl) for dl in range(1, order)}
    data = [
        (Invariants.of(P2(5)), node_values(fits_p2, order - 1, m=1, d=5)),
        (Invariants.of(Sigma(0, 5, 5)), node_values(fits_s0, order - 1, c=5, d=5)),
    ]
    rb1, rb2 = solve_universal_B(data, order)
    t1, t2 = _b_tables(order)
    d1 = rb1.first_difference(t1)
    d2 = rb2.first_difference(t2)
    rep.record({"side": "B1", "order": order}, d1 is None,
               "" if d1 is None else f"first difference at q^{d1[0]}")
    rep.record({"side": "B2", "order": order}, d2 is None,
               "" if d2 is None else f"first difference at q^{d2[0]}")
    # y = -1: direct engine data at d = 9 and (9,9) (inside the regime)
    wdata = [
        (Invariants.of(P2(9)),
         {dl: severi_degree(P2(9), dl, y=-1, table=table)
          for dl in range(order_minus1)}),
        (Invariants.of(Sigma(0, 9, 9)),
         {dl: severi_degree(Sigma(0, 9, 9), dl, y=-1, table=table)
          for dl in range(order_minus1)}),
    ]
    wb1, wb2 = solve_universal_B(wdata, order_minus1, y=-1)
    bb1, bb2 = _b_tables(order_minus1, y=-1)
    d1 = wb1.first_difference(bb1)
    d2 = wb2.first_difference(bb2)
    rep.record({"side": "B1bar", "order": order_minus1}, d1 is None,
               "" if d1 is None else f"first difference at q^{d1[0]}")
    rep.record({"side": "B2bar", "order": order_minus1}, d2 is None,
               "" if d2 is None else f"first difference at q^{d2[0]}")
    return rep


def _check_conjan_p112(table, d_max=4) -> ConjectureReport:
    """The ruled-surface check for P(1,1,2) alone, by the eta route."""
    return _check_ruledblow(table, ms=(2,), d_max=d_max, eta_route=True)


def _check_series_identity(ident, table, K=15, param=None) -> ConjectureReport:
    """A q-series identity; needs no recursion table."""
    rep = ConjectureReport(ident, {"order": K})
    r = modular.verify_series_identity(ident, K, param=param)
    rep.record({"order": K, "detail": r["detail"]}, r["ok"],
               "" if r["ok"] else f"first difference {r['first_difference']}")
    return rep


# check id -> checker(table, **params); the order is the order of CHECK_IDS
_CHECKS = {
    "refpol": _check_refpol,
    "GSPSigmaW": _check_gsp_sigma_w,
    "ruledblow": _check_ruledblow,
    "conjan_P112": _check_conjan_p112,
    "blowk": _check_blowk,
    "A1con_sigma2": _check_a1con_sigma2,
    "P2blow": _check_p2blow,
    "multcon_H12": _check_multcon_h12,
    "multcon_H34_at_pm1": _check_multcon_h34,
    "cross_engine": _check_cross_engine,
    "solveB": _check_solve_b,
    **{i: functools.partial(_check_series_identity, i)
       for i in modular.SERIES_IDENTITIES},
}

CHECK_IDS = tuple(_CHECKS)


def check_conjecture(conj_id: str, table: CHTable | None = None,
                     **params) -> ConjectureReport:
    """Run a named check; returns a ConjectureReport whose verdicts are
    reproducible from the recorded parameters. Raises ValueError for a
    parameter the check does not take, and when the parameters leave no
    point to check, which must not read as a pass."""
    if conj_id not in _CHECKS:
        raise ValueError(f"unknown check id {conj_id!r}")
    check = _CHECKS[conj_id]
    extra = sorted(set(params) - set(inspect.signature(check).parameters))
    if extra:
        raise ValueError(f"{conj_id} takes no parameter {', '.join(extra)}")
    if table is None:
        table = CHTable()
    rep = check(table, **params)
    if all(v == "skip" for _, v, _ in rep.instances):
        raise ValueError(f"{conj_id}: the given ranges hold no point to check")
    return rep
