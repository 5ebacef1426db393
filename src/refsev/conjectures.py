"""Conjecture and identity checkers over computable parameter ranges.

Every check compares an engine-computed degree (recursion or graph count)
against a generating-function evaluation, coefficient by coefficient, but
solveB, which solves B from engine data and compares it to the tables.
Passes are exact; a failure reports the earliest discrepancy (delta,
q-power, doubled y-exponent) so table-typo triage is possible.

The second-part checks (singular surfaces, blowups, multiple points)
share one path, `_against`. A check hands it its cases as (params,
bundle, Invariants), the correction factor R as a function of the order,
the point-series exponent shift and a validity predicate skip(params,
delta). `_against` takes the B tables and R to the order form (2) needs,
evaluates form (2) once for all cases, and at each delta records the
recursion degree of the bundle against the t^(delta + shift) coefficient,
or a SKIP with the reason skip returns. Two checks keep their own loops:
A1con_sigma2 goes through form (3) (genfun.reform_coefficient), and
multcon_H34_at_pm1 gives one verdict per case so that its table-typo
probe can re-read a whole case.
"""
from __future__ import annotations

import functools

from . import modular, tables
from .caporaso import CHTable, P2, Sigma, severi_degrees
from .genfun import (Invariants, engine_data, in_regime, reform_coefficient,
                     reform_eval, solve_bundles, solve_universal_B)
from .graphs import refined_counts_at
from .nodepoly import fit_node_polynomials, node_values
from .rationals import QQ
from .ylaurent import YLaurent

__all__ = ["ConjectureReport", "check_conjecture", "CHECK_IDS"]


class ConjectureReport:
    """The verdicts of one check: (params, "pass" | "fail" | "skip",
    detail) per instance, and free-text notes."""

    def __init__(self, conj_id: str, params: dict):
        self.conj_id = conj_id
        self.params = params
        self.instances = []
        self.notes = []

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


def _identity(invs, delta_max, factor=None, shift=0, y="sym"):
    """Form (2) for each of invs: the t-series whose t^(delta + shift)
    coefficient is M^delta for delta <= delta_max, with the B tables and
    R = factor(K) (R = 1 if None) to the order K form (2) needs."""
    K = delta_max + shift + 2
    B1, B2 = _b_tables(K, y)
    return reform_eval(invs, B1, B2, delta_max, R=factor(K) if factor else None,
                       shift=shift, y=y)


def _against(rep, table, cases, delta_max, factor=None, shift=0, y="sym",
             skip=None):
    """The one comparison path of the second-part checks. cases are
    (params, bundle, Invariants); at each delta <= delta_max it records
    the engine degree of the bundle against the t^(delta + shift)
    coefficient of the identity (one form (2) evaluation for all cases),
    or a SKIP with the reason skip(params, delta) gives outside the
    regime."""
    series = _identity([inv for _, _, inv in cases], delta_max, factor, shift, y)
    for (params, bundle, _), S in zip(cases, series):
        reasons = [skip and skip(params, delta) for delta in range(delta_max + 1)]
        # one row, to the largest delta not skipped
        checked = [delta for delta, reason in enumerate(reasons) if not reason]
        row = severi_degrees(bundle, checked[-1], y=y, table=table) if checked else []
        for delta, reason in enumerate(reasons):
            p = {**params, "delta": delta}
            if reason:
                rep.skip(p, reason)
                continue
            eng = row[delta]
            _compare(rep, p, YLaurent.const(eng) if y != "sym" else eng,
                     S.coeff_at(delta + shift), delta)


# -- individual checks ---------------------------------------------------------


def _check_refpol(table, delta_max=4, d_max=8) -> ConjectureReport:
    """Refined node polynomials of P^2 from the generating identity with the
    embedded B tables equal the fitted ones and the engine degrees, at every
    (d, delta) in_regime."""
    rep = ConjectureReport("refpol", {"delta_max": delta_max, "d_max": d_max})
    ds = range(1, d_max + 1)
    series = _identity([Invariants.of(P2(d)) for d in ds], delta_max)
    fits = fit_node_polynomials("p2", range(1, delta_max + 1))
    for d, S in zip(ds, series):
        nv = node_values(fits, delta_max, m=1, d=d)
        inside = [dl for dl in range(delta_max + 1) if in_regime(P2(d), dl)]
        row = severi_degrees(P2(d), inside[-1], table=table)
        for delta in range(delta_max + 1):
            if delta not in inside:
                rep.skip({"d": d, "delta": delta}, "outside the polynomial regime")
                continue
            gen = S.coeff_at(delta)
            _compare(rep, {"d": d, "delta": delta, "side": "fit"},
                     nv[delta], gen, delta)
            _compare(rep, {"d": d, "delta": delta, "side": "engine"},
                     row[delta], gen, delta)
    return rep


def _check_gsp_sigma_w(table, delta_max=8, d_max=10) -> ConjectureReport:
    """The Welschinger generating identity on P^2 with the Bbar tables."""
    rep = ConjectureReport("GSPSigmaW", {"delta_max": delta_max, "d_max": d_max})
    cases = [({"d": d}, P2(d), Invariants.of(P2(d))) for d in range(2, d_max + 1)]
    _against(rep, table, cases, delta_max, y=-1,
             skip=lambda p, delta: None
             if in_regime(P2(p["d"]), delta, -1) else "d < delta/3 + 1")
    return rep


# table-limited scaled-down bounds: the Fhat_c3, Fhat_c4 tables reach
# two orders past them
_RULED_DELTA = {2: 5, **{m: t - 2 for m, t in tables.FHAT_TRUSTED.items()}}


def _ruled(rep, table, ms, d_max, factor) -> ConjectureReport:
    """N^{(Sigma_m,dH),delta} against the singular-surface identity whose
    1/m(1,1) correction factor is factor(m, K)."""
    for m in ms:
        cases = [({"m": m, "d": d}, Sigma(m, 0, d), Invariants.of(Sigma(m, 0, d)))
                 for d in range(1, d_max + 1)]
        _against(rep, table, cases, _RULED_DELTA[m], functools.partial(factor, m),
                 skip=lambda p, delta: "outside delta <= d" if delta > p["d"] else None)
    return rep


def _check_ruledblow(table, ms=(2, 3, 4), d_max=4) -> ConjectureReport:
    """The ruled-surface identity with the factor Fhat_{c_m}."""
    for m in ms:
        if m not in _RULED_DELTA:
            raise ValueError(f"ruledblow has no Fhat_c{m} table for m = {m}; "
                             f"the tables cover m in {sorted(_RULED_DELTA)}")
    return _ruled(ConjectureReport("ruledblow", {"ms": list(ms), "d_max": d_max}),
                  table, ms, d_max, modular.fhat_cm)


def _check_conjan_p112(table, d_max=4) -> ConjectureReport:
    """The ruled-surface identity for P(1,1,2) alone, with the factor
    eta(q)^2/eta(q^2)."""
    def eta_quotient(m, K):
        e = modular.eta(K)
        return e * e / e.subs_qpow(2)
    return _ruled(ConjectureReport("conjan_P112", {"ms": [2], "d_max": d_max}),
                  table, (2,), d_max, eta_quotient)


def _check_blowk(table, ks=(1, 2, 3, 4), dprimes=(2, 3), delta_max=2) -> ConjectureReport:
    """Multiplicity-k points at the A_1 singularity of P(1,1,2): the
    blown-up identity with the correction factor fbar_{2k}, for delta <=
    2(d - k). At delta = 2(d - k) + 1 the identity disagrees with both
    engines (its coefficient is negative, e.g. -4 at k = 1/2, d = 3/2,
    where no refined count can be), so that delta is a SKIP naming it."""
    rep = ConjectureReport("blowk", {"2k": list(ks), "dprimes": list(dprimes),
                                     "delta_max": delta_max})

    def skip(p, delta):
        if delta > 2 * (QQ(p["d"]) - QQ(p["k"])):
            return "outside delta <= 2(d-k): the identity fails at 2(d-k)+1"

    for k2 in ks:  # k2 = 2k and dp = d - k, so half-integers stay exact
        cases = [({"k": str(QQ(k2, 2)), "d": str(dp + QQ(k2, 2))}, Sigma(2, k2, dp),
                  Invariants.of(Sigma(2, k2, dp))) for dp in dprimes]
        _against(rep, table, cases, delta_max, functools.partial(modular.f_bar, k2),
                 skip=skip)
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
        Kq = int(qexp) + 2  # at most 17, inside the B tables
        B1, B2 = _b_tables(Kq)
        R = modular.f_lower(k2, Kq)
        # chi(L) = (d+1)^2 is fractional for half-integral Weil divisors;
        # only chi - 1 - delta - k^2 and the extraction exponent need to
        # land on the exponent lattice, and they do
        inv = Invariants(K2=8, LK=int(-4 * d), chi_L=qexp + 1)
        row = severi_degrees(Sigma(2, k2, int(d - k)), delta_max, table=table)
        for delta in range(delta_max + 1):
            gen = reform_coefficient(inv, B1, B2, delta, R=R, shift=k * k)
            _compare(rep, {"k": str(k), "d": str(d), "delta": delta}, row[delta], gen,
                     delta)
    return rep


def _multiple_point(rep, table, m, ds, delta_max, skip=None):
    """Curves with an ordinary m-fold point on P^2 as curves on the blowup
    Sigma_1: the identity with the factor H_m and the point-series
    exponent shifted by m(m+1)/2."""
    cases = [({"m": m, "d": d}, Sigma(1, m, d - m), Invariants.of(P2(d))) for d in ds]
    _against(rep, table, cases, delta_max, functools.partial(modular.h_series, m),
             shift=m * (m + 1) // 2, skip=skip)


def _check_p2blow(table, m_max=1, delta_max=4, d_max=8) -> ConjectureReport:
    """Multiple points on P^2 via blowups of Sigma_1; m = 1 has H_1 equal to
    the point series, reducing to the plain identity with a shifted
    exponent."""
    rep = ConjectureReport("P2blow", {"m_max": m_max, "delta_max": delta_max,
                                      "d_max": d_max})
    for m in range(1, m_max + 1):
        # the naive validity bound overreaches at tiny d (the identity
        # demonstrably fails at m=1, d=2, delta=3, where both engines give
        # 0); stay within delta <= 2(d-m)
        _multiple_point(rep, table, m, range(m + 1, d_max + 1), delta_max,
                        skip=lambda p, delta: "outside validity"
                        if delta > 2 * (p["d"] - p["m"]) else None)
    return rep


def _check_multcon_h12(table, delta_max_h1=4, delta_max_h2=3,
                       d_max=7) -> ConjectureReport:
    """The refined multiple-point factors H_1 = point series and H_2 =
    theta-derived combination, on Sigma_1 data."""
    rep = ConjectureReport("multcon_H12", {"delta_max": (delta_max_h1, delta_max_h2),
                                           "d_max": d_max})
    for m, delta_max in ((1, delta_max_h1), (2, delta_max_h2)):
        _multiple_point(rep, table, m, range(m + 2, d_max + 1), delta_max)
    return rep


def _check_multcon_h34(table, delta_max=3) -> ConjectureReport:
    """H_3 and H_4 at y = +-1 from the quasimodular expressions, one
    verdict per (m, y, d) over delta <= 2(d - m); each delta past that
    is a SKIP. A failure that the literal D^4G_4 reading of the single
    ambiguous H_4(1) monomial mends is reported as a table-typo candidate
    rather than a failure."""
    rep = ConjectureReport("multcon_H34_at_pm1", {"delta_max": delta_max})
    literal = [modular.H4_AT1_LITERAL if t == modular.H4_AT1_AMBIGUOUS else t
               for t in modular._H_AT1[4]]
    for m in (3, 4):
        shift = m * (m + 1) // 2
        for yv in (1, -1):
            def series(factor, ds):
                return _identity([Invariants.of(P2(d)) for d in ds], delta_max,
                                 factor, shift, yv)

            def first_bad(S, d):
                top = min(delta_max, 2 * (d - m))
                row = severi_degrees(Sigma(1, m, d - m), top, y=yv, table=table)
                for delta in range(top + 1):
                    eng, gen = row[delta], S.coeff_at(delta + shift)
                    if eng != gen:
                        return delta, eng, gen
                return None

            ds = (m + 2, m + 3)
            for d, S in zip(ds, series(functools.partial(modular.h_at, m, yv), ds)):
                params = {"m": m, "y": yv, "d": d}
                bad = first_bad(S, d)
                if bad is None:
                    rep.record(params, True)
                elif m == 4 and yv == 1 and first_bad(series(functools.partial(
                        modular.quasimodular_sum, literal), [d])[0], d) is None:
                    rep.record(params, True,
                               "table-typo candidate: only the literal "
                               "D^4G_4 reading of the ambiguous monomial passes")
                    rep.notes.append("H_4(1) ambiguous monomial sensitive")
                else:
                    rep.record(params, False,
                               "delta={}: engine {} vs genfun {}".format(*bad))
                for delta in range(2 * (d - m) + 1, delta_max + 1):
                    rep.skip({**params, "delta": delta}, "outside delta <= 2(d-m)")
    return rep


def _check_cross_engine(table, cmax=4, dmax=4, mmax=2, deltamax=3) -> ConjectureReport:
    """Recursion equals the long-edge-graph count, exactly."""
    rep = ConjectureReport(
        "cross_engine",
        {"cmax": cmax, "dmax": dmax, "mmax": mmax, "deltamax": deltamax},
    )
    cms = [(c, m) for m in range(mmax + 1) for c in range(cmax + 1)]
    # an empty range must not reach the sweep, which refuses delta < 0
    counts = refined_counts_at([(c, m, d) for c, m in cms for d in range(1, dmax + 1)],
                               deltamax) if deltamax >= 0 else {}
    for c, m in cms:
        rows = {d: severi_degrees(Sigma(m, c, d), deltamax, table=table)
                for d in range(dmax, 0, -1)} if deltamax >= 0 else {}
        for delta in range(deltamax, -1, -1):
            for d in range(dmax, 0, -1):
                _compare(rep, {"m": m, "c": c, "d": d, "delta": delta},
                         rows[d][delta], counts[c, m, d][delta], delta)
    return rep


def _check_solve_b(table, order=5, order_minus1=9) -> ConjectureReport:
    """B_1/B_2 solved from the graph counts and B1bar/B2bar from the
    recursion (the graph route stalls at y = -1, order 12), each on the
    three bundles of solve_bundles, against the embedded tables."""
    rep = ConjectureReport("solveB", {"order": order, "order_minus1": order_minus1})
    known = _b_tables(order) + _b_tables(order_minus1, y=-1)  # before any engine
    bundles = solve_bundles(order)
    counts = refined_counts_at([(b.c, b.m, b.d) for b in bundles], order - 1)
    data = [(Invariants.of(b), dict(enumerate(counts[b.c, b.m, b.d]))) for b in bundles]
    wdata = engine_data(solve_bundles(order_minus1, -1), order_minus1, -1, table)
    sides = zip(("B1", "B2", "B1bar", "B2bar"), (order,) * 2 + (order_minus1,) * 2,
                solve_universal_B(data, order)
                + solve_universal_B(wdata, order_minus1, y=-1), known)
    for side, n, got, want in sides:
        diff = got.first_difference(want)
        rep.record({"side": side, "order": n}, diff is None,
                   "" if diff is None else f"first difference at q^{diff[0]}")
    return rep


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
    "fbar_closed_form": functools.partial(_check_series_identity,
                                          "fbar_closed_form", K=40),
}

CHECK_IDS = tuple(_CHECKS)


def _parameters(check) -> tuple:
    """The names a checker takes after its table: a function's own, or a
    partial's function's after the positional arguments it binds."""
    code = getattr(check, "func", check).__code__
    names = code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]
    return names[len(getattr(check, "args", ())) + 1:]


def check_conjecture(conj_id: str, table: CHTable | None = None,
                     **params) -> ConjectureReport:
    """Run a named check; returns a ConjectureReport whose verdicts are
    reproducible from the recorded parameters. Raises ValueError for a
    parameter the check does not take, and when the parameters leave no
    point to check, which must not read as a pass."""
    if conj_id not in _CHECKS:
        raise ValueError(f"unknown check id {conj_id!r}")
    check = _CHECKS[conj_id]
    extra = sorted(set(params) - set(_parameters(check)))
    if extra:
        raise ValueError(f"{conj_id} takes no parameter {', '.join(extra)}")
    if table is None:
        table = CHTable()
    rep = check(table, **params)
    if all(v == "skip" for _, v, _ in rep.instances):
        raise ValueError(f"{conj_id}: the given ranges hold no point to check")
    return rep
