"""Conjecture and identity checkers over computable parameter ranges.

Every check is exact, coefficient by coefficient: the recursion's degrees
against a generating-function evaluation or, in cross_engine, the graph
count; solveB's B, solved from engine data, and the series identities
against the tables. A failure reports the earliest discrepancy (delta,
q-power, doubled y-exponent) so table-typo triage is possible.

The nine second-part checks (singular surfaces, blowups, multiple points)
and cross_engine are data: one `Spec` each in `_SPECS`, all run by `_run`.
A spec turns its ranges into groups of cases (params, bundle, Invariants),
each with its correction factor, point-series exponent shift and y, and
names its skip rule and the form of the other side. `_run` refuses ranges
that leave a group no point, evaluates the other side once per group and
asks each bundle once for its recursion row. Odd cases are fields: refpol's
fit is a second row, A1con_sigma2 names form (3), cross_engine the graph
counts, and multcon_H34_at_pm1 gives one verdict per case, which its H_4(1)
probe factor may re-check. A check's keyword parameters, which its report
records, are its verify flags where verify has them (`option` spells them);
it refuses their bad values, and check_conjecture(id, **rep.params) reruns it.
"""
from __future__ import annotations

import functools
from collections import namedtuple

from . import modular, tables
from .caporaso import CHTable, P2, Sigma, severi_degrees
from .genfun import (Invariants, engine_data, in_regime, reform_coefficient,
                     reform_eval, solve_bundles, solve_universal_B)
from .graphs import refined_counts_at
from .nodepoly import fit_node_polynomials, node_values
from .rationals import QQ
from .ylaurent import YLaurent

__all__ = ["CHECK_IDS", "ConjectureReport", "check_conjecture", "check_parameters", "option"]


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


def option(name: str) -> str:
    """The command-line spelling of a check parameter: --order-minus1 for order_minus1."""
    return "--" + name.replace("_", "-")


def _at_least(low: int, **values):
    """ValueError naming by its option the first of values below low."""
    for name, value in values.items():
        if value < low:
            raise ValueError(f"{option(name)} must be >= {low}")


def _compare(report, params, lhs: YLaurent, rhs: YLaurent, delta):
    if lhs == rhs:
        report.record(params, True)
        return
    e = min((lhs - rhs).terms)
    report.record(params, False, f"first discrepancy at (delta={delta}, y-exp {e}/2): "
                                 f"engine {lhs.coeff(e)} vs genfun {rhs.coeff(e)}")


def _b_tables(K: int, y="sym"):
    if y == -1:
        return modular.b_bar_series(1, K), modular.b_bar_series(2, K)
    return (modular.b_series(1, K).specialize_y(y),
            modular.b_series(2, K).specialize_y(y))


def _form2(g) -> list:
    """Form (2) for the cases of group g in one evaluation: per case
    [M^0, ..., M^delta_max], with the B tables and R = factor(K) (R = 1 if
    None) to the order K form (2) needs."""
    K = g.delta_max + g.shift + 2
    B1, B2 = _b_tables(K, g.y)
    series = reform_eval([inv for _, _, inv in g.cases], B1, B2, g.delta_max,
                         R=g.factor(K) if g.factor else None, shift=g.shift, y=g.y)
    return [[S.coeff_at(delta + g.shift) for delta in range(g.delta_max + 1)]
            for S in series]


def _form3(g) -> list:
    """Form (3) for the cases of group g at 'sym', one coefficient at a
    time, with the B tables and R = factor(K) to the order K its case's
    extraction exponent needs; the shift may be rational."""
    out = []
    for _, _, inv in g.cases:
        K = int(inv.qexp) + 2
        B1, B2 = _b_tables(K)
        R = g.factor(K)
        out.append([reform_coefficient(inv, B1, B2, delta, R=R, shift=g.shift)
                    for delta in range(g.delta_max + 1)])
    return out


# The cases (params, bundle, Invariants or None) of one evaluation of the
# other side, to delta_max, with the correction factor R = factor(K) (1 if
# None), the point-series exponent shift and the y. fit(cases) gives each
# case a second row to compare with it; probe is (factor, detail, note) for
# a failed case that passes under the identity with that factor instead.
Group = namedtuple("Group", "cases delta_max factor shift y fit probe",
                   defaults=(None, 0, "sym", None, None))
# A check against the recursion: groups(**ranges) -> groups, whose keyword
# defaults are the check's ranges; a delta is a SKIP with reason skip where
# inside(bundle, delta, y) is false; the form of the other side; and whether
# each case gets one verdict, naming its first bad delta.
Spec = namedtuple("Spec", "groups skip inside form one_verdict",
                  defaults=(None, None, _form2, False))


def _run(rep: ConjectureReport, spec: Spec, table, **ranges):
    """The one runner of the checks against the recursion, into rep. It
    refuses ranges that leave a group no point, then per group evaluates
    the other side once, first, so that a range past the tables is refused
    before any fit or engine runs; per case it asks the recursion for one
    row, to the largest delta inside, compares it with that side at each
    delta inside, and records a SKIP at each delta outside."""
    groups = spec.groups(**ranges)
    if any(not g.cases or g.delta_max < 0 for g in groups):
        raise ValueError(f"{rep.conj_id}: the given ranges hold no point to check")
    for g in groups:
        coeffs = spec.form(g)
        fits = g.fit(g.cases) if g.fit else [None] * len(g.cases)
        for case, want, fit in zip(g.cases, coeffs, fits):
            p, bundle, _ = case
            deltas = range(g.delta_max + 1)
            inside = [dl for dl in deltas if not spec.inside or spec.inside(bundle, dl, g.y)]
            row = severi_degrees(bundle, inside[-1], y=g.y, table=table) if inside else []
            row = row if g.y == "sym" else [YLaurent.const(v) for v in row]
            if not spec.one_verdict:
                sides = ([({}, row)] if fit is None else
                         [({"side": "fit"}, fit), ({"side": "engine"}, row)])
                for delta in inside:
                    for tag, got in sides:
                        _compare(rep, {**p, "delta": delta, **tag}, got[delta],
                                 want[delta], delta)
            elif inside:  # a verdict over no delta would read as a pass
                bad = _first_bad(row, want, inside)
                probe = bad and g.probe and spec.form(
                    g._replace(cases=[case], factor=g.probe[0]))[0]
                if probe and not _first_bad(row, probe, inside):
                    rep.record(p, True, g.probe[1])
                    rep.notes.append(g.probe[2])
                else:
                    rep.record(p, bad is None, "" if bad is None else
                               "delta={}: engine {} vs genfun {}".format(*bad))
            for delta in deltas:
                if delta not in inside:
                    rep.skip({**p, "delta": delta}, spec.skip)


def _first_bad(row, want, deltas):
    """(delta, row value, identity value) at the first of deltas where
    they differ, or None."""
    return next(((dl, row[dl], want[dl]) for dl in deltas if row[dl] != want[dl]), None)


def _within(n):
    """delta <= n * d for the bundle's d: d on Sigma_m, d - k on the
    blowups of P(1,1,2), d - m on Sigma_1."""
    return lambda bundle, delta, y: delta <= n * bundle.d


def _on(params: dict, bundle):
    """A case on bundle with its own invariants."""
    return params, bundle, Invariants.of(bundle)


# -- the second-part checks ----------------------------------------------------


def _refpol(deltamax=4, dmax=8):
    """Refined node polynomials of P^2 from the generating identity with the
    embedded B tables equal the fitted ones and the engine degrees, at every
    (d, delta) in_regime."""
    def fit(cases):
        fits = fit_node_polynomials("p2", range(1, deltamax + 1))
        return [node_values(fits, deltamax, m=1, d=p["d"]) for p, _, _ in cases]

    _at_least(0, deltamax=deltamax)  # form (2) to q^-1 is empty
    return [Group([_on({"d": d}, P2(d)) for d in range(1, dmax + 1)], deltamax, fit=fit)]


def _gsp_sigma_w(deltamax=8, dmax=10):
    """The Welschinger generating identity on P^2 with the Bbar tables."""
    _at_least(0, deltamax=deltamax)
    return [Group([_on({"d": d}, P2(d)) for d in range(2, dmax + 1)], deltamax, y=-1)]


# table-limited scaled-down bounds: the Fhat_c3, Fhat_c4 tables reach
# two orders past them
_RULED_DELTA = {2: 5, **{m: t - 2 for m, t in tables.FHAT_TRUSTED.items()}}


def _ruledblow(ms=(2, 3, 4), d_max=4):
    """N^{(Sigma_m,dH),delta} against the ruled-surface identity with the
    correction factor Fhat_{c_m}."""
    for m in ms:
        if m not in _RULED_DELTA:
            raise ValueError(f"ruledblow has no Fhat_c{m} table for m = {m}; "
                             f"the tables cover m in {sorted(_RULED_DELTA)}")
    return [Group([_on({"m": m, "d": d}, Sigma(m, 0, d)) for d in range(1, d_max + 1)],
                  _RULED_DELTA[m], functools.partial(modular.fhat_cm, m)) for m in ms]


def _conjan_p112(d_max=4):
    """The ruled-surface identity for P(1,1,2) alone, with the factor
    eta(q)^2/eta(q^2)."""
    def eta_quotient(K):
        e = modular.eta(K)
        return e * e / e.subs_qpow(2)

    return [g._replace(factor=eta_quotient) for g in _ruledblow((2,), d_max)]


def _blowk(ks=(1, 2, 3, 4), dprimes=(2, 3), delta_max=2):
    """Multiplicity-k points at the A_1 singularity of P(1,1,2): the
    blown-up identity with the correction factor fbar_{2k}, for delta <=
    2(d - k), with ks the values of 2k and dprimes those of d - k, so
    half-integers stay exact. At delta = 2(d - k) + 1 the identity
    disagrees with both engines (its coefficient is negative, e.g. -4 at
    k = 1/2, d = 3/2, where no refined count can be), so that delta is a
    SKIP naming it."""
    return [Group([_on({"k": str(QQ(k2, 2)), "d": str(dp + QQ(k2, 2))}, Sigma(2, k2, dp))
                   for dp in dprimes], delta_max, functools.partial(modular.f_bar, k2))
            for k2 in ks]


def _a1con_sigma2(delta_max=2):
    """Same content as blowk but through form (3) with the un-barred
    f_{2k} = q^(k^2) fbar_{2k} and the k^2 in the point-series exponent
    shift (fractional q-offsets exercised end to end). The extraction is at
    L(L-K_S)/2 of the *unblown* bundle, and chi(L) = (d+1)^2 is fractional
    for half-integral Weil divisors: only chi - 1 - delta - k^2 and the
    extraction exponent need to land on the exponent lattice, and they do.
    The order K is at most 17, inside the B tables."""
    return [Group([({"k": str(k), "d": str(d)}, Sigma(2, int(2 * k), int(d - k)),
                    Invariants(K2=8, LK=int(-4 * d), chi_L=(d + 1) ** 2))],
                  delta_max, functools.partial(modular.f_lower, int(2 * k)), k * k)
            for k, d in ((QQ(1, 2), QQ(5, 2)), (QQ(1), QQ(3)), (QQ(3, 2), QQ(5, 2)),
                     (QQ(2), QQ(3)))]


def _m_fold(m, ds, **tag):
    """Cases for plane curves of degree d with an ordinary m-fold point, as
    curves on the blowup Sigma_1 with the invariants of P^2(d); their
    identity has the factor H_m and the point-series exponent shifted by
    m(m+1)/2."""
    return [({"m": m, **tag, "d": d}, Sigma(1, m, d - m), Invariants.of(P2(d)))
            for d in ds]


def _p2blow(m_max=1, delta_max=4, d_max=8):
    """Multiple points on P^2 via blowups of Sigma_1; m = 1 has H_1 equal to
    the point series, reducing to the plain identity with a shifted
    exponent. The naive validity bound overreaches at tiny d (the identity
    demonstrably fails at m=1, d=2, delta=3, where both engines give 0), so
    the check stays within delta <= 2(d-m)."""
    return [Group(_m_fold(m, range(m + 1, d_max + 1)), delta_max,
                  functools.partial(modular.h_series, m), m * (m + 1) // 2)
            for m in range(1, m_max + 1)]


def _multcon_h12(delta_max_h1=4, delta_max_h2=3, d_max=7):
    """The refined multiple-point factors H_1 = point series and H_2 =
    theta-derived combination, on Sigma_1 data."""
    return [Group(_m_fold(m, range(m + 2, d_max + 1)), delta_max,
                  functools.partial(modular.h_series, m), m * (m + 1) // 2)
            for m, delta_max in ((1, delta_max_h1), (2, delta_max_h2))]


def _multcon_h34(delta_max=3):
    """H_3 and H_4 at y = +-1 from the quasimodular expressions, one
    verdict per (m, y, d) over delta <= 2(d - m); each delta past that
    is a SKIP. A failure that the literal D^4G_4 reading of the single
    ambiguous H_4(1) monomial mends is reported as a table-typo candidate
    rather than a failure."""
    literal = [modular.H4_AT1_LITERAL if t == modular.H4_AT1_AMBIGUOUS else t
               for t in modular._H_AT1[4]]
    probe = (functools.partial(modular.quasimodular_sum, literal),
             "table-typo candidate: only the literal D^4G_4 reading of the "
             "ambiguous monomial passes", "H_4(1) ambiguous monomial sensitive")
    return [Group(_m_fold(m, (m + 2, m + 3), y=yv), delta_max,
                  functools.partial(modular.h_at, m, yv), m * (m + 1) // 2, yv,
                  probe=probe if (m, yv) == (4, 1) else None)
            for m in (3, 4) for yv in (1, -1)]


def _cross_engine(cmax=4, dmax=4, mmax=2, deltamax=3):
    """The recursion equals the long-edge-graph count, exactly, on each
    Sigma_m(c, d), in (m, c) order with d descending: one group."""
    return [Group([({"m": m, "c": c, "d": d}, Sigma(m, c, d), None) for m in range(mmax + 1)
                   for c in range(cmax + 1) for d in range(dmax, 0, -1)], deltamax)]


def _graph_counts(g) -> list:
    """The long-edge-graph counts of the cases of group g, from one call."""
    counts = refined_counts_at([(b.c, b.m, b.d) for _, b, _ in g.cases], g.delta_max)
    return [counts[b.c, b.m, b.d] for _, b, _ in g.cases]


# check id -> Spec of each check against the recursion, in CHECK_IDS order
_SPECS = {
    "refpol": Spec(_refpol, "outside the polynomial regime", in_regime),
    "GSPSigmaW": Spec(_gsp_sigma_w, "d < delta/3 + 1", in_regime),
    "ruledblow": Spec(_ruledblow, "outside delta <= d", _within(1)),
    "conjan_P112": Spec(_conjan_p112, "outside delta <= d", _within(1)),
    "blowk": Spec(_blowk, "outside delta <= 2(d-k): the identity fails at 2(d-k)+1",
                  _within(2)),
    "A1con_sigma2": Spec(_a1con_sigma2, form=_form3),
    "P2blow": Spec(_p2blow, "outside validity", _within(2)),
    "multcon_H12": Spec(_multcon_h12),
    "multcon_H34_at_pm1": Spec(_multcon_h34, "outside delta <= 2(d-m)", _within(2),
                               one_verdict=True),
    "cross_engine": Spec(_cross_engine, form=_graph_counts),
}


def _check_solve_b(rep, table, order=5, order_minus1=9):
    """B_1/B_2 solved from the graph counts and B1bar/B2bar from the
    recursion (the graph route stalls at y = -1, order 12), each on the
    three bundles of solve_bundles, against the embedded tables."""
    _at_least(1, order=order, order_minus1=order_minus1)
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


def _check_series_identity(ident, rep, table, **params):
    """The one verdict of series identity ident, whose checker takes the
    params, each at least 1, in the order _CHECKS binds them; reads no table."""
    _at_least(1, **params)
    first, detail = modular.SERIES_IDENTITIES[ident](*params.values())
    rep.record({**params, "detail": detail}, first is None,
               "" if first is None else f"first difference {first}")


# check id -> checker(report, table, **params) of the others, in CHECK_IDS order
_CHECKS = {
    "solveB": _check_solve_b,
    **{i: functools.partial(_check_series_identity, i, order=15)
       for i in modular.SERIES_IDENTITIES},
    "fbar_closed_form": functools.partial(_check_series_identity, "fbar_closed_form",
                                          order=40, lmax=12),
    # a fixed q^3 expansion, so no parameter
    "fhat_general_tables": functools.partial(_check_series_identity, "fhat_general_tables"),
}

CHECK_IDS = (*_SPECS, *_CHECKS)


def check_parameters(conj_id: str) -> dict:
    """The keyword parameters of check conj_id with their defaults, which all
    but the report, the table and a partial's id have, and those a partial
    binds by name; ValueError for no such id."""
    spec = _SPECS.get(conj_id)
    check = spec.groups if spec else _CHECKS.get(conj_id)
    if check is None:
        raise ValueError(f"unknown check id {conj_id!r}")
    func = getattr(check, "func", check)
    code, defaults = func.__code__, func.__defaults__ or ()
    names = code.co_varnames[:code.co_argcount]
    return {**dict(zip(names[len(names) - len(defaults):], defaults)),
            **getattr(check, "keywords", {})}


def check_conjecture(conj_id: str, table: CHTable | None = None,
                     **params) -> ConjectureReport:
    """Run a named check; returns a ConjectureReport whose params are all the
    check's keyword parameters, so check_conjecture(conj_id, **rep.params)
    reruns it. Raises ValueError for an unknown id, a parameter the check
    does not take or a bad value of one, and when the parameters leave a
    group or the whole check no point to check: that is no pass."""
    known = check_parameters(conj_id)
    extra = sorted(set(params) - set(known))
    if extra:
        raise ValueError(f"{conj_id} takes no parameter {', '.join(extra)}")
    table = CHTable() if table is None else table
    rep = ConjectureReport(conj_id, {**known, **params})
    spec = _SPECS.get(conj_id)
    if spec:
        _run(rep, spec, table, **params)
    else:
        _CHECKS[conj_id](rep, table, **params)
    if all(v == "skip" for _, v, _ in rep.instances):
        raise ValueError(f"{conj_id}: the given ranges hold no point to check")
    return rep
