"""Scaled-down runs of every checker; the acceptance module runs the
full ranges."""
import json
import operator
from pathlib import Path

import pytest

from refsev import conjectures, graphs, modular
from refsev.caporaso import P2, Sigma, severi_degree
from refsev.conjectures import CHECK_IDS, ConjectureReport, check_conjecture
from refsev.genfun import reform_eval, solve_bundles
from refsev.graphs import s_beta
from refsev.nodepoly import fit_node_polynomials, node_values
from refsev.qseries import QSeries
from refsev.ylaurent import YLaurent

from oracles import eps0, eps1, length, loads

# the checks of the paper's second part: the generating identity in form
# (2) or (3), with a correction factor, against the recursion
SECOND_PART = ("refpol", "GSPSigmaW", "ruledblow", "conjan_P112", "blowk",
               "A1con_sigma2", "P2blow", "multcon_H12", "multcon_H34_at_pm1")


def report_json(rep) -> str:
    """The report as a JSON object, one instance a line."""
    rows = ",\n  ".join(map(json.dumps, rep.instances))
    return (f'{{"conj_id": {json.dumps(rep.conj_id)}, "params": {json.dumps(rep.params)},\n'
            f' "instances": [\n  {rows}\n ],\n "notes": {json.dumps(rep.notes)}}}\n')


@pytest.mark.parametrize("conj_id", SECOND_PART)
def test_default_report_golden(chtable, conj_id):
    # the whole default report, which the verify summary does not show:
    # the parameters, every instance in order, PASS ones included, with its
    # detail, and the notes, pinned byte for byte
    golden = Path(__file__).parent / "golden" / f"report-{conj_id}.json"
    assert report_json(check_conjecture(conj_id, table=chtable)) == golden.read_text()


def test_refpol_small(chtable):
    rep = check_conjecture("refpol", table=chtable, deltamax=3, dmax=5)
    assert rep.ok, rep.summary()
    assert rep.counts["pass"] > 0


def test_refpol_checks_every_point_in_regime(chtable):
    # the skip reads in_regime, so refpol tests the points with d < delta
    # inside it on both sides; at (2, 3), the first point outside, the
    # fitted node polynomial differs from the engine, which is recorded
    # here and does not widen the rule
    rep = check_conjecture("refpol", table=chtable, deltamax=6)
    assert rep.ok and rep.counts == {"pass": 92, "fail": 0, "skip": 10}, rep.summary()
    verdicts = {(p["d"], p["delta"], p.get("side")): v for p, v, _ in rep.instances}
    for d, delta in ((1, 2), (3, 4), (4, 5), (4, 6), (5, 6)):
        assert verdicts[d, delta, "fit"] == verdicts[d, delta, "engine"] == "pass"
    assert verdicts[2, 3, None] == "skip"
    fits = fit_node_polynomials("p2", range(1, 4))
    assert node_values(fits, 3, m=1, d=2)[3] != severi_degree(P2(2), 3, table=chtable)


def test_gsp_sigma_w_small(chtable):
    rep = check_conjecture("GSPSigmaW", table=chtable, deltamax=4, dmax=5)
    assert rep.ok, rep.summary()


def test_gsp_sigma_w_instances(chtable):
    # d = 2 leaves the regime d >= delta/3 + 1 at delta = 4
    rep = check_conjecture("GSPSigmaW", table=chtable, deltamax=4, dmax=3)
    assert rep.instances == (
        [({"d": 2, "delta": dl}, "pass", "") for dl in range(4)]
        + [({"d": 2, "delta": 4}, "skip", "d < delta/3 + 1")]
        + [({"d": 3, "delta": dl}, "pass", "") for dl in range(5)])


def test_gsp_sigma_w_evaluates_the_identity_once(chtable, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return reform_eval(*args, **kwargs)

    monkeypatch.setattr(conjectures, "reform_eval", counted)
    rep = check_conjecture("GSPSigmaW", table=chtable)
    assert rep.ok, rep.summary()
    # one form (2) call for all nine degrees d = 2..10
    assert len(calls) == 1 and len(calls[0]) == 9


def test_ruledblow_m2(chtable):
    rep = check_conjecture("ruledblow", table=chtable, ms=(2,), d_max=3)
    assert rep.ok, rep.summary()


def test_ruledblow_skips_past_d(chtable):
    # delta runs to the m = 2 bound 5; past delta <= d it is a SKIP
    rep = check_conjecture("ruledblow", table=chtable, ms=(2,), d_max=2)
    assert rep.counts == {"pass": 5, "fail": 0, "skip": 7}
    assert [p for p, v, _ in rep.instances if v == "skip"] == (
        [{"m": 2, "d": 1, "delta": dl} for dl in range(2, 6)]
        + [{"m": 2, "d": 2, "delta": dl} for dl in range(3, 6)])
    assert {r for _, v, r in rep.instances if v == "skip"} == {"outside delta <= d"}


def test_ruledblow_tables_m34(chtable):
    rep = check_conjecture("ruledblow", table=chtable, ms=(3, 4), d_max=3)
    assert rep.ok, rep.summary()


def test_ruledblow_refuses_m_without_table(chtable):
    with pytest.raises(ValueError, match=r"m = 5; the tables cover m in \[2, 3, 4\]"):
        check_conjecture("ruledblow", table=chtable, ms=(5,))


def test_ruledblow_factor_past_its_table_raises(chtable, monkeypatch):
    # the m = 3, 4 bounds sit two orders below the trusted tables; one more
    # order asks Fhat_c3 past its table, which raises instead of narrowing
    assert conjectures._RULED_DELTA == {2: 5, 3: 4, 4: 3}
    monkeypatch.setitem(conjectures._RULED_DELTA, 3, 5)
    with pytest.raises(ValueError, match=r"Fhat_c3 is only trusted to q\^5"):
        check_conjecture("ruledblow", table=chtable, ms=(3,), d_max=1)


def test_conjan_via_eta_quotient(chtable):
    rep = check_conjecture("conjan_P112", table=chtable, d_max=3)
    assert rep.ok, rep.summary()


def test_blowk_small(chtable):
    rep = check_conjecture("blowk", table=chtable, ks=(1, 2, 3, 4),
                           dprimes=(2,), delta_max=2)
    assert rep.ok, rep.summary()
    # all four multiplicities, half-integral included, must have run
    seen = {p["k"] for p, v, _ in rep.instances if v == "pass"}
    assert seen == {"1/2", "1", "3/2", "2"}


def test_blowk_instances(chtable):
    # d - k = 0 leaves delta <= 2(d-k) at delta = 0: deltas 1 and 2 skip
    rep = check_conjecture("blowk", table=chtable, ks=(1, 2), dprimes=(0, 1),
                           delta_max=2)
    reason = "outside delta <= 2(d-k): the identity fails at 2(d-k)+1"
    assert rep.instances == (
        [({"k": "1/2", "d": "1/2", "delta": 0}, "pass", "")]
        + [({"k": "1/2", "d": "1/2", "delta": dl}, "skip", reason) for dl in (1, 2)]
        + [({"k": "1/2", "d": "3/2", "delta": dl}, "pass", "") for dl in range(3)]
        + [({"k": "1", "d": "1", "delta": 0}, "pass", "")]
        + [({"k": "1", "d": "1", "delta": dl}, "skip", reason) for dl in (1, 2)]
        + [({"k": "1", "d": "2", "delta": dl}, "pass", "") for dl in range(3)])


def test_blowk_fails_at_the_edge_of_its_regime(chtable):
    # at delta = 2(d-k)+1 the identity's coefficient is negative where the
    # engine's refined count is 0: (k, d-k) = (1/2, 1), delta = 3, engine 0
    # against identity -4. The check skips that delta, naming the edge; its
    # spec without the skip rule records the failure there
    ranges = {"ks": (1,), "dprimes": (1,), "delta_max": 3}
    spec = conjectures._SPECS["blowk"]
    rep = ConjectureReport("blowk", ranges)
    conjectures._run(rep, spec._replace(inside=None), chtable, **ranges)
    assert [v for _, v, _ in rep.instances] == ["pass"] * 3 + ["fail"]
    assert "engine 0 vs genfun -4" in rep.instances[3][2]
    assert severi_degree(Sigma(2, 1, 1), 3, table=chtable).is_zero()
    rep = ConjectureReport("blowk", ranges)
    conjectures._run(rep, spec, chtable, **ranges)
    assert rep.instances[3] == ({"k": "1/2", "d": "3/2", "delta": 3}, "skip",
                                "outside delta <= 2(d-k): the identity fails "
                                "at 2(d-k)+1")
    assert [v for _, v, _ in rep.instances[:3]] == ["pass"] * 3


def test_a1_form3_small(chtable):
    rep = check_conjecture("A1con_sigma2", table=chtable, delta_max=1)
    assert rep.ok, rep.summary()


def test_p2blow_reduction(chtable):
    rep = check_conjecture("P2blow", table=chtable, delta_max=3, d_max=6)
    assert rep.ok, rep.summary()


def test_p2blow_instances(chtable):
    # m = 1, d = 2 leaves delta <= 2(d-m) at delta = 3
    rep = check_conjecture("P2blow", table=chtable, delta_max=3, d_max=3)
    assert rep.instances == (
        [({"m": 1, "d": 2, "delta": dl}, "pass", "") for dl in range(3)]
        + [({"m": 1, "d": 2, "delta": 3}, "skip", "outside validity")]
        + [({"m": 1, "d": 3, "delta": dl}, "pass", "") for dl in range(4)])


def test_multcon_h12_small(chtable):
    rep = check_conjecture("multcon_H12", table=chtable, delta_max_h1=3,
                           delta_max_h2=2, d_max=5)
    assert rep.ok, rep.summary()


def test_multcon_h34_small(chtable):
    rep = check_conjecture("multcon_H34_at_pm1", table=chtable, delta_max=2)
    assert rep.ok, rep.summary()


def test_multcon_h34_skips_past_2_d_minus_m(chtable):
    # delta_max = 5 passes 2(d - m) = 4 at d = m + 2: one SKIP per (m, y)
    rep = check_conjecture("multcon_H34_at_pm1", table=chtable, delta_max=5)
    assert rep.counts == {"pass": 8, "fail": 0, "skip": 4}
    assert [(p, r) for p, v, r in rep.instances if v == "skip"] == [
        ({"m": m, "y": yv, "d": m + 2, "delta": 5}, "outside delta <= 2(d-m)")
        for m in (3, 4) for yv in (1, -1)]


def test_multcon_h34_table_typo_candidate(chtable, monkeypatch):
    # swap the two readings of the ambiguous H_4(1) monomial: the primary
    # D^4G_4 fails at m = 4, y = 1, and the D^4G_8 probe passes there
    amb, lit = modular.H4_AT1_AMBIGUOUS, modular.H4_AT1_LITERAL
    monkeypatch.setitem(modular._H_AT1, 4,
                        [lit if t == amb else t for t in modular._H_AT1[4]])
    monkeypatch.setattr(modular, "H4_AT1_AMBIGUOUS", lit)
    monkeypatch.setattr(modular, "H4_AT1_LITERAL", amb)
    rep = check_conjecture("multcon_H34_at_pm1", table=chtable, delta_max=2)
    assert rep.counts == {"pass": 8, "fail": 0, "skip": 0}
    typo = [p for p, _, detail in rep.instances
            if detail.startswith("table-typo candidate")]
    assert typo == [{"m": 4, "y": 1, "d": 6}, {"m": 4, "y": 1, "d": 7}]
    assert rep.notes == ["H_4(1) ambiguous monomial sensitive"] * 2


def test_multcon_h34_reports_a_failure(chtable, monkeypatch):
    # a perturbed H_3(1) fails both m = 3, y = 1 cases, each naming its
    # first bad delta; the other six still pass
    real = modular.h_at

    def perturbed(m, y, K):
        S = real(m, y, K)
        return S + QSeries.monomial(7, 1, trunc=S.trunc) if (m, y) == (3, 1) else S

    monkeypatch.setattr(modular, "h_at", perturbed)
    rep = check_conjecture("multcon_H34_at_pm1", table=chtable, delta_max=2)
    assert not rep.ok and rep.counts == {"pass": 6, "fail": 2, "skip": 0}
    assert [(p, detail) for p, v, detail in rep.instances if v == "fail"] == [
        ({"m": 3, "y": 1, "d": 5}, "delta=1: engine 28 vs genfun 29"),
        ({"m": 3, "y": 1, "d": 6}, "delta=1: engine 55 vs genfun 56")]


@pytest.mark.parametrize("conj_id", ["multcon_H34_at_pm1", "A1con_sigma2"])
def test_no_delta_is_no_point_to_check(chtable, conj_id):
    # at delta_max = -1 no case has a delta to check: one verdict per case
    # over none must not read as a pass
    with pytest.raises(ValueError, match="the given ranges hold no point to check"):
        check_conjecture(conj_id, table=chtable, delta_max=-1)


@pytest.mark.parametrize("conj_id, params", [
    ("blowk", {"delta_max": -1}),  # raised from qseries, naming no range
    ("multcon_H12", {"delta_max_h1": -1}),  # passed on H_2 alone
    ("cross_engine", {"deltamax": -1}),
    ("cross_engine", {"dmax": 0}),
])
def test_a_group_with_no_point_is_refused_before_any_evaluation(chtable, monkeypatch,
                                                                conj_id, params):
    def evaluate(*args, **kwargs):
        raise AssertionError("evaluated before the ranges were read")

    for name in ("reform_eval", "refined_counts_at", "severi_degrees"):
        monkeypatch.setattr(conjectures, name, evaluate)
    with pytest.raises(ValueError, match=f"{conj_id}: the given ranges hold no point"):
        check_conjecture(conj_id, table=chtable, **params)


def test_every_report_reruns_from_its_params(chtable):
    # a report's params are its check's keyword parameters, so that they
    # rerun it: at the defaults they are check_parameters, and the rerun
    # gives the same instances
    for conj_id in CHECK_IDS:
        rep = check_conjecture(conj_id, table=chtable)
        assert rep.params == conjectures.check_parameters(conj_id), conj_id
        again = check_conjecture(conj_id, table=chtable, **rep.params)
        assert again.instances == rep.instances and again.params == rep.params, conj_id


def test_cross_engine_small(chtable):
    rep = check_conjecture("cross_engine", table=chtable, cmax=2, dmax=3,
                           mmax=2, deltamax=2)
    assert rep.ok, rep.summary()


def test_cross_engine_sweeps_each_m_c_once(chtable, monkeypatch):
    # one sweep of s(c, m, dmax) per (m, c), at deltamax; the sweeps share
    # one set of placement tables, and the check walks the templates of
    # each cogenus once
    grid = {"cmax": 2, "dmax": 3, "mmax": 2, "deltamax": 3}
    sweeps, tables, walked = [], set(), []
    sweep, templates = graphs._sweep, graphs.enumerate_templates

    def sweeping(beta, delta, sums, ring):
        sweeps.append((beta, delta))
        tables.add(id(sums))
        return sweep(beta, delta, sums, ring)

    def walking(kappa):
        walked.append(kappa)
        return templates(kappa)

    monkeypatch.setattr(graphs, "_sweep", sweeping)
    monkeypatch.setattr(graphs, "enumerate_templates", walking)
    rep = check_conjecture("cross_engine", table=chtable, **grid)
    assert rep.ok and rep.counts["pass"] == 3 * 3 * 3 * 4, rep.summary()
    assert sweeps == [(s_beta(c, m, 3), 3) for m in range(3) for c in range(3)]
    assert len(tables) == 1 and id(None) not in tables
    assert walked == [1, 2, 3]


def _cross_engine_grid(cmax=4, dmax=4, mmax=2):
    return [(c, m, d) for m in range(mmax + 1) for c in range(cmax + 1)
            for d in range(1, dmax + 1)]


def test_counts_at_mixed_deltas_equal_each_points_own_counts():
    # each point of the cross-engine grid at its own delta: one sweep per
    # (c, m) at the largest d and delta gives every point its own counts
    points = {p: (p[0] + 2 * p[1] + p[2]) % 4 for p in _cross_engine_grid()}
    counts = graphs.refined_counts_at(points)
    assert counts == {p: graphs.refined_counts(s_beta(*p), delta)
                      for p, delta in points.items()}


def test_cross_engine_sums_each_entry_and_window_once(chtable, monkeypatch):
    # s(c, m, .) and s(c + m, m, .) share windows, and every window of
    # s(c, 0, d) is the same; the check's one call makes the P of each
    # template at each window its sweeps read, and under which it is
    # allowable, once
    sums = []
    template_sum = graphs._template_sum

    def summing(fills, last, free):
        sums.append(tuple(free))
        return template_sum(fills, last, free)

    monkeypatch.setattr(graphs, "_template_sum", summing)
    rep = check_conjecture("cross_engine", table=chtable)
    grid = _cross_engine_grid()
    assert rep.ok and rep.counts["pass"] == len(grid) * 4, rep.summary()
    read = set()
    for beta in {s_beta(c, m, 4) for c, m, _ in grid}:
        n = len(beta)
        for kappa in range(1, 4):  # the check's deltamax is 3
            for T in graphs.enumerate_templates(kappa):
                ell = length(T)
                for p in range(1 - eps0(T), n - ell + eps1(T)):
                    if all(map(operator.ge, beta[p:p + ell], loads(T))):
                        read.add((T, beta[p:p + ell]))
    assert sums and len(sums) == len(read)


def test_compare_subtracts_only_on_a_failure(monkeypatch):
    # a pass is recorded from lhs == rhs, with no lhs - rhs built; a
    # failure names the first doubled y-exponent where the sides differ
    subtracted, sub = [], YLaurent.__sub__

    def subtracting(self, other):
        subtracted.append(other)
        return sub(self, other)

    monkeypatch.setattr(YLaurent, "__sub__", subtracting)
    rep = ConjectureReport("cross_engine", {})
    lhs = YLaurent({-2: 1, 0: 3, 2: 1})
    conjectures._compare(rep, {"d": 3}, lhs, YLaurent({-2: 1, 0: 3, 2: 1}), 1)
    assert not subtracted
    conjectures._compare(rep, {"d": 3}, lhs, YLaurent({-2: 1, 0: 2, 2: 1, 4: 5}), 2)
    assert rep.instances == [
        ({"d": 3}, "pass", ""),
        ({"d": 3}, "fail", "first discrepancy at (delta=2, y-exp 0/2): engine 3 vs genfun 2")]


def test_solve_b_small(chtable):
    rep = check_conjecture("solveB", table=chtable, order=4, order_minus1=5)
    assert rep.ok, rep.summary()


def test_solve_b_reads_graph_counts_of_solve_bundles(chtable, monkeypatch):
    # the refined side solves from the graph counts of exactly the three
    # bundles of solve_bundles, with no node-polynomial fit: P^2(p) and
    # P^2(p + 1) from one sweep of s(0, 1, p + 1), Sigma_0(s, s) from one
    # of its own
    order, read, sweeps = 6, [], []
    real, sweep = conjectures.refined_counts_at, graphs._sweep

    def spy(points, delta=None):
        read.append((list(points), delta))
        return real(points, delta)

    def sweeping(beta, delta, sums, ring):
        sweeps.append((beta, delta))
        return sweep(beta, delta, sums, ring)

    def no_fit(*args, **kwargs):
        raise AssertionError("solveB fitted a node polynomial")

    monkeypatch.setattr(conjectures, "refined_counts_at", spy)
    monkeypatch.setattr(graphs, "_sweep", sweeping)
    monkeypatch.setattr(conjectures, "fit_node_polynomials", no_fit)
    rep = check_conjecture("solveB", table=chtable, order=order, order_minus1=3)
    assert rep.ok, rep.summary()
    assert solve_bundles(order) == (P2(4), Sigma(0, 3, 3), P2(5))
    assert read == [([(0, 1, 4), (3, 0, 3), (0, 1, 5)], order - 1)]
    assert sweeps == [(s_beta(0, 1, 5), order - 1), (s_beta(3, 0, 3), order - 1)]


def _solve_b_with_one_wrong_count(chtable, monkeypatch, order, bundle):
    """solveB at order with the last graph count of bundle raised by 1."""
    real, wrong = conjectures.refined_counts_at, (bundle.c, bundle.m, bundle.d)

    def perturbed(points, delta):
        counts = real(points, delta)
        counts[wrong] = [*counts[wrong][:-1], counts[wrong][-1] + YLaurent.const(1)]
        return counts

    monkeypatch.setattr(conjectures, "refined_counts_at", perturbed)
    return check_conjecture("solveB", table=chtable, order=order, order_minus1=3)


@pytest.mark.parametrize("bundle", solve_bundles(6))
def test_solve_b_refuses_one_perturbed_graph_count(chtable, monkeypatch, bundle):
    # the third bundle overdetermines the solve, so one wrong count of any
    # of the three raises instead of giving a B that passes or fails
    with pytest.raises(ValueError, match="inconsistent"):
        _solve_b_with_one_wrong_count(chtable, monkeypatch, 6, bundle)


def test_solve_b_at_order_5_refuses_a_wrong_p2_4_count(chtable, monkeypatch):
    # at order 5 the rules give P^2(3) and Sigma_0(2, 2), whose (K^2, L.K)
    # are proportional, so P^2(4) only restored the rank and a wrong P^2(4)
    # count gave a FAIL at q^4; with Sigma_0(3, 3) it raises
    assert solve_bundles(5) == (P2(3), Sigma(0, 3, 3), P2(4))
    with pytest.raises(ValueError, match="inconsistent"):
        _solve_b_with_one_wrong_count(chtable, monkeypatch, 5, P2(4))


def test_unknown_id_rejected(chtable):
    with pytest.raises(ValueError):
        check_conjecture("nonsense", table=chtable)


@pytest.mark.parametrize("conj_id, params, name", [
    ("conjan_P112", {"ms": (3,)}, "ms"),  # was silently dropped
    ("refpol", {"cmax": 1}, "cmax"),      # was a TypeError
    ("jacobi_triple", {"K": 5}, "K"),     # the order's old name
    ("ruledblow", {"eta_route": True}, "eta_route"),
    ("multcon_H34_at_pm1", {"with_ambiguous_probe": False}, "with_ambiguous_probe"),
    ("jacobi_triple", {"ident": "eta"}, "ident"),  # bound by the partial
    ("cross_engine", {"order": 3}, "order"),
    ("GSPSigmaW", {"ms": (2,)}, "ms"),
    ("blowk", {"d_max": 3}, "d_max"),
    ("A1con_sigma2", {"d_max": 3}, "d_max"),
    ("P2blow", {"ks": (1,)}, "ks"),
    ("multcon_H12", {"delta_max": 3}, "delta_max"),
    ("fbar_closed_form", {"param": 12}, "param"),  # lmax's old name
    ("refpol", {"delta_max": 3}, "delta_max"),     # deltamax's old name
    ("jacobi_triple", {"param": 99}, "param"),     # was silently ignored
    ("jacobi_triple", {"lmax": 3}, "lmax"),
    ("fhat_general_tables", {"K": 99}, "K"),       # its q^3 is fixed, so it
    ("fhat_general_tables", {"order": 99}, "order"),  # takes no order
])
def test_unknown_parameter_rejected(chtable, conj_id, params, name):
    with pytest.raises(ValueError, match=f"takes no parameter {name}"):
        check_conjecture(conj_id, table=chtable, **params)


@pytest.mark.parametrize("conj_id, params, message", [
    # passed after checking no l and no coefficient
    ("fbar_closed_form", {"lmax": 0}, "--lmax must be >= 1"),
    ("Fhat_c2_is_theta2", {"order": 0}, "--order must be >= 1"),
    # raised ZeroDivisionError
    ("solveB", {"order": 0}, "--order must be >= 1"),
    ("eta_quotient_theta2", {"order": 0}, "--order must be >= 1"),
    ("B_minus1_tables", {"order": 0}, "--order must be >= 1"),
    ("solveB", {"order_minus1": 0}, "--order-minus1 must be >= 1"),
    ("refpol", {"deltamax": -1}, "--deltamax must be >= 0"),
    ("GSPSigmaW", {"deltamax": -1}, "--deltamax must be >= 0"),
])
def test_bad_values_refused(chtable, conj_id, params, message):
    # a check refuses a bad value of its own parameter, naming it as verify
    # spells it, before any engine runs
    with pytest.raises(ValueError, match=message):
        check_conjecture(conj_id, table=chtable, **params)


def test_reports_own_their_lists():
    first, second = ConjectureReport("refpol", {}), ConjectureReport("refpol", {})
    first.record({"d": 1}, True)
    first.notes.append("a note")
    assert second.instances == [] and second.notes == []


def test_reports_are_structured(chtable):
    rep = check_conjecture("Fhat_c2_is_theta2", order=10)
    assert rep.ok
    assert rep.conj_id in CHECK_IDS
    assert rep.counts["pass"] == 1
    assert "PASS" in rep.summary()
