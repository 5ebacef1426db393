"""Scaled-down runs of every checker; the acceptance module runs the
full ranges."""
import functools

import pytest

from refsev import conjectures, graphs, modular
from refsev.caporaso import Sigma, severi_degree
from refsev.conjectures import CHECK_IDS, ConjectureReport, check_conjecture
from refsev.genfun import Invariants, reform_eval
from refsev.graphs import s_beta
from refsev.qseries import QSeries


def test_refpol_small(chtable):
    rep = check_conjecture("refpol", table=chtable, delta_max=3, d_max=5)
    assert rep.ok, rep.summary()
    assert rep.counts["pass"] > 0


def test_gsp_sigma_w_small(chtable):
    rep = check_conjecture("GSPSigmaW", table=chtable, delta_max=4, d_max=5)
    assert rep.ok, rep.summary()


def test_gsp_sigma_w_instances(chtable):
    # d = 2 leaves the regime d >= delta/3 + 1 at delta = 4
    rep = check_conjecture("GSPSigmaW", table=chtable, delta_max=4, d_max=3)
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
    # against identity -4. The check skips that delta, naming the edge
    rep = ConjectureReport("blowk", {})
    bundle = Sigma(2, 1, 1)
    conjectures._against(rep, chtable, [({}, bundle, Invariants.of(bundle))], 3,
                         functools.partial(modular.f_bar, 1))
    assert [v for _, v, _ in rep.instances] == ["pass"] * 3 + ["fail"]
    assert "engine 0 vs genfun -4" in rep.instances[3][2]
    assert severi_degree(bundle, 3, table=chtable).is_zero()
    rep = check_conjecture("blowk", table=chtable, ks=(1,), dprimes=(1,),
                           delta_max=3)
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


def test_cross_engine_small(chtable):
    rep = check_conjecture("cross_engine", table=chtable, cmax=2, dmax=3,
                           mmax=2, deltamax=2)
    assert rep.ok, rep.summary()


def test_cross_engine_sweeps_each_m_c_once(chtable, monkeypatch):
    # one sweep of s(c, m, dmax) per (m, c); the sweeps read the placement
    # tables and build each cogenus's table once over the whole check
    grid = {"cmax": 2, "dmax": 3, "mmax": 2, "deltamax": 3}
    sweeps = []
    sweep = conjectures.refined_counts_by_prefix

    def sweeping(beta, delta, y="sym"):
        sweeps.append((tuple(beta), delta))
        return sweep(beta, delta, y)

    monkeypatch.setattr(conjectures, "refined_counts_by_prefix", sweeping)
    graphs._placement_tables.cache_clear()
    rep = check_conjecture("cross_engine", table=chtable, **grid)
    assert rep.ok and rep.counts["pass"] == 3 * 3 * 3 * 4, rep.summary()
    assert sweeps == [(s_beta(c, m, 3), 3) for m in range(3) for c in range(3)]
    assert graphs._placement_tables.cache_info().misses <= grid["deltamax"]


def test_solve_b_small(chtable):
    rep = check_conjecture("solveB", table=chtable, order=4, order_minus1=5)
    assert rep.ok, rep.summary()


def test_unknown_id_rejected(chtable):
    with pytest.raises(ValueError):
        check_conjecture("nonsense", table=chtable)


@pytest.mark.parametrize("conj_id, params, name", [
    ("conjan_P112", {"ms": (3,)}, "ms"),  # was silently dropped
    ("refpol", {"cmax": 1}, "cmax"),      # was a TypeError
    ("jacobi_triple", {"order": 5}, "order"),
    ("ruledblow", {"eta_route": True}, "eta_route"),
    ("multcon_H34_at_pm1", {"with_ambiguous_probe": False}, "with_ambiguous_probe"),
    ("jacobi_triple", {"ident": "eta"}, "ident"),  # bound by the partial
    ("cross_engine", {"order": 3}, "order"),
])
def test_unknown_parameter_rejected(chtable, conj_id, params, name):
    with pytest.raises(ValueError, match=f"takes no parameter {name}"):
        check_conjecture(conj_id, table=chtable, **params)


def test_reports_own_their_lists():
    first, second = ConjectureReport("refpol", {}), ConjectureReport("refpol", {})
    first.record({"d": 1}, True)
    first.notes.append("a note")
    assert second.instances == [] and second.notes == []


def test_reports_are_structured(chtable):
    rep = check_conjecture("Fhat_c2_is_theta2", K=10)
    assert rep.ok
    assert rep.conj_id in CHECK_IDS
    assert rep.counts["pass"] == 1
    assert "PASS" in rep.summary()
