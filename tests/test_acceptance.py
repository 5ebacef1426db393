"""Acceptance suite: every criterion at its stated range, all equalities
exact (zero tolerance). One pass/fail line prints per criterion; run with
`pytest tests/test_acceptance.py -v -s` to see them as they complete.
"""
import itertools
import random

import pytest

from refsev.caporaso import CHTable, P2, Sigma, severi_degree
from refsev.cache import CacheStore
from refsev.conjectures import check_conjecture
from refsev.graphs import (
    enumerate_graphs,
    enumerate_templates,
    refined_count,
    s_beta,
)
from refsev.nodepoly import fit_node_polynomial
from refsev.qseries import QSeries, compose, compose_inverse
from refsev.rationals import QQ
from refsev.ylaurent import YLaurent

from floor_diagrams import floor_diagram_count
from oracles import (
    beta_semiallowable,
    eval_phi_linear,
    fit_phi_linear,
    is_template,
    lambda_bar_j,
    maxv,
    minv,
    phi,
    shift,
)


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}"
    if detail and not ok:
        line += f" :: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def table():
    return CHTable()


def test_criterion_01_cross_engine(table):
    """Recursion equals long-edge-graph count, c,d <= 6, m <= 3, delta <= 4."""
    rep = check_conjecture("cross_engine", table=table,
                           cmax=6, dmax=6, mmax=3, deltamax=4)
    _report(1, "cross-engine identity on the full grid "
               f"({rep.counts['pass']} instances)", rep.ok, rep.summary())


def test_criterion_02_classical_sanity(table):
    """N^{3,1}(1) = 12 via the independent floor-diagram oracle, and
    N^{d,0} = 1 for d <= 8."""
    oracle12 = floor_diagram_count(0, 1, 3, 1, 1)
    ok = oracle12 == 12
    ok = ok and severi_degree(P2(3), 1, y=1, table=table) == 12
    for d in range(1, 9):
        ok = ok and severi_degree(P2(d), 0, y=1, table=table) == 1
        ok = ok and floor_diagram_count(0, 1, d, 0, 1) == 1
    _report(2, "classical sanity at y=1 (12 cubics; rational degrees 1)", ok)


def test_criterion_03_polynomiality(table):
    """Q^{d,delta} fitted on d = delta..delta+2 predicts delta+3..delta+5,
    for delta <= 5."""
    ok, detail = True, ""
    for delta in range(1, 6):
        try:
            np = fit_node_polynomial("p2", delta)  # raises on held-out mismatch
            ok = ok and len(np.validated_on) == 3
        except ValueError as e:
            ok, detail = False, f"delta={delta}: {e}"
            break
    _report(3, "degree-2 polynomiality of Q in d for delta <= 5", ok, detail)


def test_criterion_04_multiparameter_shapes(table):
    """Fitted {1,c,d,cd,m,md,md^2} (and {1,c+d,cd} for m=0, {1,m,d,dm,d^2m}
    for P(1,1,m)) predict held-out grid points, delta <= 3."""
    ok, detail = True, ""
    for family in ("sigma", "p1xp1", "p11m"):
        for delta in (1, 2, 3):
            try:
                fit_node_polynomial(family, delta)
            except ValueError as e:
                ok, detail = False, f"{family} delta={delta}: {e}"
    _report(4, "multi-parameter linear-combination shapes, delta <= 3", ok, detail)


def test_criterion_05_b_recovery(table):
    """solve_universal_B reproduces the embedded B tables mod q^5 and the
    Bbar tables mod q^9."""
    rep = check_conjecture("solveB", table=table, order=5, order_minus1=9)
    _report(5, "universal B1/B2 recovery (mod q^5 refined, mod q^9 at y=-1)",
            rep.ok, rep.summary())


def test_criterion_06_welschinger_genfun(table):
    """The Welschinger generating identity, delta <= 8, d <= 10."""
    rep = check_conjecture("GSPSigmaW", table=table, deltamax=8, dmax=10)
    _report(6, f"Welschinger generating function ({rep.counts['pass']} instances)",
            rep.ok, rep.summary())


def test_criterion_07_singularity_factors(table):
    """The 1/m(1,1) factor for m = 2 (theta series) on d <= 4, delta <=
    min(5, d), and the multiplicity-k blowup factors fbar_{2k} for
    2k in {1..4}, delta <= 2."""
    rep1 = check_conjecture("ruledblow", table=table, ms=(2,), d_max=4)
    rep2 = check_conjecture("blowk", table=table, ks=(1, 2, 3, 4),
                            dprimes=(2, 3), delta_max=2)
    ok = rep1.ok and rep2.ok
    _report(7, "singular-surface correction factors (theta_2 and fbar)",
            ok, rep1.summary() + "\n" + rep2.summary())


def test_criterion_08_a1_closed_form():
    """fbar_l: theta-derivative definition equals the binomial closed form
    and is 1 mod q^(l+1), l <= 12, to q^40."""
    rep = check_conjecture("fbar_closed_form", order=40, lmax=12)
    _report(8, "A_1 multiplicity factors: closed form to q^40, l <= 12",
            rep.ok, rep.summary())


def test_criterion_09_multiple_point_factors(table):
    """H_1 reduction (delta <= 4), refined H_2 (delta <= 3), and the
    H_3/H_4 quasimodular expressions at y = +-1 (delta <= 3)."""
    rep1 = check_conjecture("P2blow", table=table, m_max=1, delta_max=4, d_max=8)
    rep2 = check_conjecture("multcon_H12", table=table,
                            delta_max_h1=4, delta_max_h2=3, d_max=7)
    rep3 = check_conjecture("multcon_H34_at_pm1", table=table, delta_max=3)
    ok = rep1.ok and rep2.ok and rep3.ok
    _report(9, "multiple-point factors H_1, H_2 refined; H_3, H_4 at y=+-1",
            ok, "\n".join(r.summary() for r in (rep1, rep2, rep3)))


def test_criterion_10_series_identities():
    """Theta expressions for F_0/F_1/F_2, the eta quotient, the refined
    discriminant at y=-1, and B(-1) versus the Bbar tables, mod q^15."""
    ok, detail = True, ""
    for ident in ("F0_theta", "F1_theta", "F2_theta", "eta_quotient_theta2",
                  "delta_tilde_minus1", "B_minus1_tables"):
        rep = check_conjecture(ident, order=15)
        if not rep.ok:
            ok, detail = False, rep.summary()
            break
    _report(10, "series identities exact mod q^15", ok, detail)


def test_criterion_11_property_suites(table, tmp_path):
    """Standalone property suites: palindromicity, Phi^s support, Phi
    linearity, ring round trips, cache determinism and torn-record
    recovery."""
    rng = random.Random(11)
    ok = True
    # palindromicity of every refined output on a sample grid
    for (c, m, d) in [(0, 1, 4), (2, 2, 3), (3, 0, 3), (1, 3, 2)]:
        for delta in range(4):
            N = refined_count(s_beta(c, m, d), delta)
            ok = ok and N.is_palindromic()
            ok = ok and severi_degree(Sigma(m, c, d), delta, table=table).is_palindromic()
    # Phi^s vanishes off shifted templates
    beta = (3, 4, 5, 6)
    for delta in (1, 2, 3):
        for G in enumerate_graphs(delta, len(beta)):
            if not is_template(shift(G, -minv(G))):
                ok = ok and phi(G, beta, strict=True) == 0
    # Phi linearity held-out prediction
    for T in enumerate_templates(2):
        base = [lambda_bar_j(T, j + 1) for j in range(maxv(T) + 2)]
        probes = []
        while len(probes) < 16:
            b = tuple(x + rng.randint(0, 5) for x in base)
            if beta_semiallowable(T, b):
                probes.append(b)
        form = fit_phi_linear(T, probes[:10])
        ok = ok and all(eval_phi_linear(form, b) == phi(T, b) for b in probes[10:])
    # exp/log/pow/compose round trips
    u = QSeries([YLaurent({0: 1})] + [
        YLaurent({k: QQ(rng.randint(-3, 3)) for k in (-1, 0, 1)}) for _ in range(7)
    ], trunc=8)
    ok = ok and u.log().exp().agrees_with(u)
    ok = ok and (u.pow(QQ(3, 2)) * u.pow(QQ(-3, 2))).agrees_with(QSeries.one(8))
    a = QSeries([YLaurent({0: 1}), YLaurent({2: 2, 0: -1})], lead=1, trunc=7)
    g = compose_inverse(a)
    ok = ok and compose(a, g).agrees_with(QSeries([1], lead=1, trunc=7))
    # cache determinism and torn-record recovery
    path = str(tmp_path / "acc-cache.txt")
    store = CacheStore(path)
    t1 = CHTable(store=store)
    cold = severi_degree(P2(4), 2, table=t1)
    t1.flush()
    store.close()
    with open(path, "a") as fh:
        fh.write("torn-record\twith-no-newline")
    store2 = CacheStore(path)
    t2 = CHTable(store=store2)
    ok = ok and severi_degree(P2(4), 2, table=t2) == cold
    store2.close()
    _report(11, "property suites (palindromicity, Phi support/linearity, "
                "round trips, cache recovery)", ok)
