import pytest

from refsev import graphs, nodepoly
from refsev.caporaso import P2, Sigma, severi_degree
from refsev.graphs import q_log_count, s_beta
from refsev.nodepoly import fit_node_polynomial, node_values
from refsev.rationals import QQ
from refsev.ylaurent import YLaurent


def test_delta_zero_is_trivial():
    with pytest.raises(ValueError):
        fit_node_polynomial("p2", 0)


@pytest.mark.parametrize("delta", [1, 2, 3, 4, 5])
def test_p2_degree_two_predicts_held_out(delta):
    np = fit_node_polynomial("p2", delta)
    assert np.basis == ("1", "d", "d^2")
    assert len(np.validated_on) == 3
    # prediction beyond the fitted+validated window still matches the engine
    d = delta + 6
    assert np.q_at(d=d) == q_log_count(s_beta(0, 1, d), delta)


@pytest.mark.parametrize("family", ["sigma", "p1xp1", "p11m"])
@pytest.mark.parametrize("delta", [1, 2, 3])
def test_multiparameter_shapes(family, delta):
    np = fit_node_polynomial(family, delta)
    assert np.validated_on, "held-out validation ran"


def test_p1xp1_symmetric_under_cd_swap():
    np = fit_node_polynomial("p1xp1", 2)
    # the basis {1, c+d, cd} is symmetric by construction; check a value
    assert np.q_at(c=3, d=5) == np.q_at(c=5, d=3)
    assert np.q_at(c=3, d=5) == q_log_count(s_beta(3, 0, 5), 2)


def test_fixed_m_fit():
    np = fit_node_polynomial("p11m-fixed-m", 2, m=2)
    assert np.q_at(d=7) == q_log_count(s_beta(0, 2, 7), 2)


@pytest.mark.parametrize("family", ["p2", "p1xp1", "sigma", "p11m"])
def test_m_refused_outside_fixed_m(family):
    # only the fixed-m fit reads m; any other family would ignore it
    with pytest.raises(ValueError, match="takes no m"):
        fit_node_polynomial(family, 1, m=7)


def test_node_values_match_engine(chtable):
    fits = {dl: fit_node_polynomial("p2", dl) for dl in (1, 2, 3, 4)}
    nv = node_values(fits, 4, m=1, d=6)
    for delta in range(5):
        assert nv[delta] == severi_degree(P2(6), delta, table=chtable)


def test_node_values_sigma(chtable):
    fits = {dl: fit_node_polynomial("sigma", dl) for dl in (1, 2, 3)}
    nv = node_values(fits, 3, c=4, m=2, d=4)
    for delta in range(4):
        assert nv[delta] == severi_degree(Sigma(2, 4, 4), delta, table=chtable)


def test_nodepoly_json_roundtrip():
    from refsev.nodepoly import NodePolynomial
    np = fit_node_polynomial("p2", 2)
    back = NodePolynomial.from_dict(np.to_dict())
    assert back.basis == np.basis and back.coeffs == np.coeffs
    assert back.q_at(d=9) == np.q_at(d=9)
    assert back.fitted_from == np.fitted_from
    assert NodePolynomial("p2", 1, (), []).fitted_from is not \
        NodePolynomial("p2", 1, (), []).fitted_from


@pytest.mark.parametrize("family", ["p2", "sigma"])
def test_fit_sweeps_each_c_m_once(family, monkeypatch):
    # the fits of --delta 1-5: each makes one sweep of s(c, m, dmax) per
    # distinct (c, m) among its probe and held-out points, at the largest d
    # among them, and each value is the engine's; the five share the
    # placement table of each cogenus
    sweeps = []
    sweep = nodepoly.refined_counts_by_prefix

    def sweeping(beta, delta, y="sym"):
        sweeps.append((tuple(beta), delta))
        return sweep(beta, delta, y)

    monkeypatch.setattr(nodepoly, "refined_counts_by_prefix", sweeping)
    graphs._placement_tables.cache_clear()
    fits = {}
    for delta in range(1, 6):
        sweeps.clear()
        np = fits[delta] = fit_node_polynomial(family, delta)
        dmax: dict = {}
        for c, m, d in np.fitted_from + np.validated_on:
            dmax[c, m] = max(d, dmax.get((c, m), d))
        assert sorted(sweeps) == sorted((s_beta(c, m, d), delta)
                                        for (c, m), d in dmax.items())
    assert graphs._placement_tables.cache_info().misses <= 5
    monkeypatch.undo()
    for delta in (1, 5):
        np = fits[delta]
        for c, m, d in np.fitted_from + np.validated_on:
            assert np.q_at(c=c, m=m, d=d) == q_log_count(s_beta(c, m, d), delta)


def test_held_out_mismatch_rejects_the_fit(monkeypatch):
    # one perturbed held-out engine value (p2, delta = 1 validates on
    # d = 4, 5, 6) rejects the fit and names the point
    real = nodepoly._engine_q

    def perturbed(points, delta):
        values = real(points, delta)
        values[0, 1, 5] = values[0, 1, 5] + YLaurent.const(1)
        return values

    monkeypatch.setattr(nodepoly, "_engine_q", perturbed)
    with pytest.raises(ValueError, match=r"held-out mismatch for p2 delta=1 at "
                                         r"\(c,m,d\)=\(0,1,5\): fit rejected"):
        fit_node_polynomial("p2", 1)
