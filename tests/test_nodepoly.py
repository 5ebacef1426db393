import pytest

from refsev import graphs, nodepoly
from refsev.caporaso import P2, Sigma, severi_degree
from refsev.cli import main
from refsev.graphs import q_log_count, s_beta
from refsev.nodepoly import fit_node_polynomial, fit_node_polynomials, node_values
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


@pytest.mark.parametrize("family", ["p2", "p1xp1", "sigma", "p11m", "p11m-fixed-m"])
def test_a_delta_that_is_no_int_is_refused_by_its_name(family):
    # the points of a fit take delta as their d, so 1.5 was refused as
    # "d = 1.5" or "degree d = 1.5", and True fitted Q_1
    m = 2 if family == "p11m-fixed-m" else None
    for delta in (1.5, True):
        with pytest.raises(ValueError, match=f"^delta = {delta} is not an integer$"):
            fit_node_polynomials(family, [2, delta], m)


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
    # the fit of --delta 1-5 makes one sweep of s(c, m, dmax) per distinct
    # (c, m) among the probe and held-out points of every delta, at the
    # largest d and the largest delta among them; the sweeps share one
    # set of placement tables, the templates of each cogenus are walked
    # once, and each value is the engine's
    sweeps, tables, walked = [], set(), []
    sweep, templates = graphs.refined_counts_by_prefix, graphs.enumerate_templates

    def sweeping(beta, delta, y="sym", sums=None):
        sweeps.append((tuple(beta), delta))
        tables.add(id(sums))
        return sweep(beta, delta, y, sums)

    def walking(kappa):
        walked.append(kappa)
        return templates(kappa)

    monkeypatch.setattr(graphs, "refined_counts_by_prefix", sweeping)
    monkeypatch.setattr(graphs, "enumerate_templates", walking)
    fits = fit_node_polynomials(family, range(1, 6))
    top: dict = {}
    for delta, np in fits.items():
        for c, m, d in np.fitted_from + np.validated_on:
            dmax, deltamax = top.get((c, m), (d, delta))
            top[c, m] = max(d, dmax), max(delta, deltamax)
    assert sorted(sweeps) == sorted((s_beta(c, m, d), delta)
                                    for (c, m), (d, delta) in top.items())
    assert len(tables) == 1 and id(None) not in tables
    assert family != "p2" or sweeps == [(s_beta(0, 1, 10), 5)]
    assert walked == [1, 2, 3, 4, 5]
    monkeypatch.undo()
    for delta in (1, 5):
        np = fits[delta]
        for c, m, d in np.fitted_from + np.validated_on:
            assert np.q_at(c=c, m=m, d=d) == q_log_count(s_beta(c, m, d), delta)


@pytest.mark.parametrize("family, m", [("p2", None), ("p1xp1", None), ("sigma", None),
                                       ("p11m", None), ("p11m-fixed-m", 2)])
def test_range_fit_equals_the_fits_one_delta_at_a_time(family, m):
    fits = fit_node_polynomials(family, range(1, 5), m=m)
    assert list(fits) == [1, 2, 3, 4]
    for delta, np in fits.items():
        assert np.to_dict() == fit_node_polynomial(family, delta, m=m).to_dict()


def _raise_one_count(monkeypatch, point, delta):
    """nodepoly reads the count of cogenus delta at point raised by 1."""
    real = nodepoly.refined_counts_at

    def perturbed(points, dl=None):
        counts = real(points, dl)
        row = counts[point]
        counts[point] = [*row[:delta], row[delta] + YLaurent.const(1), *row[delta + 1:]]
        return counts

    monkeypatch.setattr(nodepoly, "refined_counts_at", perturbed)


def test_range_fit_rejects_at_the_first_mismatching_delta(monkeypatch, capsys):
    # (0, 1, 8) is held out at delta = 3 and probed by no smaller delta, so
    # the range fit and the command that runs it stop at delta = 3
    _raise_one_count(monkeypatch, (0, 1, 8), 3)
    message = "held-out mismatch for p2 delta=3 at (c,m,d)=(0,1,8): fit rejected"
    with pytest.raises(ValueError) as err:
        fit_node_polynomials("p2", range(1, 6))
    assert str(err.value) == message
    assert main(["fit-nodepoly", "--family", "p2", "--delta", "1-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_held_out_mismatch_rejects_the_fit(monkeypatch):
    # one perturbed held-out engine count (p2, delta = 1 validates on
    # d = 4, 5, 6) rejects the fit and names the point
    _raise_one_count(monkeypatch, (0, 1, 5), 1)
    with pytest.raises(ValueError, match=r"held-out mismatch for p2 delta=1 at "
                                         r"\(c,m,d\)=\(0,1,5\): fit rejected"):
        fit_node_polynomial("p2", 1)
