"""Node-polynomial fitting.

Q_delta, the t^delta coefficient of log of the degree generating series,
is polynomial in the bundle parameters once they are large enough:

  * degree <= 2 in d at fixed (c, m);
  * a linear combination of 1, c, d, cd, m, md, md^2 for c, d >= delta;
  * of 1, c+d, cd on P^1 x P^1;
  * of 1, m, d, dm, d^2m for d, m >= delta.

Fits are exact (rational linear solves) of the Q_delta of the graph
counts, which a fit of any range of delta takes from one
graphs.refined_counts_at call; they are always validated on held-out
sample points, and exponentiate to node polynomials N_delta.
"""
from __future__ import annotations

from .caporaso import SurfaceBundle
from .graphs import refined_counts_at
from .linalg import solve_exact
from .qseries import QSeries
from .rationals import QQ, check_int, choose
from .ylaurent import YLaurent, YL_ZERO

__all__ = ["NodePolynomial", "fit_node_polynomial", "fit_node_polynomials", "node_values"]


BASES = {
    "p2": ("1", "d", "d^2"),
    "p11m-fixed-m": ("1", "d", "d^2"),
    "p1xp1": ("1", "c+d", "cd"),
    "sigma": ("1", "c", "d", "cd", "m", "md", "md^2"),
    "p11m": ("1", "m", "d", "dm", "d^2m"),
}

_MONOMIALS = {
    "1": lambda c, m, d: 1,
    "d": lambda c, m, d: d,
    "d^2": lambda c, m, d: d * d,
    "c": lambda c, m, d: c,
    "cd": lambda c, m, d: c * d,
    "c+d": lambda c, m, d: c + d,
    "m": lambda c, m, d: m,
    "md": lambda c, m, d: m * d,
    "md^2": lambda c, m, d: m * d * d,
    "dm": lambda c, m, d: d * m,
    "d^2m": lambda c, m, d: d * d * m,
}


class NodePolynomial:
    """A fitted Q_delta with its provenance; evaluation reproduces the
    engine value exactly on the validated range."""

    def __init__(self, family: str, delta: int, basis: tuple, coeffs: list,
                 fitted_from=None, validated_on=None):
        self.family = family
        self.delta = delta
        self.basis = basis
        self.coeffs = coeffs
        self.fitted_from = [] if fitted_from is None else fitted_from
        self.validated_on = [] if validated_on is None else validated_on

    def q_at(self, c=0, m=0, d=0) -> YLaurent:
        for name, value in zip("cmd", (c, m, d)):
            check_int(name, value, 0)
        acc = YL_ZERO
        for name, coef in zip(self.basis, self.coeffs):
            k = _MONOMIALS[name](c, m, d)
            if k:
                acc = acc + coef.scale(QQ(k))
        return acc

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "delta": self.delta,
            "basis": list(self.basis),
            "coeffs": [c.to_triples() for c in self.coeffs],
            "fitted_from": [list(p) for p in self.fitted_from],
            "validated_on": [list(p) for p in self.validated_on],
        }

    @staticmethod
    def from_dict(d: dict) -> "NodePolynomial":
        return NodePolynomial(
            d["family"], d["delta"], tuple(d["basis"]),
            [YLaurent.from_triples(t) for t in d["coeffs"]],
            fitted_from=[tuple(p) for p in d["fitted_from"]],
            validated_on=[tuple(p) for p in d["validated_on"]],
        )


def _plan(family: str, delta: int, m):
    """(probes, held-out points) of the fit of Q_delta, on the ranges the
    shape theorems allow. 'p11m-fixed-m': degree 2 in d at fixed m (pass m;
    no other family takes one), fitted on d = delta..delta+2, validated on
    d = delta+3..delta+5; 'p2' is that fit at m = 1. 'p1xp1': {1, c+d, cd}
    on c,d >= delta. 'sigma': the seven-term form on c,d >= delta, m in
    {0,1,2}. 'p11m': {1,m,d,dm,d^2m} on d,m >= delta. Q_delta starts at delta = 1."""
    check_int("delta", delta, 1)  # before the points, which take it as d
    choose("family", family, BASES)
    if m is not None and family != "p11m-fixed-m":
        raise ValueError(f"the {family} fit takes no m (only p11m-fixed-m does)")
    d0 = delta  # where the ranges of the shape theorems start
    if family in ("p2", "p11m-fixed-m"):
        if family == "p2":
            m = 1  # P^2 is P(1,1,1), its tangencies s(0, 1, d)
        elif m is None:
            raise ValueError("pass m for the fixed-m fit")
        SurfaceBundle("p11m", m, 0, d0)  # refuses m < 1, as compute does
        return ([(0, m, d) for d in range(d0, d0 + 3)],
                [(0, m, d) for d in range(d0 + 3, d0 + 6)])
    if family == "p1xp1":
        return ([(a, 0, b) for a in range(d0, d0 + 2) for b in range(d0, d0 + 2)],
                [(d0 + 2, 0, d0 + 2), (d0, 0, d0 + 3), (d0 + 3, 0, d0 + 1)])
    if family == "sigma":
        # m = 0 separates {1, c, d, cd}; three d at m = 1 separate {m, md, md^2}
        pts = [(a, 0, b) for a in (d0, d0 + 1) for b in (d0, d0 + 1)]
        return pts + [(d0, 1, b) for b in (d0, d0 + 1, d0 + 2)], [
            (a, mm, b) for mm in (0, 1, 2)
            for (a, b) in ((d0 + 2, d0 + 2), (d0, d0 + 3), (d0 + 3, d0 + 1))]
    return ([(0, d0, b) for b in (d0, d0 + 1, d0 + 2)]  # p11m
            + [(0, d0 + 1, b) for b in (d0, d0 + 1)],
            [(0, d0 + 3, d0 + 2), (0, d0, d0 + 3), (0, d0 + 2, d0 + 3), (0, d0 + 2, d0 + 1)])


def fit_node_polynomials(family: str, deltas, m: int = None) -> dict:
    """{delta: Q_delta} fitted for the family on the points of _plan, in
    the order of deltas; the first held-out mismatch raises. Every point
    comes from one refined_counts_at call, at the largest delta that reads
    it, and one log of its row gives its Q_delta for every delta."""
    plans = {delta: _plan(family, delta, m) for delta in deltas}
    asked: dict = {}
    for delta in sorted(plans):  # each point at the largest delta that reads it
        asked.update(dict.fromkeys(plans[delta][0] + plans[delta][1], delta))
    logs = {p: QSeries(row, trunc=len(row)).log()
            for p, row in refined_counts_at(asked).items()}
    fits = {}
    for delta, (probes, holdout) in plans.items():
        basis = BASES[family]
        A = [[QQ(_MONOMIALS[name](c, m, d)) for name in basis] for c, m, d in probes]
        coeffs = solve_exact(A, [logs[p].coeff_at(delta) for p in probes])
        np = fits[delta] = NodePolynomial(family, delta, basis, coeffs, probes)
        for (c, m, d) in holdout:
            if np.q_at(c=c, m=m, d=d) != logs[c, m, d].coeff_at(delta):
                raise ValueError(f"held-out mismatch for {family} delta={delta} "
                                 f"at (c,m,d)=({c},{m},{d}): fit rejected")
            np.validated_on.append((c, m, d))
    return fits


def fit_node_polynomial(family: str, delta: int, m: int = None) -> NodePolynomial:
    """Fit Q_delta for the family: the one-delta case of fit_node_polynomials."""
    return fit_node_polynomials(family, [delta], m)[delta]


def node_values(fits: dict, delta_max: int, c=0, m=0, d=0) -> dict:
    """N_delta values at a parameter point from fitted Q polynomials:
    the exponential of sum Q_delta t^delta. A delta_max, c, m or d that is
    no int or negative, or a delta <= delta_max with no fit, raises ValueError."""
    for name, value in zip(("delta_max", "c", "m", "d"), (delta_max, c, m, d)):
        check_int(name, value, 0)
    qs = [YL_ZERO]
    for delta in range(1, delta_max + 1):
        if delta not in fits:
            raise ValueError(f"fits has no delta = {delta}, which delta_max = {delta_max} needs")
        qs.append(fits[delta].q_at(c=c, m=m, d=d))
    series = QSeries(qs, trunc=delta_max + 1).exp()
    return {delta: series.coeff_at(delta) for delta in range(delta_max + 1)}
