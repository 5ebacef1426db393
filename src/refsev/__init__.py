"""refsev: refined Severi degrees, node polynomials and tropical Welschinger
numbers for P^2, P(1,1,m) and the rational ruled surfaces Sigma_m, computed by
two independent exact engines (the Caporaso-Harris recursion and long-edge
graphs), plus generating-function verification; the brute-force oracles,
floor diagrams among them, live in tests/."""

from .caporaso import CHTable, P2, P11m, Sigma, SurfaceBundle, \
    relative_degree, severi_degree, severi_degrees, welschinger_degree
from .conjectures import CHECK_IDS, ConjectureReport, check_conjecture
from .graphs import q_log_count, refined_count, refined_counts, s_beta
from .modular import named_series
from .qseries import QSeries, compose, compose_inverse
from .ylaurent import YLaurent, qnum

__version__ = "0.1.0"

__all__ = [
    "CHECK_IDS", "CHTable", "ConjectureReport", "P2", "P11m", "QSeries",
    "Sigma", "SurfaceBundle", "YLaurent", "check_conjecture", "compose",
    "compose_inverse", "named_series",
    "q_log_count", "qnum", "refined_count", "refined_counts",
    "relative_degree", "s_beta", "severi_degree", "severi_degrees",
    "welschinger_degree", "__version__",
]
