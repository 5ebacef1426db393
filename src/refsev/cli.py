"""Command-line front end.

Subcommands: compute | relative | fit-nodepoly | solve-B | series | verify
| export-tables. Every run embeds its full configuration in the output
header, outputs are deterministic, and exact rationals are serialized as
decimal strings. Exit status: 0 success, 1 verification failure, 2 usage
error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import modular, tables
from .cache import CacheStore, CacheVersionError
from .caporaso import CHTable, Sigma, SurfaceBundle, relative_degree, severi_degree
from .conjectures import CHECK_IDS, check_conjecture
from .genfun import engine_data, solve_bundles, solve_universal_B
from .nodepoly import fit_node_polynomial
from .qseries import QSeries
from .rationals import QQ
from .ylaurent import YLaurent

CACHE_ENV = "REFSEV_CACHE_DIR"
# --y text -> the y of the value rings
Y_VALUES = {"sym": "sym", "1": 1, "-1": -1}


# -- small parsers ---------------------------------------------------------------


def _parse_range(text: str):
    """'3' -> [3]; '0-4' -> [0,1,2,3,4]; an empty range ('3-1') is refused."""
    if "-" in text.lstrip("-")[1:] or ("-" in text and not text.startswith("-")):
        lo, _, hi = text.partition("-")
        if int(hi) < int(lo):
            raise ValueError(f"empty range {text!r}: {hi} is below {lo}")
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


def _parse_half(text: str) -> QQ:
    """Accept '2' or '3/2'."""
    if "/" in text:
        num, _, den = text.partition("/")
        return QQ(int(num), int(den))
    return QQ(int(text))


def _parse_seq(text: str) -> tuple:
    if not text:
        return ()
    return tuple(int(x) for x in text.split(","))


def _table(args) -> CHTable:
    """The recursion table, on the --cache file or the one in CACHE_ENV;
    ValueError naming the path when it cannot be created or opened."""
    path = args.cache
    try:
        if path is None:
            base = os.environ.get(CACHE_ENV)
            if base:
                os.makedirs(base, exist_ok=True)
                path = os.path.join(base, "ch-cache.txt")
        return CHTable(store=CacheStore(path)) if path else CHTable()
    except OSError as exc:
        raise ValueError(f"cannot use cache {exc.filename or path}: "
                         f"{exc.strerror}") from exc


# -- output ----------------------------------------------------------------------


def _emit(out, config: dict, rows: list, fmt: str):
    """rows: list of (params dict, value). Deterministic ordering is the
    caller's job; every format embeds the config header."""
    if fmt == "json":
        payload = {"config": config, "rows": []}
        for params, value in rows:
            if isinstance(value, YLaurent):
                enc = value.to_triples()
            elif hasattr(value, "to_dict"):
                enc = value.to_dict()
            else:
                enc = str(value)
            payload["rows"].append({"params": params, "value": enc})
        out.write(json.dumps(payload, indent=1) + "\n")
        return
    if fmt == "csv":
        out.write("# " + json.dumps(config, separators=(",", ":")) + "\n")
        out.write("params,doubled_y_exponent,numerator,denominator\n")
        for params, value in rows:
            tag = ";".join(f"{k}={v}" for k, v in params.items())
            if isinstance(value, YLaurent):
                terms = sorted(value.terms.items()) or [(0, QQ(0))]
                for e, c in terms:
                    out.write(f"{tag},{e},{c.numerator},{c.denominator}\n")
            elif isinstance(value, QSeries):
                for i, c in enumerate(value.coeffs):
                    qe = value.exponent(value.lead + i)
                    for e, cc in sorted(c.terms.items()) or [(0, QQ(0))]:
                        out.write(
                            f"{tag};q={qe},{e},{cc.numerator},{cc.denominator}\n"
                        )
            else:
                out.write(f"{tag},0,{value},1\n")
        return
    # text
    out.write("# " + json.dumps(config, separators=(",", ":")) + "\n")
    for params, value in rows:
        tag = " ".join(f"{k}={v}" for k, v in params.items())
        out.write(f"{tag}: {value}\n")


# -- subcommands -------------------------------------------------------------------


def compute_bundles(args) -> list:
    """(row params, bundle) for each degree of a compute run; ValueError
    for a bundle its surface does not have. Under --k the bundle is the
    blowup Sigma(2, 2k, d - k), so --c is refused there."""
    if args.k is None:
        return [({"surface": args.surface, "m": args.m, "c": args.c, "d": d},
                 SurfaceBundle(args.surface, args.m, args.c, d))
                for d in _parse_range(args.d_raw)]
    k = _parse_half(args.k)
    if args.surface != "sigma" or args.m != 2:
        raise ValueError("--k needs --surface sigma --m 2")
    if args.c:
        raise ValueError(f"--k sets c = 2k; --c {args.c} is refused")
    out = []
    for d in map(_parse_half, args.d_raw.split(",")):
        dp = d - k
        if dp.denominator != 1 or dp < 0:
            raise ValueError("--k needs d - k a nonnegative integer")
        out.append(({"surface": "sigma2-blowup", "d": str(d), "k": str(k)},
                    Sigma(2, int(2 * k), int(dp))))
    return out


def _cmd_compute(args, out) -> int:
    bundles = compute_bundles(args)
    deltas = _parse_range(args.delta_raw)
    table = _table(args)
    rows = []
    y = Y_VALUES[args.y]
    config = {
        "command": "compute", "surface": args.surface, "m": args.m, "c": args.c,
        "d": args.d_raw, "delta": args.delta_raw, "k": args.k, "y": args.y,
        "format": args.format,
    }
    for params, bundle in bundles:
        for delta in deltas:
            val = severi_degree(bundle, delta, y=y, table=table)
            rows.append(({**params, "delta": delta, "y": args.y}, val))
    _emit(out, config, rows, args.format)
    table.flush()
    return 0


def _cmd_relative(args, out) -> int:
    bundle = SurfaceBundle(args.surface, args.m, args.c, args.d)
    table = _table(args)
    y = Y_VALUES[args.y]
    alpha = _parse_seq(args.alpha)
    beta = _parse_seq(args.beta)
    config = {
        "command": "relative", "surface": args.surface, "m": args.m,
        "c": args.c, "d": args.d, "delta": args.delta, "alpha": args.alpha,
        "beta": args.beta, "y": args.y, "format": args.format,
    }
    val = relative_degree(bundle, args.delta, alpha, beta, y=y, table=table)
    _emit(out, config, [({"delta": args.delta}, val)], args.format)
    table.flush()
    return 0


def _cmd_fit_nodepoly(args, out) -> int:
    config = {"command": "fit-nodepoly", "family": args.family,
              "delta": args.delta_raw, "m": args.m, "format": args.format}
    rows = []
    for delta in _parse_range(args.delta_raw):
        np = fit_node_polynomial(args.family, delta, m=args.m)
        if args.format == "json":
            rows.append(({"delta": delta}, np))
        else:
            for name, coeff in zip(np.basis, np.coeffs):
                rows.append(({"delta": delta, "monomial": name}, coeff))
    _emit(out, config, rows, args.format)
    return 0


def _cmd_solve_b(args, out) -> int:
    if args.order < 1:
        raise ValueError("--order must be >= 1")
    table = _table(args)
    config = {"command": "solve-B", "order": args.order, "y": args.y,
              "format": args.format}
    y = Y_VALUES[args.y]
    data = engine_data(solve_bundles(args.order), args.order, y, table)
    B1, B2 = solve_universal_B(data, args.order, y=y)
    _emit(out, config, [({"series": "B1"}, B1), ({"series": "B2"}, B2)],
          args.format)
    table.flush()
    return 0


def _cmd_series(args, out) -> int:
    config = {"command": "series", "name": args.name, "order": args.order,
              "param": args.param, "format": args.format}
    s = modular.named_series(args.name, args.order, param=args.param)
    _emit(out, config, [({"name": args.name}, s)], args.format)
    return 0


def verify_id(text: str) -> str:
    """The check id a --id value names ('fbar' is an alias; dashes stand
    for underscores); argparse.ArgumentTypeError when there is none."""
    cid = "fbar_closed_form" if text == "fbar" else text.replace("-", "_")
    if cid not in CHECK_IDS:
        raise argparse.ArgumentTypeError(
            f"unknown verify id {text!r}; known: {', '.join(CHECK_IDS)}")
    return cid


# verify's range flags (--order-minus1 for order_minus1), all defaulting to
# None so that a given one is seen
VERIFY_RANGE_FLAGS = ("order", "order_minus1", "lmax", "cmax", "dmax", "mmax",
                      "deltamax")
_POSITIVE_FLAGS = ("order", "order_minus1", "lmax")
_P2_RANGES = {"deltamax": ("delta_max", None), "dmax": ("d_max", None)}
# check id -> {flag: (check parameter, CLI default)}; a CLI default of None
# leaves the check's own; a check missing here takes no flag, as
# fhat_general_tables, which compares a fixed q^3 expansion at any order
VERIFY_FLAGS = {
    **{i: {"order": ("K", 15)} for i in modular.SERIES_IDENTITIES
       if i != "fhat_general_tables"},
    "cross_engine": {"cmax": ("cmax", 4), "dmax": ("dmax", 4),
                     "mmax": ("mmax", 2), "deltamax": ("deltamax", 3)},
    "solveB": {"order": ("order", 5), "order_minus1": ("order_minus1", 9)},
    "fbar_closed_form": {"order": ("K", 40), "lmax": ("param", 12)},
    "refpol": _P2_RANGES,
    "GSPSigmaW": _P2_RANGES,
}


def verify_params(args) -> dict:
    """The check parameters verify's flags set for the check args.id;
    ValueError for a flag that check does not take, and for a non-positive
    --order, --order-minus1 or --lmax."""
    takes = VERIFY_FLAGS.get(args.id, {})
    for flag in VERIFY_RANGE_FLAGS:
        if getattr(args, flag) is not None and flag not in takes:
            raise ValueError(f"verify --id {args.id} takes no {_option(flag)}")
    params = {}
    for flag, (name, default) in takes.items():
        value = getattr(args, flag)
        if value is None:
            value = default
        elif flag in _POSITIVE_FLAGS and value < 1:
            raise ValueError(f"{_option(flag)} must be >= 1")
        if value is not None:
            params[name] = value
    return params


def _option(flag: str) -> str:
    """The command-line spelling of a verify range flag."""
    return "--" + flag.replace("_", "-")


def _cmd_verify(args, out) -> int:
    params = verify_params(args)
    table = _table(args)
    rep = check_conjecture(args.id, table=table, **params)
    out.write(rep.summary() + "\n")
    table.flush()
    return 0 if rep.ok else 1


def _cmd_export_tables(args, out) -> int:
    out.write("# B1 (symmetric-table format, trusted to q^17)\n")
    out.write(tables.B1_TEXT.strip() + "\n")
    out.write("# B2 bracket (full B2 = bracket/((1-yq)(1-q/y)))\n")
    out.write(tables.B2_BRACKET_TEXT.strip() + "\n")
    out.write("# B1bar (y=-1, q^0..q^30)\n")
    out.write(" ".join(str(x) for x in tables.B1BAR) + "\n")
    out.write("# B2bar (y=-1, q^0..q^30)\n")
    out.write(" ".join(str(x) for x in tables.B2BAR) + "\n")
    out.write("# Fhat_c3\n")
    out.write(tables.FHAT_C3_TEXT.strip() + "\n")
    out.write("# Fhat_c4\n")
    out.write(tables.FHAT_C4_TEXT.strip() + "\n")
    return 0


# -- parser -------------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="refsev",
        description="Refined Severi degrees, node polynomials and tropical "
                    "Welschinger numbers by exact arithmetic.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(q, *names):
        """Add the shared options named among format, cache and y."""
        if "format" in names:
            q.add_argument("--format", choices=("json", "csv", "text"), default="text")
        if "cache" in names:
            q.add_argument("--cache", default=None, help="persistent recursion cache file")
        if "y" in names:
            q.add_argument("--y", choices=tuple(Y_VALUES), default="sym")

    c = sub.add_parser("compute", help="refined/Severi/Welschinger degrees")
    c.add_argument("--surface", choices=("p2", "p11m", "sigma"), required=True)
    c.add_argument("--m", type=int, default=1)
    c.add_argument("--c", type=int, default=0)
    c.add_argument("--d", dest="d_raw", required=True, help="degree or range a-b")
    c.add_argument("--delta", dest="delta_raw", required=True, help="cogenus or range")
    c.add_argument("--k", default=None, help="blowup multiplicity (halves as n/2)")
    common(c, "format", "cache", "y")
    c.set_defaults(func=_cmd_compute)

    r = sub.add_parser("relative", help="relative degrees N(alpha, beta)")
    r.add_argument("--surface", choices=("p2", "p11m", "sigma"), required=True)
    r.add_argument("--m", type=int, default=1)
    r.add_argument("--c", type=int, default=0)
    r.add_argument("--d", type=int, required=True)
    r.add_argument("--delta", type=int, required=True)
    r.add_argument("--alpha", default="", help="comma list, e.g. 1,0,2")
    r.add_argument("--beta", default="", help="comma list")
    common(r, "format", "cache", "y")
    r.set_defaults(func=_cmd_relative)

    f = sub.add_parser("fit-nodepoly", help="fit Q_delta polynomial shapes")
    f.add_argument("--family", choices=("p2", "p11m-fixed-m", "p1xp1", "sigma", "p11m"),
                   required=True)
    f.add_argument("--delta", dest="delta_raw", required=True)
    f.add_argument("--m", type=int, default=None)
    common(f, "format")
    f.set_defaults(func=_cmd_fit_nodepoly)

    s = sub.add_parser("solve-B", help="recover the universal series from engine data")
    s.add_argument("--order", type=int, default=5)
    common(s, "format", "cache", "y")
    s.set_defaults(func=_cmd_solve_b)

    se = sub.add_parser("series", help="print a named q-series")
    se.add_argument("--name", required=True)
    se.add_argument("--order", type=int, default=modular.DEFAULT_TRUNC)
    se.add_argument("--param", type=int, default=None)
    common(se, "format")
    se.set_defaults(func=_cmd_series)

    v = sub.add_parser("verify", help="run a conjecture/identity check")
    v.add_argument("--id", type=verify_id, required=True)
    for flag in VERIFY_RANGE_FLAGS:
        v.add_argument(_option(flag), type=int, default=None)
    common(v, "cache")
    v.set_defaults(func=_cmd_verify)

    e = sub.add_parser("export-tables", help="dump the embedded tables")
    e.set_defaults(func=_cmd_export_tables)

    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except (ValueError, KeyError, CacheVersionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
