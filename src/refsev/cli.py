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
from .cache import CacheStore
from .caporaso import CHTable, P2, P11m, Sigma, relative_degree, severi_degree
from .conjectures import CHECK_IDS, check_conjecture
from .genfun import Invariants, solve_universal_B
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


def _bundle(args):
    if args.surface == "p2":
        return P2(args.d)
    if args.surface == "p11m":
        return P11m(args.m, args.d)
    if args.surface == "sigma":
        return Sigma(args.m, args.c, args.d)
    raise ValueError(f"unknown surface {args.surface!r}")


def _table(args) -> CHTable:
    path = getattr(args, "cache", None)
    if path is None:
        base = os.environ.get(CACHE_ENV)
        if base:
            os.makedirs(base, exist_ok=True)
            path = os.path.join(base, "ch-cache.txt")
    if path:
        return CHTable(store=CacheStore(path))
    return CHTable()


# -- output ----------------------------------------------------------------------


def _yl_json(v: YLaurent):
    return v.to_triples()


def _emit(out, config: dict, rows: list, fmt: str, value_kind: str = "ylaurent"):
    """rows: list of (params dict, value). Deterministic ordering is the
    caller's job; every format embeds the config header."""
    if fmt == "json":
        payload = {"config": config, "rows": []}
        for params, value in rows:
            if isinstance(value, YLaurent):
                enc = _yl_json(value)
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


def _cmd_compute(args, out) -> int:
    table = _table(args)
    rows = []
    y = Y_VALUES[args.y]
    config = {
        "command": "compute", "surface": args.surface, "m": args.m, "c": args.c,
        "d": args.d_raw, "delta": args.delta_raw, "k": args.k, "y": args.y,
        "format": args.format,
    }
    if args.k is not None:
        d_list = [_parse_half(x) for x in args.d_raw.split(",")]
    else:
        d_list = _parse_range(args.d_raw)
    for d in d_list:
        for delta in _parse_range(args.delta_raw):
            if args.k is not None:
                k = _parse_half(args.k)
                if args.surface != "sigma" or args.m != 2:
                    raise ValueError("--k needs --surface sigma --m 2")
                dp = QQ(d) - k
                if dp.denominator != 1 or dp < 0:
                    raise ValueError("--k needs d - k a nonnegative integer")
                bundle = Sigma(2, int(2 * k), int(dp))
                params = {"surface": "sigma2-blowup", "d": str(d), "k": str(k),
                          "delta": delta, "y": args.y}
            else:
                bundle = _bundle(argparse.Namespace(surface=args.surface,
                                                    m=args.m, c=args.c, d=d))
                params = {"surface": args.surface, "m": args.m, "c": args.c,
                          "d": d, "delta": delta, "y": args.y}
            val = severi_degree(bundle, delta, y=y, table=table)
            rows.append((params, val))
    _emit(out, config, rows, args.format)
    table.flush()
    return 0


def _cmd_relative(args, out) -> int:
    table = _table(args)
    y = Y_VALUES[args.y]
    bundle = _bundle(args)
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
    d0 = max(args.order, 2)
    data = [
        (Invariants.of(b),
         {dl: severi_degree(b, dl, y=y, table=table) for dl in range(args.order)})
        for b in (P2(d0), Sigma(0, d0, d0))
    ]
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
    """The check id a --id value names ('fbar' and 'cross-engine' are
    aliases; dashes stand for underscores); SystemExit when there is none."""
    cid = {"fbar": "fbar_closed_form", "cross-engine": "cross_engine"}.get(
        text, text.replace("-", "_") if text not in CHECK_IDS else text
    )
    if cid not in CHECK_IDS:
        raise SystemExit(f"unknown verify id {text!r}; known: {', '.join(CHECK_IDS)}")
    return cid


def _cmd_verify(args, out) -> int:
    table = _table(args)
    cid = verify_id(args.id)
    params = {}
    if cid == "cross_engine":
        params = {"cmax": args.cmax, "dmax": args.dmax, "mmax": args.mmax,
                  "deltamax": args.deltamax}
    elif cid == "solveB":
        params = {"order": args.order or 5}
    elif cid == "fbar_closed_form":
        params = {"K": args.order or 40, "param": args.lmax}
    elif cid in ("refpol", "GSPSigmaW"):
        if args.deltamax is not None:
            params["delta_max"] = args.deltamax
        if args.dmax is not None:
            params["d_max"] = args.dmax
    rep = check_conjecture(cid, table=table, **params)
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

    def common(q, with_y=True):
        q.add_argument("--format", choices=("json", "csv", "text"), default="text")
        q.add_argument("--cache", default=None, help="persistent recursion cache file")
        if with_y:
            q.add_argument("--y", choices=tuple(Y_VALUES), default="sym")

    c = sub.add_parser("compute", help="refined/Severi/Welschinger degrees")
    c.add_argument("--surface", choices=("p2", "p11m", "sigma"), required=True)
    c.add_argument("--m", type=int, default=1)
    c.add_argument("--c", type=int, default=0)
    c.add_argument("--d", dest="d_raw", required=True, help="degree or range a-b")
    c.add_argument("--delta", dest="delta_raw", required=True, help="cogenus or range")
    c.add_argument("--k", default=None, help="blowup multiplicity (halves as n/2)")
    common(c)
    c.set_defaults(func=_cmd_compute)

    r = sub.add_parser("relative", help="relative degrees N(alpha, beta)")
    r.add_argument("--surface", choices=("p2", "p11m", "sigma"), required=True)
    r.add_argument("--m", type=int, default=1)
    r.add_argument("--c", type=int, default=0)
    r.add_argument("--d", type=int, required=True)
    r.add_argument("--delta", type=int, required=True)
    r.add_argument("--alpha", default="", help="comma list, e.g. 1,0,2")
    r.add_argument("--beta", default="", help="comma list")
    common(r)
    r.set_defaults(func=_cmd_relative)

    f = sub.add_parser("fit-nodepoly", help="fit Q_delta polynomial shapes")
    f.add_argument("--family", choices=("p2", "p11m-fixed-m", "p1xp1", "sigma", "p11m"),
                   required=True)
    f.add_argument("--delta", dest="delta_raw", required=True)
    f.add_argument("--m", type=int, default=None)
    common(f, with_y=False)
    f.set_defaults(func=_cmd_fit_nodepoly)

    s = sub.add_parser("solve-B", help="recover the universal series from engine data")
    s.add_argument("--order", type=int, default=5)
    common(s)
    s.set_defaults(func=_cmd_solve_b)

    se = sub.add_parser("series", help="print a named q-series")
    se.add_argument("--name", required=True)
    se.add_argument("--order", type=int, default=modular.DEFAULT_TRUNC)
    se.add_argument("--param", type=int, default=None)
    common(se, with_y=False)
    se.set_defaults(func=_cmd_series)

    v = sub.add_parser("verify", help="run a conjecture/identity check")
    v.add_argument("--id", required=True)
    v.add_argument("--order", type=int, default=None)
    v.add_argument("--lmax", type=int, default=12)
    v.add_argument("--cmax", type=int, default=4)
    v.add_argument("--dmax", type=int, default=None)
    v.add_argument("--mmax", type=int, default=2)
    v.add_argument("--deltamax", type=int, default=None)
    common(v, with_y=False)
    v.set_defaults(func=_cmd_verify)

    e = sub.add_parser("export-tables", help="dump the embedded tables")
    common(e, with_y=False)
    e.set_defaults(func=_cmd_export_tables)

    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    # verify's cross-engine grid wants explicit defaults
    if args.command == "verify":
        if args.dmax is None and args.id in ("cross-engine", "cross_engine"):
            args.dmax = 4
        if args.deltamax is None and args.id in ("cross-engine", "cross_engine"):
            args.deltamax = 3
    try:
        return args.func(args, sys.stdout)
    except SystemExit:
        raise
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
