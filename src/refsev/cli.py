"""Command-line front end.

Subcommands: compute | relative | fit-nodepoly | solve-B | series | verify
| export-tables, each a function from the parsed options (and the recursion
table, when it takes --cache) to its result. `main` alone owns the cache
file, writes the result under a header of every option but --cache and sets
the exit status: 0 success, 1 verification failure, 2 usage error, 141
when the reader of stdout closed it first (128 + SIGPIPE, as a shell
reports a process the signal ended). Outputs are deterministic; exact
rationals are serialized as decimal strings.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import modular, tables
from .cache import CacheStore, CacheVersionError
from .caporaso import SURFACES, CHTable, Sigma, SurfaceBundle, relative_degree, severi_degrees
from .conjectures import CHECK_IDS, ConjectureReport, check_conjecture, check_parameters, option
from .genfun import engine_data, solve_bundles, solve_universal_B
from .nodepoly import BASES, fit_node_polynomials
from .qseries import QSeries
from .rationals import QQ, check_int
from .ylaurent import RINGS, YLaurent

CACHE_ENV = "REFSEV_CACHE_DIR"
# --y text -> the y of the value rings
Y_VALUES = {str(y): y for y in RINGS}


# -- small parsers ---------------------------------------------------------------


def _int(part: str, option: str, text: str) -> int:
    """part of the text given to option as an int; a ValueError naming
    both when it is none."""
    try:
        return int(part)
    except ValueError:
        raise ValueError(f"{option} {text}: {part!r} is not an integer") from None


def _parse_range(text: str, option: str):
    """'3' -> [3]; '0-4' -> [0,1,2,3,4]; an empty range ('3-1') is refused."""
    if "-" in text.lstrip("-")[1:]:
        lo, _, hi = text.partition("-")
        lo, hi = _int(lo, option, text), _int(hi, option, text)
        if hi < lo:
            raise ValueError(f"empty range {text!r}: {hi} is below {lo}")
        return list(range(lo, hi + 1))
    return [_int(text, option, text)]


def _parse_half(text: str, option: str) -> QQ:
    """Accept '2' or '3/2'; a zero denominator is refused."""
    num, _, den = text.partition("/")
    den = _int(den, option, text) if den else 1
    if den == 0:
        raise ValueError(f"{option} {text}: zero denominator")
    return QQ(_int(num, option, text), den)


def _parse_seq(text: str, option: str) -> tuple:
    if not text:
        return ()
    return tuple(_int(x, option, text) for x in text.split(","))


def _store(args) -> tuple:
    """The recursion cache on the --cache file or in CACHE_ENV, or None,
    and the directories made for it, deepest first; ValueError for an
    empty --cache, and naming the path when it cannot be created or opened;
    CacheVersionError for a file that is no refsev cache."""
    path, made = args.cache, []
    if path == "":
        raise ValueError("--cache needs a file path")
    try:
        if path is None:
            base = os.environ.get(CACHE_ENV)
            if base:
                made = _missing_dirs(base)
                os.makedirs(base, exist_ok=True)
                path = os.path.join(base, "ch-cache.txt")
        return (CacheStore(path) if path else None), made
    except OSError as exc:
        raise ValueError(f"cannot use cache {exc.filename or path}: "
                         f"{exc.strerror}") from exc
    except CacheVersionError as exc:
        if args.cache is None:
            raise
        raise CacheVersionError(f"{exc}; --cache takes a path that does not exist "
                                "yet or an existing refsev cache") from exc


def _missing_dirs(path: str) -> list:
    """path and those of its ancestors that do not exist, deepest first."""
    out = []
    path = os.path.abspath(path)
    while not os.path.exists(path):
        out.append(path)
        path = os.path.dirname(path)
    return out


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
    out.write("# " + json.dumps(config, separators=(",", ":")) + "\n")
    if fmt == "text":
        for params, value in rows:
            tag = " ".join(f"{k}={v}" for k, v in params.items())
            out.write(f"{tag}: {value}\n")
        return
    out.write("params,doubled_y_exponent,numerator,denominator\n")
    for params, value in rows:
        tag = ";".join(f"{k}={v}" for k, v in params.items())
        # a q-series is one YLaurent per power of q, each tagged with it
        parts = ([(f"{tag};q={value.exponent(value.lead + i)}", c)
                  for i, c in enumerate(value.coeffs)]
                 if isinstance(value, QSeries) else [(tag, value)])
        for label, v in parts:
            if not isinstance(v, YLaurent):
                out.write(f"{label},0,{v},1\n")
                continue
            for e, c in sorted(v.terms.items()) or [(0, QQ(0))]:
                out.write(f"{label},{e},{c.numerator},{c.denominator}\n")


# -- subcommands -------------------------------------------------------------------


def compute_bundles(args) -> list:
    """(row params, bundle) for each degree of a compute run; ValueError
    for a bundle its surface does not have. Under --k the bundle is the
    blowup Sigma(2, 2k, d - k), so --c is refused there, as is a k whose
    2k is not a nonnegative integer."""
    if args.k is None:
        return [({"surface": args.surface, "m": args.m, "c": args.c, "d": d},
                 SurfaceBundle(args.surface, args.m, args.c, d))
                for d in _parse_range(args.d, "--d")]
    k = _parse_half(args.k, "--k")
    if args.surface != "sigma" or args.m != 2:
        raise ValueError("--k needs --surface sigma --m 2")
    if args.c:
        raise ValueError(f"--k sets c = 2k; --c {args.c} is refused")
    if k < 0 or (2 * k).denominator != 1:
        raise ValueError(f"--k {args.k}: 2k must be a nonnegative integer")
    out = []
    for d in (_parse_half(text, "--d") for text in args.d.split(",")):
        dp = d - k
        if dp.denominator != 1 or dp < 0:
            raise ValueError("--k needs d - k a nonnegative integer")
        out.append(({"surface": "sigma2-blowup", "d": str(d), "k": str(k)},
                    Sigma(2, int(2 * k), int(dp))))
    return out


def _cmd_compute(args, table) -> list:
    bundles = compute_bundles(args)
    deltas = _parse_range(args.delta, "--delta")
    check_int("delta", deltas[0], 0)
    y = Y_VALUES[args.y]
    out = []
    for params, bundle in bundles:
        # one row per bundle, to the largest delta asked
        row = severi_degrees(bundle, deltas[-1], y=y, table=table)
        out += [({**params, "delta": delta, "y": args.y}, row[delta]) for delta in deltas]
    return out


def _cmd_relative(args, table) -> list:
    bundle = SurfaceBundle(args.surface, args.m, args.c, args.d)
    val = relative_degree(bundle, args.delta, _parse_seq(args.alpha, "--alpha"),
                          _parse_seq(args.beta, "--beta"), y=Y_VALUES[args.y],
                          table=table)
    return [({"delta": args.delta}, val)]


def _cmd_fit_nodepoly(args) -> list:
    rows = []
    deltas = _parse_range(args.delta, "--delta")
    for delta, np in fit_node_polynomials(args.family, deltas, m=args.m).items():
        if args.format == "json":
            rows.append(({"delta": delta}, np))
        else:
            rows += [({"delta": delta, "monomial": name}, coeff)
                     for name, coeff in zip(np.basis, np.coeffs)]
    return rows


def _cmd_solve_b(args, table) -> list:
    check_int("--order", args.order, 1)
    y = Y_VALUES[args.y]
    data = engine_data(solve_bundles(args.order, y), args.order, y, table)
    B1, B2 = solve_universal_B(data, args.order, y=y)
    return [({"series": "B1"}, B1), ({"series": "B2"}, B2)]


def _cmd_series(args) -> list:
    s = modular.named_series(args.name, args.order, param=args.param)
    return [({"name": args.name}, s)]


def verify_id(text: str) -> str:
    """The check id a --id value names ('fbar' is an alias; dashes stand
    for underscores); argparse.ArgumentTypeError when there is none."""
    cid = "fbar_closed_form" if text == "fbar" else text.replace("-", "_")
    if cid not in CHECK_IDS:
        raise argparse.ArgumentTypeError(
            f"unknown verify id {text!r}; known: {', '.join(CHECK_IDS)}")
    return cid


# verify's range flags, all defaulting to None so that a given one is seen;
# each sets the check's parameter of its name, one not given its default
VERIFY_RANGE_FLAGS = ("order", "order_minus1", "lmax", "cmax", "dmax", "mmax", "deltamax")


def verify_params(args) -> dict:
    """The check parameters the range flags given to verify set (the check
    refuses a bad value); ValueError for a flag check args.id does not
    take, and for a --cache on a series identity, which runs no recursion."""
    given = {f: getattr(args, f) for f in VERIFY_RANGE_FLAGS if getattr(args, f) is not None}
    extra = [flag for flag in given if flag not in check_parameters(args.id)]
    if extra:
        raise ValueError(f"verify --id {args.id} takes no {option(extra[0])}")
    if args.cache is not None and args.id in modular.SERIES_IDENTITIES:
        raise ValueError(f"verify --id {args.id} takes no --cache")
    return given


def _cmd_verify(args, table) -> ConjectureReport:
    return check_conjecture(args.id, table=table, **verify_params(args))


def _cmd_export_tables(args) -> str:
    """The embedded tables, each under a '# title' line."""
    bar = f"q^0..q^{tables.BBAR_TRUSTED - 1}"
    return "".join(f"# {title}\n{body.strip()}\n" for title, body in (
        (f"B1 (symmetric-table format, trusted to q^{tables.B_TRUSTED - 1})",
         tables.B1_TEXT),
        ("B2 bracket (full B2 = bracket/((1-yq)(1-q/y)))", tables.B2_BRACKET_TEXT),
        (f"B1bar (y=-1, {bar})", " ".join(map(str, tables.B1BAR))),
        (f"B2bar (y=-1, {bar})", " ".join(map(str, tables.B2BAR))),
        ("Fhat_c3", tables.FHAT_C3_TEXT),
        ("Fhat_c4", tables.FHAT_C4_TEXT),
    ))


# -- parser -------------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="refsev",
        description="Refined Severi degrees, node polynomials and tropical "
                    "Welschinger numbers by exact arithmetic.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(q, *names):
        """Add the shared options named, in header order: y, format, cache."""
        if "y" in names:
            q.add_argument("--y", choices=tuple(Y_VALUES), default="sym")
        if "format" in names:
            q.add_argument("--format", choices=("json", "csv", "text"), default="text")
        if "cache" in names:
            q.add_argument("--cache", default=None, help="persistent recursion cache file")

    c = sub.add_parser("compute", help="refined/Severi/Welschinger degrees")
    c.add_argument("--surface", choices=SURFACES, required=True)
    c.add_argument("--m", type=int, default=1)
    c.add_argument("--c", type=int, default=0)
    c.add_argument("--d", required=True, help="degree or range a-b")
    c.add_argument("--delta", required=True, help="cogenus or range")
    c.add_argument("--k", default=None, help="blowup multiplicity (halves as n/2)")
    common(c, "y", "format", "cache")
    c.set_defaults(func=_cmd_compute)

    r = sub.add_parser("relative", help="relative degrees N(alpha, beta)")
    r.add_argument("--surface", choices=SURFACES, required=True)
    r.add_argument("--m", type=int, default=1)
    r.add_argument("--c", type=int, default=0)
    r.add_argument("--d", type=int, required=True)
    r.add_argument("--delta", type=int, required=True)
    r.add_argument("--alpha", default="", help="comma list, e.g. 1,0,2")
    r.add_argument("--beta", default="", help="comma list")
    common(r, "y", "format", "cache")
    r.set_defaults(func=_cmd_relative)

    f = sub.add_parser("fit-nodepoly", help="fit Q_delta polynomial shapes")
    f.add_argument("--family", choices=tuple(BASES), required=True)
    f.add_argument("--delta", required=True)
    f.add_argument("--m", type=int, default=None)
    common(f, "format")
    f.set_defaults(func=_cmd_fit_nodepoly)

    s = sub.add_parser("solve-B", help="recover the universal series from engine data")
    s.add_argument("--order", type=int, default=5)
    common(s, "y", "format", "cache")
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
        v.add_argument(option(flag), type=int, default=None)
    common(v, "cache")
    v.set_defaults(func=_cmd_verify)

    e = sub.add_parser("export-tables", help="dump the embedded tables")
    e.set_defaults(func=_cmd_export_tables)

    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    store, made = None, []
    try:
        if "cache" in args:
            store, made = _store(args)
            result = args.func(args, CHTable(store=store))
        else:
            result = args.func(args)
        if isinstance(result, ConjectureReport):
            print(result.summary())
        elif isinstance(result, str):
            sys.stdout.write(result)
        else:  # rows, under the header of every option but --cache
            header = {k: v for k, v in vars(args).items()
                      if k not in ("cache", "func")}
            _emit(sys.stdout, header, result, args.format)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        if store is not None:
            store.flush()
    except BrokenPipeError:
        # stdout goes to devnull from here on, so the flush at exit is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, KeyError, CacheVersionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if store is not None and store.created and not len(store):
            store.close()  # a usage error leaves no new cache file behind,
            os.remove(store.path)  # nor the directories made for it
            for path in made:
                os.rmdir(path)
        return 2
    finally:
        if store is not None:
            store.close()
    return 1 if isinstance(result, ConjectureReport) and not result.ok else 0


if __name__ == "__main__":
    sys.exit(main())
