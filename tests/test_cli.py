import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from refsev import cli, conjectures, modular
from refsev.cache import MAGIC
from refsev.cli import main
from refsev.qseries import QSeries
from refsev.ylaurent import YLaurent


def run_cli(args):
    out = io.StringIO()
    old = sys.stdout
    sys.stdout = out
    try:
        code = main(args)
    finally:
        sys.stdout = old
    return code, out.getvalue()


def test_compute_twelve():
    code, out = run_cli(["compute", "--surface", "p2", "--d", "3",
                         "--delta", "1", "--y", "1"])
    assert code == 0
    assert out.strip().endswith(": 12")


def test_compute_delta_zero():
    code, out = run_cli(["compute", "--surface", "p2", "--d", "3", "--delta", "0"])
    assert code == 0
    assert out.strip().endswith(": 1")


def test_compute_sigma_matches_graphs():
    from refsev.graphs import refined_count, s_beta
    code, out = run_cli(["compute", "--surface", "sigma", "--m", "2", "--c", "0",
                         "--d", "2", "--delta", "1", "--y", "-1"])
    assert code == 0
    expect = refined_count(s_beta(0, 2, 2), 1, -1)
    assert out.strip().endswith(f": {expect}")


def test_compute_range_and_symbolic():
    code, out = run_cli(["compute", "--surface", "p2", "--d", "3",
                         "--delta", "0-1"])
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(lines) == 2
    assert lines[1].endswith("y + 10 + y^-1")


def test_json_roundtrip():
    code, out = run_cli(["compute", "--surface", "p2", "--d", "3",
                         "--delta", "1", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["command"] == "compute"
    val = YLaurent.from_triples(payload["rows"][0]["value"])
    assert val == YLaurent({2: 1, 0: 10, -2: 1})


def test_csv_flattens_terms():
    code, out = run_cli(["compute", "--surface", "p2", "--d", "3",
                         "--delta", "1", "--format", "csv"])
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith(("#", "params"))]
    assert len(rows) == 3  # one per Laurent term
    assert rows[0].endswith(",-2,1,1")


def test_relative_command():
    code, out = run_cli(["relative", "--surface", "p2", "--d", "1",
                         "--delta", "0", "--alpha", "1", "--beta", ""])
    assert code == 0
    assert out.strip().endswith(": 1")


def test_series_command():
    code, out = run_cli(["series", "--name", "Gbar2k", "--param", "2",
                         "--order", "5", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    s = QSeries.from_dict(payload["rows"][0]["value"])
    assert s.coeff_at(3) == YLaurent.const(4)


def test_verify_pass_exit_zero():
    code, out = run_cli(["verify", "--id", "fbar", "--lmax", "6", "--order", "25"])
    assert code == 0
    assert "PASS" in out


def test_verify_cross_engine():
    code, out = run_cli(["verify", "--id", "cross-engine", "--cmax", "1",
                         "--dmax", "2", "--mmax", "1", "--deltamax", "1"])
    assert code == 0
    assert "cross_engine" in out


def test_verify_solve_b_minus1_order(monkeypatch):
    # --order-minus1 sets the order of the y = -1 side; a flag not given
    # leaves the check's own default (order 5, order_minus1 9)
    seen = []
    real = cli.check_conjecture

    def spy(cid, table=None, **params):
        seen.append(params)
        rep = real(cid, table=table, **params)
        seen.append(rep.params)
        return rep

    monkeypatch.setattr(cli, "check_conjecture", spy)
    code, out = run_cli(["verify", "--id", "solveB", "--order", "2",
                         "--order-minus1", "3"])
    assert code == 0
    assert out == "[PASS] solveB: 4 pass, 0 fail, 0 skip\n"
    assert seen == [{"order": 2, "order_minus1": 3}] * 2
    args = cli.make_parser().parse_args(["verify", "--id", "solveB"])
    assert cli.verify_params(args) == {}
    seen.clear()
    assert run_cli(["verify", "--id", "solveB"])[0] == 0
    assert seen == [{}, {"order": 5, "order_minus1": 9}]


def test_verify_unknown_id():
    with pytest.raises(SystemExit):
        run_cli(["verify", "--id", "bogus"])


def test_solve_b_command():
    code, out = run_cli(["solve-B", "--order", "3"])
    assert code == 0
    assert "B1" in out and "B2" in out


def test_solve_b_at_y_one():
    # --y 1 solves over the y = 1 values, not the symbolic ones
    from refsev.modular import b_series
    code, out = run_cli(["solve-B", "--order", "4", "--y", "1",
                         "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["y"] == "1"
    got = [QSeries.from_dict(r["value"]) for r in payload["rows"]]
    assert got == [b_series(1, 4).specialize_y(1), b_series(2, 4).specialize_y(1)]


def test_fit_nodepoly_command():
    code, out = run_cli(["fit-nodepoly", "--family", "p2", "--delta", "1"])
    assert code == 0
    assert "monomial=d^2" in out


def test_export_tables():
    code, out = run_cli(["export-tables"])
    assert code == 0
    assert "B1" in out and "0: 0:1" in out


def test_usage_error_exit_two():
    # run from src/, where `-m` finds the package without an install
    proc = subprocess.run(
        [sys.executable, "-m", "refsev.cli", "compute", "--surface", "marsupial",
         "--d", "1", "--delta", "0"],
        capture_output=True, text=True,
        cwd=os.path.join(os.path.dirname(__file__), os.pardir, "src"),
    )
    assert proc.returncode == 2


def run_with_stdout_closed(args):
    """The CLI run from src/ with stdout a pipe whose reader closed it
    before any output."""
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run([sys.executable, "-m", "refsev.cli", *args], stdout=write,
                              stderr=subprocess.PIPE, text=True,
                              cwd=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    finally:
        os.close(write)


@pytest.mark.parametrize("args", [
    ["verify", "--id", "P2blow"],
    ["compute", "--surface", "p2", "--d", "1-40", "--delta", "0-2", "--format", "csv"],
    ["export-tables"]])
def test_closed_stdout_exits_141(args):
    # as `| head -1` can: no traceback, and neither the status of a pass
    # nor that of a failed verification
    proc = run_with_stdout_closed(args)
    assert (proc.returncode, proc.stderr) == (141, "")


@pytest.mark.parametrize("args", [
    ["verify", "--id", "P2blow"],
    ["compute", "--surface", "p2", "--d", "1-40", "--delta", "0-2", "--format", "csv"]])
def test_closed_stdout_keeps_the_cache(args, tmp_path):
    # the cache store is closed as on any other exit, so the next run
    # reads every value warm and appends nothing
    cache = str(tmp_path / "ch.txt")
    assert run_with_stdout_closed([*args, "--cache", cache]).returncode == 141
    size = os.path.getsize(cache)
    assert run_cli([*args, "--cache", cache])[0] == 0
    assert os.path.getsize(cache) == size > len(MAGIC) + 1


def test_start_up_loads_no_introspection():
    # a job's start-up, in a fresh interpreter without site (whose .pth
    # files may import typing): the command line imports none of these
    probe = ("import sys, refsev.cli\n"
             "print([m for m in ('ast', 'dataclasses', 'dis', 'inspect', 'typing')\n"
             "       if m in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                          text=True, check=True,
                          cwd=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    assert proc.stdout == "[]\n"


# the only memos that outlive a call, all functools caches
PROCESS_MEMOS = ["genfun._substitution", "genfun.base_series", "modular.bernoulli",
                 "tables.symmetric_table", "ylaurent.YRing.qnum_prod"]


def test_process_lifetime_memos_are_the_allowed_caches():
    # in a fresh interpreter with every module of the package loaded: the
    # functools caches on its modules and classes are PROCESS_MEMOS, no
    # module or class dict, list or set grows across five jobs, so no
    # hand-written memo outlives its call, no value class keeps a lazily
    # filled slot, and graphs has no graph class: a graph is an edge tuple
    probe = (
        "import contextlib, importlib, io, pkgutil, refsev\n"
        "from refsev import cli, graphs, ylaurent\n"
        "mods = [importlib.import_module('refsev.' + m.name)\n"
        "        for m in pkgutil.iter_modules(refsev.__path__)]\n"
        "def owners():\n"
        "    for mod in mods:\n"
        "        yield mod.__name__[7:], vars(mod)\n"
        "        for name, cls in vars(mod).items():\n"
        "            if isinstance(cls, type) and cls.__module__ == mod.__name__:\n"
        "                yield mod.__name__[7:] + '.' + name, vars(cls)\n"
        "def held():\n"
        "    return {o + '.' + n: len(v) for o, ns in owners() for n, v in ns.items()\n"
        "            if isinstance(v, (dict, list, set))}\n"
        "before = held()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for job in ('compute --surface p2 --d 4 --delta 0-3',\n"
        "                'verify --id cross-engine --cmax 2 --dmax 3 --mmax 2 --deltamax 3',\n"
        "                'fit-nodepoly --family p2 --delta 1-3',\n"
        "                'solve-B --order 5', 'series --name eta --order 6'):\n"
        "        assert cli.main(job.split()) == 0, job\n"
        "print(sorted({o + '.' + n for o, ns in owners() for n, v in ns.items()\n"
        "              if hasattr(v, 'cache_info')}))\n"
        "print(sorted(k for k, n in held().items() if before.get(k) != n))\n"
        "print(hasattr(graphs, 'LongEdgeGraph'), ylaurent.YLaurent.__slots__,\n"
        "      ylaurent.YRing.__slots__)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True,
                          cwd=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    assert proc.stdout.splitlines() == [
        repr(PROCESS_MEMOS), "[]",
        "False ('terms',) ('y', 'at', 'zero', 'one', 'sum_products', 'encode', 'decode')"]


@pytest.mark.parametrize("args, message", [
    (["compute", "--surface", "p2", "--d", "3", "--delta", "1", "--k", "1/3"],
     "error: --k needs --surface sigma --m 2"),
    (["compute", "--surface", "sigma", "--m", "2", "--d", "3", "--delta", "1",
      "--k", "7/2"],
     "error: --k needs d - k a nonnegative integer"),
    (["solve-B", "--order", "0"], "error: --order must be >= 1"),
    (["solve-B", "--order", "-3"], "error: --order must be >= 1"),
    (["fit-nodepoly", "--family", "p2", "--delta", "3-1"], "error: empty range '3-1'"),
    (["compute", "--surface", "p2", "--d", "4", "--delta", "3-1"],
     "error: empty range '3-1'"),
    (["verify", "--id", "cross-engine", "--dmax", "-1"], "no point to check"),
    (["verify", "--id", "cross-engine", "--deltamax", "-1"], "no point to check"),
    (["verify", "--id", "refpol", "--dmax", "-1"], "no point to check"),
    (["verify", "--id", "refpol", "--deltamax", "-1"], "error: --deltamax must be >= 0"),
    (["verify", "--id", "GSPSigmaW", "--deltamax", "-1"], "error: --deltamax must be >= 0"),
    (["verify", "--id", "conjan_P112", "--dmax", "1"],
     "error: verify --id conjan_P112 takes no --dmax"),
    (["verify", "--id", "ruledblow", "--deltamax", "2"],
     "error: verify --id ruledblow takes no --deltamax"),
    (["verify", "--id", "cross-engine", "--order", "3"],
     "error: verify --id cross_engine takes no --order"),
    (["verify", "--id", "fhat_general_tables", "--order", "12"],
     "error: verify --id fhat_general_tables takes no --order"),
    (["verify", "--id", "solveB", "--order", "0"], "error: --order must be >= 1"),
    (["verify", "--id", "solveB", "--order-minus1", "0"],
     "error: --order-minus1 must be >= 1"),
    (["verify", "--id", "solveB", "--order-minus1", "-2"],
     "error: --order-minus1 must be >= 1"),
    (["verify", "--id", "refpol", "--order-minus1", "3"],
     "error: verify --id refpol takes no --order-minus1"),
    (["verify", "--id", "fbar", "--order", "0"], "error: --order must be >= 1"),
    (["verify", "--id", "fbar", "--lmax", "0"], "error: --lmax must be >= 1"),
    (["verify", "--id", "bogus"], "unknown verify id 'bogus'"),
    (["verify", "--id", "refpol", "--format", "json"],
     "unrecognized arguments: --format json"),
    (["compute", "--surface", "p2", "--m", "3", "--d", "3", "--delta", "1"],
     "not m = 3, c = 0"),
    (["compute", "--surface", "p11m", "--m", "2", "--c", "1", "--d", "2",
      "--delta", "0"], "not c = 1"),
    (["compute", "--surface", "sigma", "--m", "2", "--c", "5", "--d", "5/2",
      "--k", "1/2", "--delta", "0"], "--c 5 is refused"),
    (["relative", "--surface", "p2", "--m", "2", "--d", "3", "--delta", "1",
      "--alpha", "1", "--beta", "2"], "not m = 2, c = 0"),
    (["fit-nodepoly", "--family", "p2", "--delta", "1", "--m", "7"],
     "error: the p2 fit takes no m"),
    (["fit-nodepoly", "--family", "p2", "--delta=-1"],
     "error: Q_delta starts at delta = 1"),
    (["series", "--name", "eta", "--param", "3"], "error: series 'eta' takes no param"),
    (["series", "--name", "fbar", "--order", "8"], "error: series 'fbar' needs a param"),
    (["series", "--name", "eta", "--order", "0"], "error: order must be >= 1, not 0"),
    (["series", "--name", "eta", "--cache", "x"], "unrecognized arguments: --cache x"),
    (["export-tables", "--format", "json"], "unrecognized arguments: --format json"),
    (["verify", "--id", "B_minus1_tables", "--order", "19"],
     "error: B_minus1_tables checks orders 1 to 18"),
    (["compute", "--surface", "p11m", "--m", "0", "--d", "2", "--delta", "1"],
     "error: P(1,1,m) bundles have m >= 1, not m = 0"),
    (["compute", "--surface", "p2", "--d", "3", "--delta", "1", "--cache",
      "FOREIGN"], "error: cache FOREIGN has header 'some other format v9', "
                  "expected 'refsev-cache v2'"),
    (["fit-nodepoly", "--family", "p11m-fixed-m", "--m", "0", "--delta", "1"],
     "error: P(1,1,m) bundles have m >= 1, not m = 0"),
    (["fit-nodepoly", "--family", "p11m-fixed-m", "--m", "-1", "--delta", "1"],
     "error: P(1,1,m) bundles have m >= 1, not m = -1"),
    (["compute", "--surface", "p2", "--d", "3", "--delta", "1", "--cache",
      "TMP/missing/ch.txt"],
     "error: cannot use cache TMP/missing/ch.txt: No such file or directory"),
    (["solve-B", "--order", "2", "--cache", "TMP"],
     "error: cannot use cache TMP: Is a directory"),
    (["compute", "--surface", "sigma", "--m", "2", "--d", "4/3", "--k", "1/3",
      "--delta", "0-1"], "error: --k 1/3: 2k must be a nonnegative integer"),
    (["compute", "--surface", "sigma", "--m", "2", "--d", "7/4", "--k", "3/4",
      "--delta", "1"], "error: --k 3/4: 2k must be a nonnegative integer"),
    (["compute", "--surface", "sigma", "--m", "2", "--d", "3", "--k", "1/0",
      "--delta", "1"], "error: --k 1/0: zero denominator"),
    (["compute", "--surface", "sigma", "--m", "2", "--d", "1/0", "--k", "1/2",
      "--delta", "1"], "error: --d 1/0: zero denominator"),
    (["compute", "--surface", "p2", "--d", "x", "--delta", "1"],
     "error: --d x: 'x' is not an integer"),
    (["compute", "--surface", "p2", "--d", "3", "--delta", "1-x"],
     "error: --delta 1-x: 'x' is not an integer"),
    (["compute", "--surface", "p2", "--d", "3", "--delta", "1-"],
     "error: --delta 1-: '' is not an integer"),
    (["compute", "--surface", "sigma", "--m", "2", "--d", "5/2", "--k", "1/x",
      "--delta", "1"], "error: --k 1/x: 'x' is not an integer"),
    (["compute", "--surface", "sigma", "--m", "2", "--d", "5/x", "--k", "1/2",
      "--delta", "1"], "error: --d 5/x: 'x' is not an integer"),
    (["relative", "--surface", "p2", "--d", "3", "--delta", "1", "--alpha", "1",
      "--beta", "3,,1"], "error: --beta 3,,1: '' is not an integer"),
    (["compute", "--surface", "p2", "--d", "-3", "--delta", "1"],
     "error: d = -3 is negative"),
    (["relative", "--surface", "p2", "--d", "3", "--delta", "1", "--alpha", "1,-1"],
     "error: alpha = (1, -1) has a negative entry"),
    (["compute", "--surface", "p2", "--d", "3", "--delta", "-1"],
     "error: delta must be nonnegative"),
    (["verify", "--id", "jacobi_triple", "--cache", "TMP/x.cache"],
     "error: verify --id jacobi_triple takes no --cache"),
] + [(["series", "--name", "gbar2k", "--param", p],
      "error: Eisenstein index must be a positive even integer")
     for p in ("-2", "0", "3")], ids=["k-surface", "k-not-integral", "order-0", "order-neg", "nodepoly-range",
        "compute-range", "cross-dmax", "cross-deltamax", "refpol-dmax",
        "refpol-deltamax", "gsp-deltamax",
        "conjan-dmax", "ruledblow-deltamax", "cross-order", "fhat-general-order",
        "solveB-order-0", "solveB-order-minus1-0", "solveB-order-minus1-neg",
        "refpol-order-minus1",
        "fbar-order-0", "fbar-lmax-0", "unknown-id", "verify-format",
        "compute-p2-m", "compute-p11m-c", "compute-k-c", "relative-p2-m",
        "nodepoly-m", "nodepoly-delta-neg", "series-param-given", "series-param-missing",
        "series-order-0", "series-cache", "export-format", "b-minus1-order-19",
        "compute-p11m-m0", "foreign-cache", "nodepoly-p11m-m0",
        "nodepoly-p11m-m-neg", "cache-missing-dir", "cache-is-dir", "k-third",
        "k-three-quarters", "k-zero-denominator", "d-zero-denominator",
        "d-not-int", "delta-hi-not-int", "delta-hi-empty", "k-den-not-int",
        "k-d-den-not-int", "beta-empty-entry", "d-negative", "alpha-negative",
        "delta-negative", "series-identity-cache", "gbar2k-negative", "gbar2k-zero", "gbar2k-odd"])
def test_bad_arguments_exit_two(args, message, capsys, tmp_path):
    # refused as usage errors, with nothing on stdout and no file left
    # behind; a check over zero points must not report a pass, and no option
    # may go unread; FOREIGN names a file that is not a refsev cache, TMP
    # the test's directory
    foreign = tmp_path / "foreign.txt"
    foreign.write_text("some other format v9\n")
    args = [str(foreign) if a == "FOREIGN" else a.replace("TMP", str(tmp_path))
            for a in args]
    message = message.replace("FOREIGN", str(foreign)).replace("TMP", str(tmp_path))
    try:
        code = main(args)
    except SystemExit as exc:  # refused by argparse
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err
    assert list(tmp_path.iterdir()) == [foreign]


@pytest.mark.parametrize("args, message", [
    (["--id", "solveB", "--order", "19"], "error: B tables are only trusted to q^17"),
    (["--id", "solveB", "--order-minus1", "32"],
     "error: Bbar tables are only trusted to q^30"),
    (["--id", "refpol", "--deltamax", "17"], "error: B tables are only trusted to q^17"),
])
def test_verify_reads_its_tables_before_any_engine(args, message, capsys, monkeypatch):
    # a range past the tables is refused before the graph engine, the
    # recursion or a fit runs: solveB at order 19 would first build the
    # templates of cogenus 18, and refpol would first fit 17 polynomials
    def engine(*args, **kwargs):
        raise AssertionError("an engine ran before the tables were read")

    for name in ("refined_counts_at", "engine_data", "fit_node_polynomials",
                 "severi_degrees"):
        monkeypatch.setattr(conjectures, name, engine)
    assert main(["verify", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_cache_file_cold_warm(tmp_path):
    cache = str(tmp_path / "ch.txt")
    code1, out1 = run_cli(["compute", "--surface", "p2", "--d", "4",
                           "--delta", "0-2", "--cache", cache])
    assert code1 == 0 and os.path.getsize(cache) > 0
    code2, out2 = run_cli(["compute", "--surface", "p2", "--d", "4",
                           "--delta", "0-2", "--cache", cache])
    assert out1 == out2


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("REFSEV_CACHE_DIR", str(tmp_path))
    code, _ = run_cli(["compute", "--surface", "p2", "--d", "3", "--delta", "1"])
    assert code == 0
    assert os.path.exists(tmp_path / "ch-cache.txt")


def test_cache_env_var_that_cannot_be_created(tmp_path, monkeypatch, capsys):
    # a cache directory under a plain file is a usage error, not a failed check
    (tmp_path / "file").write_text("")
    base = str(tmp_path / "file" / "cache")
    monkeypatch.setenv("REFSEV_CACHE_DIR", base)
    code, out = run_cli(["compute", "--surface", "p2", "--d", "3", "--delta", "1"])
    assert code == 2 and out == ""
    assert f"error: cannot use cache {base}: Not a directory" in capsys.readouterr().err


def test_usage_error_leaves_no_new_cache_file(tmp_path, monkeypatch):
    # a usage error removes the cache file its run created, and leaves an
    # existing one, records or header alone, byte for byte as it was
    bad = ["compute", "--surface", "p2", "--d", "3", "--delta", "3-1", "--cache"]
    new = tmp_path / "new.txt"
    assert run_cli([*bad, str(new)]) == (2, "")
    assert not new.exists()
    old, bare = tmp_path / "old.txt", tmp_path / "bare.txt"
    assert run_cli(["compute", "--surface", "p2", "--d", "3", "--delta", "1",
                    "--cache", str(old)])[0] == 0
    bare.write_text(MAGIC + "\n")
    for path in (old, bare):
        before = path.read_bytes()
        assert run_cli([*bad, str(path)]) == (2, "")
        assert path.read_bytes() == before

    def refuse(*args, **kwargs):
        raise ValueError("refused")

    # a new file that got records before the error keeps them
    monkeypatch.setattr(cli, "solve_universal_B", refuse)
    kept = tmp_path / "kept.txt"
    assert run_cli(["solve-B", "--order", "2", "--cache", str(kept)]) == (2, "")
    assert kept.read_text().count("\n") > 1


def test_usage_error_leaves_no_new_cache_dir(tmp_path, monkeypatch):
    # the directories made for a new cache file go with it
    monkeypatch.setenv("REFSEV_CACHE_DIR", str(tmp_path / "a" / "b"))
    bad = ["compute", "--surface", "p2", "--d", "3", "--delta", "3-1"]
    assert run_cli(bad) == (2, "")
    assert list(tmp_path.iterdir()) == []


def test_usage_error_keeps_an_existing_cache_dir(tmp_path, monkeypatch):
    # only what the run made is removed: a directory that existed stays
    (tmp_path / "old").mkdir()
    monkeypatch.setenv("REFSEV_CACHE_DIR", str(tmp_path / "old" / "new"))
    bad = ["compute", "--surface", "p2", "--d", "3", "--delta", "3-1"]
    assert run_cli(bad) == (2, "")
    assert list(tmp_path.iterdir()) == [tmp_path / "old"]
    assert list((tmp_path / "old").iterdir()) == []
    monkeypatch.setenv("REFSEV_CACHE_DIR", str(tmp_path / "old"))
    assert run_cli(bad) == (2, "")
    assert list(tmp_path.iterdir()) == [tmp_path / "old"]
    assert list((tmp_path / "old").iterdir()) == []


def test_blowup_flag():
    code, out = run_cli(["compute", "--surface", "sigma", "--m", "2",
                         "--d", "5/2", "--k", "1/2", "--delta", "0"])
    assert code == 0
    assert out.strip().endswith(": 1")


@pytest.mark.parametrize("family, extra", [
    ("p1xp1", []), ("sigma", []), ("p11m", []), ("p11m-fixed-m", ["--m", "3"])])
def test_fit_nodepoly_golden(family, extra):
    # the JSON fits (coefficients, fitted and held-out points) of the
    # families the benchmark does not run, pinned byte for byte
    code, out = run_cli(["fit-nodepoly", "--family", family, "--delta", "1-3",
                         "--format", "json", *extra])
    golden = Path(__file__).parent / "golden" / f"fit-nodepoly-{family}.out"
    assert code == 0
    assert out == golden.read_text()


@pytest.mark.parametrize("check_id", [
    "refpol", "GSPSigmaW", "ruledblow", "conjan_P112", "blowk", "A1con_sigma2", "P2blow",
    "multcon_H12", "multcon_H34_at_pm1"])
def test_verify_summary_golden(check_id):
    # the default summary (counts, SKIP and FAIL lines, notes) of every
    # check that evaluates the generating identity on engine data, pinned
    # byte for byte
    code, out = run_cli(["verify", "--id", check_id])
    golden = Path(__file__).parent / "golden" / f"verify-{check_id}.out"
    assert code == 0
    assert out == golden.read_text()


@pytest.mark.parametrize("golden, args", [
    ("solve-B-4-sym.csv", ["solve-B", "--order", "4", "--format", "csv"]),
    ("solve-B-4-ym1.csv", ["solve-B", "--order", "4", "--y", "-1", "--format", "csv"]),
    ("series-theta2-3.csv", ["series", "--name", "theta2", "--order", "3",
                             "--format", "csv"]),
    ("compute-p2-4-0-2-y1.csv", ["compute", "--surface", "p2", "--d", "4", "--delta",
                                 "0-2", "--y", "1", "--format", "csv"]),
    ("compute-p2-4-0-2-y1.json", ["compute", "--surface", "p2", "--d", "4", "--delta",
                                  "0-2", "--y", "1", "--format", "json"]),
    ("compute-p2-3-0-4.text", ["compute", "--surface", "p2", "--d", "3", "--delta",
                               "0-4"]),
    ("compute-k-half.text", ["compute", "--surface", "sigma", "--m", "2", "--d",
                             "5/2,7/2", "--k", "1/2", "--delta", "0-2"]),
    ("relative-p2-3-1.text", ["relative", "--surface", "p2", "--d", "3", "--delta",
                              "1", "--alpha", "1", "--beta", "2"]),
    ("relative-p2-3-1.json", ["relative", "--surface", "p2", "--d", "3", "--delta",
                              "1", "--alpha", "1", "--beta", "2", "--format", "json"]),
    ("relative-p2-3-1-ym1.csv", ["relative", "--surface", "p2", "--d", "3", "--delta",
                                 "1", "--alpha", "1", "--beta", "2", "--y", "-1",
                                 "--format", "csv"]),
    ("series-Gbar2k-2-5.text", ["series", "--name", "Gbar2k", "--param", "2",
                                "--order", "5"]),
    ("series-Gbar2k-2-5.json", ["series", "--name", "Gbar2k", "--param", "2",
                                "--order", "5", "--format", "json"]),
    ("solve-B-3-sym.text", ["solve-B", "--order", "3"]),
    ("solve-B-3-sym.json", ["solve-B", "--order", "3", "--format", "json"]),
    ("fit-nodepoly-p2-1-3.text", ["fit-nodepoly", "--family", "p2", "--delta", "1-3"]),
    ("fit-nodepoly-p2-1-3.csv", ["fit-nodepoly", "--family", "p2", "--delta", "1-3",
                                 "--format", "csv"]),
    ("export-tables", ["export-tables"]),
])
def test_emit_golden(golden, args):
    # csv of a QSeries (theta2 is the one half-integer lattice), csv and
    # json of integer values, and every (subcommand, format) pair that no
    # other golden or benchmark reference pins, byte for byte
    code, out = run_cli(args)
    assert code == 0
    assert out == (Path(__file__).parent / "golden" / f"{golden}.out").read_text()


# one valid param for each named series that takes one
SERIES_GOLDEN_PARAMS = {"g2k": 4, "gbar2k": 4, "flower": 2, "fbar": 2, "fhatcm": 2,
                        "h": 2, "h_at1": 2, "h_atminus1": 2}


@pytest.mark.parametrize("name", sorted([*modular._NAMED, *modular._NAMED_WITH_PARAM]))
def test_named_series_golden(name):
    # every named series to q^8 as JSON, pinning pow, compose and the
    # half-step lattice end to end, byte for byte against outputs recorded
    # with the term-by-term q-series loops
    assert SERIES_GOLDEN_PARAMS.keys() == modular._NAMED_WITH_PARAM.keys()
    param = SERIES_GOLDEN_PARAMS.get(name)
    args = ["series", "--name", name, "--order", "8", "--format", "json"]
    stem = f"series-{name}-8"
    if param is not None:
        args += ["--param", str(param)]
        stem = f"series-{name}-{param}-8"
    code, out = run_cli(args)
    assert code == 0
    assert out == (Path(__file__).parent / "golden" / f"{stem}.json.out").read_text()


@pytest.mark.parametrize("args", [
    ["compute", "--surface", "p2", "--d", "1", "--delta", "0"],
    ["relative", "--surface", "p2", "--d", "1", "--delta", "0", "--alpha", "1"],
    ["fit-nodepoly", "--family", "p2", "--delta", "1"],
    ["solve-B", "--order", "1"],
    ["series", "--name", "eta", "--order", "2"],
], ids=lambda args: args[0])
def test_header_is_every_option_but_cache(args):
    # the run header holds the command and each of the subcommand's parser
    # options but --cache, in parser order
    code, out = run_cli([*args, "--format", "json"])
    sub = next(a for a in cli.make_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices[args[0]]
    options = [a.dest for a in sub._actions if a.dest not in ("help", "cache")]
    assert code == 0
    assert list(json.loads(out)["config"]) == ["command", *options]


@pytest.mark.parametrize("args, code", [
    (["compute", "--surface", "p2", "--d", "3", "--delta", "1"], 0),
    (["compute", "--surface", "p2", "--d", "3", "--delta", "3-1"], 2),
    (["verify", "--id", "solveB", "--order", "1"], 0),
], ids=["success", "usage-error", "verify"])
def test_cache_file_closed(args, code, tmp_path, monkeypatch):
    # the --cache store is closed however the run ends
    stores = []

    class Store(cli.CacheStore):
        def __init__(self, path):
            super().__init__(path)
            stores.append(self)

    monkeypatch.setattr(cli, "CacheStore", Store)
    got, _ = run_cli([*args, "--cache", str(tmp_path / "ch.txt")])
    assert got == code
    assert len(stores) == 1 and stores[0]._fh is None
