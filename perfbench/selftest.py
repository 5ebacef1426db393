"""Self-tests of the benchmark, on tiny versions of its workloads.

Run from the root of a checkout: python3 -m pytest perfbench/selftest.py -q
(about 15 s on two cores).
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
from run import Job, cache_jobs  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "cross-engine": (
        Job("tiny-cross",
            ("verify", "--id", "cross-engine", "--cmax", "1", "--dmax", "2",
             "--mmax", "1", "--deltamax", "1"),
            partial(run.verify_verdict, 16)),
    ),
    "nodepoly": (
        Job("tiny-nodepoly",
            ("fit-nodepoly", "--family", "p2", "--delta", "1-2", "--format", "json"),
            partial(run.nodepoly_verdict, (1, 2), 3)),
    ),
    "solveB-cache": cache_jobs(((3, "sym"), (4, "-1")), warm_rounds=2),
}

# layers each workload must leave untouched, by exact per-layer count
ZERO = {
    "cross-engine": ("cache.records_loaded", "cache.records_written",
                     "cache.bytes_written", "qseries.mul.calls"),
    "nodepoly": ("caporaso.states.sym", "caporaso.states.int",
                 "cache.records_loaded", "cache.records_written"),
    "solveB-cache": ("graphs.enumerated", "graphs.count_orderings.calls",
                     "graphs.phi.calls"),
}
NONZERO = {
    "cross-engine": ("graphs.enumerated", "caporaso.states.sym",
                     "ylaurent.mul.term_products"),
    "nodepoly": ("graphs.phi.calls", "graphs.count_orderings.calls",
                 "nodepoly.fit.s", "linalg.solve.s"),
    "solveB-cache": ("caporaso.states.sym", "caporaso.states.int",
                     "cache.records_loaded", "cache.records_written",
                     "genfun.reform_eval.calls", "qseries.mul.calls"),
}
EXACT_UNITS = ("count", "bytes", "ratio")


@pytest.fixture(scope="module")
def refdir(tmp_path_factory):
    """References for the tiny jobs, recorded from this checkout."""
    out = tmp_path_factory.mktemp("reference")
    for name, jobs in TINY.items():
        cold = [j for j in jobs if not j.warm_round]
        for r in run.run_pass(cold, out / "work" / name, run.time.monotonic() + 120):
            assert r.status == 0, r.job.ref
            (out / f"{r.job.ref}.out").write_bytes(r.stdout)
    return out


def _run(name, refdir, tmp_path, trace=False, jobs=None):
    jobs = jobs or run.issue_order(TINY[name], seed=7)
    return run.run(jobs, 0, trace, refdir=refdir, workdir=tmp_path / "work")


def _units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def _got_units(result):
    return {k: m["unit"] for k, m in result["metrics"].items()}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_and_reports_every_metric(name, refdir, tmp_path):
    result = _run(name, refdir, tmp_path)["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(TINY[name])
    assert _got_units(result) == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_reference_counts_as_failure(refdir, tmp_path):
    bad = tmp_path / "reference"
    shutil.copytree(refdir, bad)
    ref = bad / "tiny-cross.out"
    data = bytearray(ref.read_bytes())
    data[-2] ^= 1
    ref.write_bytes(bytes(data))
    out = _run("cross-engine", bad, tmp_path)
    assert out["result"]["failed"] == out["result"]["attempted"] == 1
    assert not out["result"]["correct"] and out["fail_ratio"] == 1.0


def test_wrong_exit_status_counts_as_failure(refdir, tmp_path):
    ok = TINY["cross-engine"][0]
    expects_one = Job(ok.ref, ok.argv, ok.verdict, status=1)
    out = _run("cross-engine", refdir, tmp_path, jobs=[expects_one])
    assert out["result"]["failed"] == 1 and out["fail_ratio"] == 1.0


def test_corrupted_cache_output_fails_the_table_check(refdir, tmp_path):
    # a solve-B output that matches its (equally wrong) reference byte for
    # byte must still fail against the embedded tables
    bad = tmp_path / "reference"
    shutil.copytree(refdir, bad)
    ref = bad / "solveB-3.out"
    text = ref.read_text()
    spec = [{"stdout": text.replace('"trunc": 3', '"trunc": 2', 1), "order": 3, "y": "sym"},
            {"stdout": text, "order": 3, "y": "sym"}]
    proc = subprocess.run([sys.executable, str(run.BENCH / "check_tables.py")],
                          input=json.dumps(spec).encode(), capture_output=True,
                          env=run.job_env(), check=True)
    assert json.loads(proc.stdout) == [False, True]


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_counts_repeat_and_zero_pattern_holds(name, refdir, tmp_path):
    first = _run(name, refdir, tmp_path / "a", trace=True)["result"]
    second = _run(name, refdir, tmp_path / "b", trace=True)["result"]
    for result in (first, second):
        assert result["correct"], "traced stdout must equal untraced stdout"
        assert _got_units(result) == _units("per_layer")
    exact = {k for k, m in first["metrics"].items() if m["unit"] in EXACT_UNITS}
    assert {k: first["metrics"][k] for k in exact} == \
        {k: second["metrics"][k] for k in exact}
    values = {k: m["value"] for k, m in first["metrics"].items()}
    assert all(values[k] == 0 for k in ZERO[name]), values
    assert all(values[k] > 0 for k in NONZERO[name]), values


def test_every_binding_of_a_traced_function_is_patched():
    # in-process: the other tests run the program in fresh interpreters
    sys.path.insert(0, str(run.SRC))
    import refsev.cli  # noqa: F401
    import refsev
    import trace_job

    trace_job.install(refsev)
    span_code = trace_job.Tracer().span("x", len).__code__
    traced = {f"refsev.{m}" for m in trace_job.TRACED_MODULES}
    seen = 0
    for mod in [m for k, m in sys.modules.items() if k.startswith("refsev")]:
        for attr, obj in vars(mod).items():
            if (callable(obj) and not isinstance(obj, type) and not attr.startswith("_")
                    and getattr(obj, "__module__", None) in traced):
                assert obj.__code__ is span_code, f"{mod.__name__}.{attr}"
                seen += 1
    assert seen > 100
    YLaurent = refsev.ylaurent.YLaurent
    assert YLaurent.__rmul__ is YLaurent.__mul__
    assert YLaurent.__mul__.__code__ is span_code


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    cmd = BENCHMARK["command"] + ["--workload", "nodepoly", "--seed", "1",
                                  "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert b'"correct"' not in proc.stdout
