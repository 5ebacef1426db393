"""Benchmark of the refsev command line, end to end and by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each job is one fresh interpreter running the refsev CLI, as a user runs it,
so every module-level memo table starts cold. Jobs run one at a time from
this single process. A pass runs the workload's job list once (a few
seconds); a run repeats passes while another one fits in --seconds (always
at least one), and reports medians over passes. The seed only sets the
order in which jobs are issued; the set of jobs and their values never
depend on it, so one reference output serves every seed.

Every job is checked: its exit status, the engine's own verdict, and its
stdout against the reference recorded in perfbench/reference/.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced pass
and one pass with every layer wrapped in spans (perfbench/trace_job.py) and
prints the per-layer metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
WORK = BENCH / ".work"
CACHE = "{cache}"  # replaced by the pass's fresh cache file
CLI = "import sys; from refsev.cli import main; sys.exit(main())"
SETUP_PROBE = "import refsev.cli"
SETUP_PROBES_FIRST = 3  # set-up probes before the first pass
SETUP_PROBES_PER_PASS = 2  # and after every pass, so they span the run
# The speed probe: a fresh interpreter importing the standard modules that
# refsev.cli pulls in, but no refsev code, so no change to the program moves
# it. It runs twice after every job; the median of its times in a run
# measures how fast the shared machine is during that run (see README.md).
SPEED_PROBE = "import argparse, dataclasses, fractions, importlib.resources, json"
SPEED_PROBES_PER_JOB = 2
SPEED_PROBE_NOMINAL_S = 0.1  # the probe's time on the reference machine
DEADLINE_S = 170.0  # the run must end within 180 s


# -- engine verdicts (in-process; solve-B is also checked against tables) ----


def verify_verdict(passes: int, out: bytes) -> bool:
    """`refsev verify` ends in [PASS] with the expected number of passes."""
    m = re.match(rb"\[PASS\] \S+: (\d+) pass, 0 fail, 0 skip\n", out)
    return m is not None and int(m.group(1)) == passes


def nodepoly_verdict(deltas: tuple, holdouts: int, out: bytes) -> bool:
    """Every requested delta was fitted and validated on its held-out points."""
    try:
        rows = json.loads(out)["rows"]
    except (ValueError, KeyError):
        return False
    got = {r["params"]["delta"]: len(r["value"]["validated_on"]) for r in rows}
    return got == {d: holdouts for d in deltas}


def solve_b_verdict(out: bytes) -> bool:
    """solve-B printed both series; their values are checked by
    check_tables.py against the embedded B / Bbar tables."""
    try:
        rows = json.loads(out)["rows"]
    except ValueError:
        return False
    return [r["params"]["series"] for r in rows] == ["B1", "B2"]


@dataclass(frozen=True)
class Job:
    ref: str  # reference output file stem
    argv: tuple  # refsev CLI arguments
    verdict: object  # callable(stdout bytes) -> bool
    warm_round: int = 0  # 0: cold; n > 0: n-th rerun on the cache cold jobs wrote
    tables: tuple = ()  # (order, y) for solve-B output to check against tables
    status: int = 0  # expected exit status

    def command(self, cache: Path) -> list:
        return [str(cache) if a == CACHE else a for a in self.argv]


def solve_b_job(order: int, y: str, warm_round: int = 0) -> Job:
    argv = ("solve-B", "--order", str(order)) + (("--y", y) if y != "sym" else ())
    ref = f"solveB-{order}" + ("-ym1" if y == "-1" else "")
    return Job(ref, argv + ("--format", "json", "--cache", CACHE),
               solve_b_verdict, warm_round, tables=(order, y))


def cache_jobs(queries, warm_rounds: int) -> tuple:
    """The solve-B queries cold on a fresh cache, then rerun warm_rounds times."""
    return tuple(solve_b_job(order, y, k) for k in range(warm_rounds + 1)
                 for order, y in queries)


# Why these workloads: each stresses different layers, and each layer has a
# workload that bypasses it (the prediction there is no change).
# - cross-engine: the cross-engine check on 400 points up to delta 4; graph
#   engine (about 60 %) and Laurent arithmetic, symbolic recursion; no
#   qseries, no cache.
# - nodepoly: phi / count_orderings inside q_log_count and the exact fits;
#   no recursion, no cache.
# - solveB-cache: symbolic and integer recursion writing the cache (cold),
#   then the cache read path and the B-solver (warm, two rounds); no graph
#   engine.
# Every pass takes 2.5 to 5 s, so that a run holds many passes: a single
# long job reads one sample of a shared machine's speed, which wanders by
# 15 % from job to job.
WORKLOADS = {
    "cross-engine": (
        Job("cross-engine-c4d4m3x4",
            ("verify", "--id", "cross-engine", "--cmax", "4", "--dmax", "4",
             "--mmax", "3", "--deltamax", "4"),
            partial(verify_verdict, 400)),
    ),
    "nodepoly": (
        Job("nodepoly-p2-1-5",
            ("fit-nodepoly", "--family", "p2", "--delta", "1-5", "--format", "json"),
            partial(nodepoly_verdict, (1, 2, 3, 4, 5), 3)),
    ),
    "solveB-cache": cache_jobs(((7, "sym"), (12, "-1")), warm_rounds=2),
}


def issue_order(jobs, seed: int) -> list:
    """The seed shuffles the jobs within each warm round only: the cold
    order fixes which records each cold job finds on disk, so it stays as
    listed and the traced counts are the same for every seed."""
    rng = random.Random(seed)
    out = []
    for k in sorted({j.warm_round for j in jobs}):
        batch = [j for j in jobs if j.warm_round == k]
        if k:
            rng.shuffle(batch)
        out += batch
    return out


# -- running jobs -------------------------------------------------------------


def job_env() -> dict:
    """The caller's environment without REFSEV_* and PYTHON* settings, so
    that no cache directory or backend is forced and bytecode is cached
    under src/ as after an install (PYTHONDONTWRITEBYTECODE would make every
    job compile the package again)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REFSEV_", "PYTHON"))}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class JobResult:
    job: Job
    wall_s: float
    cpu_s: float
    rss_mb: float
    status: int
    stdout: bytes
    trace: dict | None = None
    ok: bool = False
    probe_s: tuple = ()  # wall times of the speed probes run after the job


def spawn(cmd: list, out_path: Path, deadline: float):
    """Run cmd to completion; returns (wall_s, cpu_s, rss_mb, exit status).
    The process is killed at the deadline, which then reads as a failure."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return 0.0, 0.0, 0.0, None
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=job_env(), cwd=ROOT)
        killer = threading.Timer(remaining, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # e.g. SIGTERM: leave no job running
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode)


def run_pass(jobs, workdir: Path, deadline: float, traced: bool = False) -> list:
    """One pass over the job list with a fresh cache file; an untraced pass
    runs the speed probe after every job."""
    workdir.mkdir(parents=True)
    cache = workdir / "ch-cache.txt"
    results = []
    for i, job in enumerate(jobs):
        out = workdir / f"{i}-{job.ref}.out"
        trace_path = workdir / f"{i}-{job.ref}.trace.json"
        if traced:
            cmd = [sys.executable, str(BENCH / "trace_job.py"), str(trace_path)]
        else:
            cmd = [sys.executable, "-c", CLI]
        wall, cpu, rss, status = spawn(cmd + job.command(cache), out, deadline)
        stdout = out.read_bytes() if out.exists() else b""
        trace = None
        if traced and trace_path.exists():
            trace = json.loads(trace_path.read_text())
        probes = () if traced else tuple(
            spawn([sys.executable, "-c", SPEED_PROBE], workdir / f"{i}-probe.out",
                  deadline)[0]
            for _ in range(SPEED_PROBES_PER_JOB))
        results.append(JobResult(job, wall, cpu, rss, status, stdout, trace,
                                 probe_s=probes))
    return results


def check(results, refdir: Path, timeout: float = 60.0) -> None:
    """Set .ok on every result: exit status, engine verdict, reference
    output, warm output equal to cold output, and solve-B tables."""
    cold_out = {r.job.ref: r.stdout for r in results if not r.job.warm_round}
    for r in results:
        ref = refdir / f"{r.job.ref}.out"
        r.ok = (r.status == r.job.status
                and r.job.verdict(r.stdout)
                and ref.is_file() and r.stdout == ref.read_bytes()
                and (not r.job.warm_round or r.stdout == cold_out.get(r.job.ref)))
    to_check = [r for r in results if r.ok and r.job.tables]
    if not to_check:
        return
    spec = [{"stdout": r.stdout.decode(), "order": r.job.tables[0],
             "y": r.job.tables[1]} for r in to_check]
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "check_tables.py")],
            input=json.dumps(spec).encode(), capture_output=True, env=job_env(),
            cwd=ROOT, timeout=timeout,
        )
        verdicts = json.loads(proc.stdout) if proc.returncode == 0 else []
    except (subprocess.TimeoutExpired, ValueError):
        verdicts = []
    if len(verdicts) != len(to_check):
        verdicts = [False] * len(to_check)
    for r, good in zip(to_check, verdicts):
        r.ok = r.ok and good is True


# -- set-up and header ----------------------------------------------------------


def rational_backend() -> str:
    """rationals.backend_name() of the program; this first import also fills
    the bytecode cache, so it is not timed."""
    probe = subprocess.run(
        [sys.executable, "-c",
         "import refsev.cli; from refsev import rationals; print(rationals.backend_name())"],
        capture_output=True, env=job_env(), cwd=ROOT, timeout=60, check=True,
    )
    return probe.stdout.decode().strip()


def time_imports(count: int, workdir: Path, tag, deadline: float) -> list:
    """Wall times of fresh interpreters that only import refsev.cli."""
    times = []
    for i in range(count):
        wall, _, _, status = spawn([sys.executable, "-c", SETUP_PROBE],
                                   workdir / f"setup-{tag}-{i}.out", deadline)
        if status != 0:
            raise RuntimeError("import refsev.cli failed")
        times.append(wall)
    return times


def source_identity() -> dict:
    """The git commit when there is one, and a digest of src/ always."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = "none"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, cwd=ROOT, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        if proc.returncode == 0:
            commit = proc.stdout.decode().strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


# -- metrics --------------------------------------------------------------------


def machine_speed(passes) -> float:
    """How much slower the machine ran than the reference machine: the
    median speed probe of the run over its nominal time."""
    probes = [t for results in passes for r in results for t in r.probe_s]
    return statistics.median(probes) / SPEED_PROBE_NOMINAL_S


def end_to_end(passes, setup_s: float) -> dict:
    """Times are at the reference machine's speed: measured time divided by
    machine_speed(), which the program cannot move."""
    slowdown = machine_speed(passes)
    walls, warms = [], []
    for results in passes:
        walls.append(sum(r.wall_s for r in results))
        rounds = Counter()
        for r in results:
            if r.job.warm_round:
                rounds[r.job.warm_round] += r.wall_s
        warms += rounds.values()
    # without a warm phase a rerun costs what the first run cost
    warm_s = statistics.median(warms) if warms else statistics.median(walls)
    rss = max(r.rss_mb for results in passes for r in results)
    return {
        "wall_s": (statistics.median(walls) / slowdown, "s"),
        "warm_s": (warm_s / slowdown, "s"),
        "setup_s": (setup_s / slowdown, "s"),
        "peak_rss_mb": (rss, "MB"),
    }


# span names timed as one: a call of one nested in a call of another counts once
TIME_GROUPS = {
    "qseries.pow": ("qseries.QSeries.pow", "qseries.QSeries.__pow__"),
    "linalg.solve": ("linalg.solve_exact", "linalg.solve_exact_vec"),
}


def _tree_sums(spans: list):
    """Per span name: calls, and outermost total time (a call nested in a
    call of the same name or group counts once); per layer: self time."""
    calls, outer, layer_self = Counter(), Counter(), Counter()
    keys_above = {}  # node id -> names and groups on the path to it
    for node in spans:  # preorder: a parent precedes its children
        above = keys_above.get(node["parent"], frozenset())
        name = node["name"]
        keys = {name} | {g for g, names in TIME_GROUPS.items() if name in names}
        keys_above[node["id"]] = above | keys
        calls[name] += node["calls"]
        for key in keys - above:
            outer[key] += node["total_s"]
        layer_self[name.split(".", 1)[0]] += node["self_s"]
    return calls, outer, layer_self


def per_layer(traced, untraced) -> dict:
    counts, calls, outer, layer_self = Counter(), Counter(), Counter(), Counter()
    for r in traced:
        if r.trace is None:
            continue
        counts.update(r.trace["counts"])
        c, o, s = _tree_sums(r.trace["spans"])
        calls.update(c)
        outer.update(o)
        layer_self.update(s)

    def ratio(num, den):
        return num / den if den else 0.0

    states = counts["caporaso.states.sym"] + counts["caporaso.states.int"]
    phi_lookups = counts["graphs.phi.lookups"]
    return {
        "ylaurent.mul.calls": (calls["ylaurent.YLaurent.__mul__"], "count"),
        "ylaurent.mul.term_products": (counts["ylaurent.mul.term_products"], "count"),
        "ylaurent.self_s": (layer_self["ylaurent"], "s"),
        "qseries.mul.calls": (calls["qseries.QSeries.__mul__"], "count"),
        "qseries.compose.s": (outer["qseries.compose"], "s"),
        "qseries.compose_inverse.s": (outer["qseries.compose_inverse"], "s"),
        "qseries.pow.s": (outer["qseries.pow"], "s"),
        "qseries.log.s": (outer["qseries.QSeries.log"], "s"),
        "qseries.exp.s": (outer["qseries.QSeries.exp"], "s"),
        "qseries.self_s": (layer_self["qseries"], "s"),
        "modular.self_s": (layer_self["modular"], "s"),
        "caporaso.states.sym": (counts["caporaso.states.sym"], "count"),
        "caporaso.states.int": (counts["caporaso.states.int"], "count"),
        "caporaso.memo.hit_ratio": (ratio(counts["caporaso.memo.hits"],
                                          counts["caporaso.memo.lookups"]), "ratio"),
        "caporaso.self_s": (layer_self["caporaso"], "s"),
        "caporaso.states_per_s": (ratio(states, outer["caporaso.relative_degree"]), "1/s"),
        "cache.open_s": (outer["cache.CacheStore.__init__"], "s"),
        "cache.records_loaded": (counts["cache.records_loaded"], "count"),
        "cache.records_written": (counts["cache.records_written"], "count"),
        "cache.bytes_written": (counts["cache.bytes_written"], "bytes"),
        "cache.flush_s": (outer["cache.CacheStore.flush"], "s"),
        "graphs.enumerated": (counts["graphs.enumerated"], "count"),
        "graphs.used_ratio": (ratio(counts["graphs.used"],
                                    counts["graphs.examined"]), "ratio"),
        "graphs.refined_count.s": (outer["graphs.refined_count"], "s"),
        "graphs.count_orderings.calls": (calls["graphs.count_orderings"], "count"),
        "graphs.phi.calls": (calls["graphs.phi"], "count"),
        "graphs.phi.cache_hit_ratio": (ratio(phi_lookups - counts["graphs.phi.misses"],
                                             phi_lookups), "ratio"),
        "graphs.q_log_count.s": (outer["graphs.q_log_count"], "s"),
        "graphs.self_s": (layer_self["graphs"], "s"),
        "nodepoly.fit.s": (outer["nodepoly.fit_node_polynomial"], "s"),
        "linalg.solve.s": (outer["linalg.solve"], "s"),
        "genfun.solve_universal_B.s": (outer["genfun.solve_universal_B"], "s"),
        "genfun.reform_eval.calls": (calls["genfun.reform_eval"], "count"),
        "cli.main.s": (outer["cli.main"], "s"),
        "proc.cpu_s": (sum(r.cpu_s for r in traced), "s"),
        "trace.overhead_s": (sum(r.wall_s for r in traced)
                             - sum(r.wall_s for r in untraced), "s"),
    }


# -- the run --------------------------------------------------------------------


def run(jobs, seconds: float, trace: bool, refdir: Path = REFERENCE,
        workdir: Path = WORK) -> dict:
    """Run the jobs (already in issue order) and return the result object."""
    deadline = time.monotonic() + DEADLINE_S
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    backend = rational_backend()
    # set-up is sampled before the first pass and after every pass, so that
    # one slow spell of a shared machine does not decide it; a traced run
    # does not report it
    setup = [] if trace else time_imports(SETUP_PROBES_FIRST, workdir, "first", deadline)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(jobs, workdir / f"pass-{len(passes)}", deadline))
        if not trace:
            setup += time_imports(SETUP_PROBES_PER_PASS, workdir, len(passes), deadline)
        elapsed = time.perf_counter() - start
        if trace or elapsed + elapsed / len(passes) > seconds:
            break
    if trace:
        passes.append(run_pass(jobs, workdir / "traced", deadline, traced=True))
    results = [r for p in passes for r in p]
    check(results, refdir, timeout=max(1.0, deadline - time.monotonic()))
    failed = sum(not r.ok for r in results)
    if trace:
        metrics = per_layer(passes[-1], passes[0])
        (workdir / "spans.json").write_text(json.dumps(
            [{"job": r.job.ref, "argv": list(r.job.argv), "trace": r.trace}
             for r in passes[-1]]))
    else:
        metrics = end_to_end(passes, statistics.median(setup))
    return {
        "slowdown": None if trace else machine_speed(passes),
        "backend": backend,
        "passes": passes,
        "fail_ratio": failed / len(results),
        "result": {
            "correct": failed == 0,
            "attempted": len(results),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "refsev" / "cli.py").is_file():
        print(f"error: no refsev sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    jobs = issue_order(WORKLOADS[args.workload], args.seed)
    out = run(jobs, args.seconds, bool(args.trace))
    header = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "backend": out["backend"], "nproc": os.cpu_count(),
        **source_identity(),
        "jobs": ["refsev " + " ".join(j.argv) for j in jobs],
    }
    print("# run " + json.dumps(header))
    for i, results in enumerate(out["passes"]):
        tag = "traced" if args.trace and i == len(out["passes"]) - 1 else f"pass-{i}"
        for r in results:
            phase = f"warm{r.job.warm_round}" if r.job.warm_round else "cold"
            print(f"# {tag:6} {phase:5} {r.job.ref:16} wall {r.wall_s:9.3f} s"
                  f"  cpu {r.cpu_s:9.3f} s  rss {r.rss_mb:7.1f} MB"
                  f"  probes {' '.join(f'{t:.3f}' for t in r.probe_s) or '-'} s"
                  f"  {'ok' if r.ok else 'FAILED'}")
    result = out["result"]
    if out["slowdown"] is not None:
        print(f"# machine slowdown {out['slowdown']:.4f}: median speed probe over"
              f" {SPEED_PROBE_NOMINAL_S} s; times below are measured times divided by it")
    for name, m in result["metrics"].items():
        print(f"{name:32} {m['value']:>16.6f} {m['unit']}")
    print(f"{'fail_ratio':32} {out['fail_ratio']:>16.6f} ratio "
          f"({result['failed']}/{result['attempted']} jobs failed)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
