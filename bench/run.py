"""zpgd benchmark: run one workload with one seed and print its metrics.

    python3 bench/run.py --workload bounded-series --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is imported from ./src, never
from an installed copy.  With --trace 0 the workload's jobs run in passes,
one after another in this process (a single closed-loop client, zpgd's
--threads left at 1), for as many passes as fit in --seconds; the
end-to-end metrics are medians over the passes.  With --trace 1 a warm-up
pass is followed by one untraced and one traced pass, and the per-layer
metrics come from the traced pass.  Every pass is checked against the
reference outputs recorded from the seed commit.  The last line of
standard output is one JSON object; a fuller record goes to
bench/results/.  Exit codes: 0 outputs correct, 1 a check or the
reference gate failed, 2 the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import reference
import speed
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_RUNS = 5

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
              "ZPGD_THREADS")


def cannot_run(message: str):
    print(f"benchmark: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_zpgd():
    """Put ./src first on the path and check zpgd really comes from there."""
    if not (SRC / "zpgd" / "__init__.py").is_file():
        cannot_run(f"no zpgd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import zpgd
    if Path(zpgd.__file__).resolve().parent != (SRC / "zpgd").resolve():
        cannot_run(f"zpgd was imported from {zpgd.__file__}")


# ---------------------------------------------------------------------------
# set-up time: fresh interpreter to zpgd imported and configs parsed
#
# Interpreter start-up speed on a shared host drifts with the same phases
# as the passes (see speed.py), and the timer-signal sampler cannot follow
# it: a sub-second child spends most of its time loading numpy and scipy,
# which a small numpy kernel in this process does not track.  So each
# set-up interpreter is paired with a calibration interpreter started just
# before it, which imports the same numpy and scipy modules and nothing of
# zpgd.  setup_s is the median set-up/calibration ratio times the
# calibration time on the reference host.

_SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import zpgd
from zpgd import cli
for name in sys.argv[2:]:
    cli.parse_config(cli.resolve_config(name))
print("ready", flush=True)
"""
_CALIBRATION_CODE = """
import numpy, scipy.integrate, scipy.optimize, scipy.special
print("ready", flush=True)
"""
# Median calibration-interpreter time on the reference host (see speed.py).
REF_CALIBRATION_S = 0.77


def _interpreter_s(code: str, *args: str) -> float:
    """Seconds from starting a fresh interpreter on `code` to its "ready"."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code, *args],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        seconds = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    if line != "ready" or rc != 0:
        raise RuntimeError(f"set-up interpreter failed (exit code {rc})")
    return seconds


def measure_setup(scenarios: list[str], runs: int = SETUP_RUNS) -> tuple[float, float]:
    """Median set-up time over `runs` fresh interpreters, at the reference
    host speed and as measured."""
    ratios, raw = [], []
    for _ in range(runs):
        calibration = _interpreter_s(_CALIBRATION_CODE)
        raw.append(_interpreter_s(_SETUP_CODE, str(SRC), *scenarios))
        ratios.append(raw[-1] / calibration)
    return statistics.median(ratios) * REF_CALIBRATION_S, statistics.median(raw)


# ---------------------------------------------------------------------------
# passes and grading


@dataclass
class Tally:
    checks: int = 0
    failed_checks: int = 0
    jobs: int = 0
    failed_jobs: int = 0
    max_rel_dev: float = 0.0
    csv_identical: int = 0
    csv_total: int = 0
    problems: list = field(default_factory=list)
    job_wall_s: dict = field(default_factory=dict)   # name -> one time per pass

    @property
    def attempted(self) -> int:
        return self.checks + self.jobs

    @property
    def failed(self) -> int:
        return self.failed_checks + self.failed_jobs


def _peak_rss_mb() -> float:
    """Peak resident memory of this process so far.  It is read after the
    first pass and before that pass is graded: later passes can raise it a
    little, how many passes fit in a run depends on the host's speed, and
    grading is the benchmark's memory, not the program's."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_s() -> float:
    """CPU time of this process and of the child processes it waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_pass(jobs, ctx, tr=None):
    """One pass over the jobs; returns (wall s, cpu s, outcomes), one outcome
    (name, result, error, wall s) per job."""
    outcomes = []
    t0, c0 = time.perf_counter(), _cpu_s()
    for name, fn in jobs:
        tj = time.perf_counter()
        res = error = None
        try:
            if tr is None:
                res = fn(ctx)
            else:
                with tr.job_span(name):
                    res = fn(ctx)
        except Exception:   # a numerical failure counts as a failed job
            error = traceback.format_exc()
        outcomes.append((name, res, error, time.perf_counter() - tj))
    return time.perf_counter() - t0, _cpu_s() - c0, outcomes


def grade(outcomes, refs: dict, tally: Tally) -> None:
    for name, res, error, seconds in outcomes:
        tally.jobs += 1
        tally.job_wall_s.setdefault(name, []).append(seconds)
        if error is not None:
            tally.failed_jobs += 1
            tally.problems.append(f"{name} raised:\n{error}")
            continue
        for c in res.checks:
            tally.checks += 1
            if not c.ok:
                tally.failed_checks += 1
                tally.problems.append(f"{name}: check {c.name!r} failed: "
                                      f"{c.value:.6g} > {c.tol:.3g}")
        cmp = reference.compare(res, refs[name])
        tally.max_rel_dev = max(tally.max_rel_dev, cmp.max_dev)
        tally.csv_identical += cmp.csv_identical
        tally.csv_total += cmp.csv_total
        if not cmp.ok:
            tally.failed_jobs += 1
            tally.problems += [f"{name}: {p}" for p in cmp.problems]


def sampled_pass(jobs, ctx, sampler: speed.SpeedSampler, tr=None):
    """One pass with the speed sampler running; returns (wall s, cpu s,
    outcomes).  The times exclude the sampler's own time."""
    with sampler.running():
        wall, cpu, outcomes = run_pass(jobs, ctx, tr=tr)
    return wall - sampler.spent_s, cpu - sampler.spent_s, outcomes


def measure(jobs, ctx, refs, seconds: float, tally: Tally) -> dict:
    """Untraced passes until the next one would overrun `seconds`.  The
    *_ref_s times are at the reference host speed (see speed.py)."""
    walls, cpus, slowdowns, skipped = [], [], [], []
    start = time.perf_counter()
    while True:
        sampler = speed.SpeedSampler()
        wall, cpu, outcomes = sampled_pass(jobs, ctx, sampler)
        walls.append(wall)
        cpus.append(cpu)
        if len(walls) == 1:
            peak_rss_mb = _peak_rss_mb()
        sampler.top_up()
        slowdowns.append(sampler.slowdown())
        skipped.append(sampler.skipped)
        grade(outcomes, refs, tally)
        if time.perf_counter() - start + max(walls) > seconds:
            break
    return {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
            "wall_ref_s": statistics.median(w / k for w, k in zip(walls, slowdowns)),
            "cpu_ref_s": statistics.median(c / k for c, k in zip(cpus, slowdowns)),
            "passes": len(walls), "pass_wall_s": walls, "pass_cpu_s": cpus,
            "pass_slowdown": slowdowns, "pass_samples_skipped": skipped,
            "peak_rss_mb": peak_rss_mb}


def traced(jobs, ctx, refs, tally: Tally, spans_path: Path | None = None) -> dict:
    """A warm-up pass, then an untraced and a traced pass back to back;
    per-layer metrics by name.  The warm-up pays lazy imports and first-use
    caches, so trace.overhead_s compares two warm passes, both at the
    reference host speed.  The tracer's clock leaves out the sampler's
    time, so the spans hold none of it."""
    _, _, outcomes = run_pass(jobs, ctx)
    peak_rss_mb = _peak_rss_mb()
    grade(outcomes, refs, tally)
    sampler = speed.SpeedSampler()
    wall0, _, outcomes = sampled_pass(jobs, ctx, sampler)
    sampler.top_up()
    ref0 = wall0 / sampler.slowdown()
    grade(outcomes, refs, tally)
    sampler = speed.SpeedSampler()
    tr = tracer.Tracer(clock=sampler.clock)
    with tracer.installed(tr):
        wall1, _, outcomes = sampled_pass(jobs, ctx, sampler, tr)
    sampler.top_up()
    ref1 = wall1 / sampler.slowdown()
    grade(outcomes, refs, tally)
    if spans_path is not None:
        tr.dump(spans_path)
    return {"untraced_wall_s": wall0, "traced_wall_s": wall1,
            "untraced_wall_ref_s": ref0, "traced_wall_ref_s": ref1,
            "peak_rss_mb": peak_rss_mb,
            "self_s_total": sum(tr.self_s.values()),
            "per_layer": tracer.per_layer_metrics(tr, ref1 - ref0)}


# ---------------------------------------------------------------------------
# run record


def _git(*args) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "zpgd").rglob("*")):
        if p.suffix in (".py", ".cfg"):
            h.update(str(p.relative_to(SRC)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_record(args, passes: int) -> dict:
    import numpy
    import scipy

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
    }


def _finite(x):
    return x if math.isfinite(x) else str(x)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_zpgd()
    from workloads import WORKLOADS, JobContext, scenario_names

    if args.workload not in WORKLOADS:
        cannot_run(f"unknown workload {args.workload!r}; "
                   f"choose from {', '.join(WORKLOADS)}")
    if not reference.reference_path(args.workload).is_file():
        cannot_run(f"no reference outputs for {args.workload}; "
                   "run bench/record_reference.py on the seed commit")
    refs = reference.load(args.workload)
    jobs = WORKLOADS[args.workload]
    # set-up time is an end-to-end metric: the traced run does not need it
    setup_s, setup_raw_s = ((None, None) if args.trace
                            else measure_setup(scenario_names(args.workload)))

    RESULTS.mkdir(exist_ok=True)
    work = RESULTS / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    ctx = JobContext(work, args.seed)
    tally = Tally()
    try:
        if args.trace:
            spans = RESULTS / f"{args.workload}_seed{args.seed}_spans.npz"
            timing = traced(jobs, ctx, refs, tally, spans)
            passes = 3
        else:
            timing = measure(jobs, ctx, refs, args.seconds, tally)
            passes = timing["passes"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = timing["peak_rss_mb"]

    failed_frac = tally.failed / tally.attempted
    correct = tally.failed == 0
    for p in tally.problems:
        print(f"FAIL {p}", file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}, {passes} passes, "
          f"{tally.attempted} checks and jobs, "
          f"{tally.csv_identical}/{tally.csv_total} CSV artifacts byte-identical")
    if args.trace:
        metrics = timing.pop("per_layer")
        for name, (value, unit) in metrics.items():
            print(f"  {name:48s} {value:.6g} {unit}")
    else:
        for name, secs in tally.job_wall_s.items():
            print(f"  job {name:30s} {statistics.median(secs):.3f} s")
        metrics = {"wall_ref_s": (timing["wall_ref_s"], "s"),
                   "cpu_ref_s": (timing["cpu_ref_s"], "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB"), "setup_s": (setup_s, "s")}
        shown = dict(wall_s=(timing["wall_s"], "s"), cpu_s=(timing["cpu_s"], "s"),
                     setup_raw_s=(setup_raw_s, "s"), **metrics,
                     failed_frac=(failed_frac, "1"),
                     max_rel_dev=(tally.max_rel_dev, "1"))
        for name, (value, unit) in shown.items():
            print(f"  {name:12s} {value:.6g} {unit}")

    record = run_record(args, passes)
    record.update(timing)
    record.update({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "failed_frac": failed_frac, "max_rel_dev": _finite(tally.max_rel_dev),
        "csv_identical": tally.csv_identical, "csv_total": tally.csv_total,
        "job_wall_s": tally.job_wall_s,
        "setup_s": setup_s, "setup_raw_s": setup_raw_s,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": tally.problems,
    })
    out = RESULTS / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
