"""Self-tests of the benchmark; run from the repository root with

    python3 -m pytest -q bench/test_bench.py

They use three cheap jobs from the workloads and take about half a minute.
"""

from __future__ import annotations

import copy
import math
import shutil
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.import_zpgd()

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, JobContext  # noqa: E402

JOBS = [job for job in WORKLOADS["bounded-series"] + WORKLOADS["freespace-tracer"]
        if job[0] in ("ball3d_smooth", "eps_sweep_riemann", "velocity_bound_sweep")]


@pytest.fixture(scope="module")
def refs():
    out = {}
    for workload in ("bounded-series", "freespace-tracer"):
        out.update(reference.load(workload))
    return out


@pytest.fixture
def ctx(tmp_path):
    return JobContext(tmp_path, seed=7)


@pytest.fixture(scope="module")
def two_traces(refs, tmp_path_factory):
    import zpgd.specfun
    bessel_all = zpgd.specfun.bessel_all
    out = []
    for _ in range(2):
        tally = run.Tally()
        ctx = JobContext(tmp_path_factory.mktemp("trace"), seed=7)
        out.append(run.traced(JOBS, ctx, refs, tally))
        assert tally.failed == 0, tally.problems
        # the wrappers are gone once the traced pass ends
        assert zpgd.specfun.bessel_all is bessel_all
    return out


def test_counts_repeat_exactly(two_traces):
    first, second = (tracer.exact_counts(t["per_layer"]) for t in two_traces)
    assert first == second
    # the jobs reach the eigenvalue scan, the tracer and the minimizer
    assert first["specfun.find_eigenvalues.calls"] > 0
    assert first["freespace.rk4.rhs_evals"] > 0
    assert first["inviscid.minimize.calls"] > 0


def test_self_times_fit_in_the_traced_wall_time(two_traces):
    for t in two_traces:
        assert 0.0 < t["self_s_total"] <= t["traced_wall_s"]


def test_seed_outputs_match_the_reference(ctx, refs):
    tally = run.Tally()
    run.grade(run.run_pass(JOBS, ctx)[2], refs, tally)
    assert tally.failed == 0, tally.problems
    assert tally.max_rel_dev == 0.0
    assert tally.csv_identical == tally.csv_total > 0


@pytest.mark.parametrize("tamper", ["csv", "csv_nan", "value"])
def test_tampered_reference_fails_the_gate(ctx, refs, tamper):
    bad = copy.deepcopy(refs)
    if tamper.startswith("csv"):
        art = bad["ball3d_smooth"]["artifacts"]["ball3d_smooth_field.csv"]
        art["sha256"] = "0" * 64
        if tamper == "csv_nan":
            art["columns"]["q"][0] = math.nan
        else:
            art["columns"]["q"][5] *= 1.0 + 1e-5
    else:
        i = ctx.pick("velocity.n2", workloads.VELOCITY_POOL, workloads.VELOCITY_POINTS)[0]
        bad["velocity_bound_sweep"]["values"]["n2.q"][i] += 1e-3
    tally = run.Tally()
    run.grade(run.run_pass(JOBS, ctx)[2], bad, tally)
    assert tally.failed == 1
    assert tally.max_rel_dev > reference.GATE_MAX_DEV


def test_deviation_of_non_finite_values():
    nan, inf = math.nan, math.inf
    assert reference._dev(nan, nan) == 0.0
    assert reference._dev(inf, inf) == 0.0
    for v, r in [(1.0, nan), (nan, 1.0), (1.0, inf), (inf, -inf), (-inf, 1.0)]:
        assert reference._dev(v, r) == inf
    # a NaN first value does not hide a later deviation
    assert reference._max_dev([nan, 2.0], [nan, 1.0]) == 1.0


def test_failed_check_counts_as_failure(ctx, refs, monkeypatch):
    monkeypatch.setattr(workloads, "VELOCITY_BOUND_TOL", -1.0)
    tally = run.Tally()
    run.grade(run.run_pass(JOBS, ctx)[2], refs, tally)
    assert tally.failed_checks == 3 and tally.failed_jobs == 0


def test_seed_picks_the_pool_subset(tmp_path):
    a = JobContext(tmp_path, seed=1).pick("k", 1000, 50)
    assert (a == JobContext(tmp_path, seed=1).pick("k", 1000, 50)).all()
    assert not (a == JobContext(tmp_path, seed=2).pick("k", 1000, 50)).all()


def test_empty_checkout_cannot_run(tmp_path):
    bench = tmp_path / "bench"
    shutil.copytree(Path(run.BENCH), bench,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    import subprocess
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "bounded-series",
                           "--seed", "1", "--seconds", "5", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_speed_sampler_skips_samples_while_the_program_runs_elsewhere():
    import subprocess
    import threading

    import speed
    stop = threading.Event()
    busy = threading.Thread(target=lambda: stop.wait())
    busy.start()
    sampler = speed.SpeedSampler()
    try:
        for _ in range(3):
            sampler._sample()
    finally:
        stop.set()
        busy.join()
    assert sampler.skipped == 3 and not sampler.samples
    with subprocess.Popen([sys.executable, "-c", "while True: pass"]) as child:
        try:
            time.sleep(0.2)
            assert speed._running_elsewhere()
        finally:
            child.kill()
    sampler.top_up()
    assert len(sampler.samples) == speed.MIN_SAMPLES
    assert sampler.slowdown() > 0.0


def test_speed_sampler_samples_and_restores_the_handler():
    import signal

    import speed
    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.SpeedSampler()
    with sampler.running():
        t_end = time.perf_counter() + 1.0
        while time.perf_counter() < t_end:
            sum(range(1000))
    assert len(sampler.samples) >= 2
    assert sampler.slowdown() > 0.0
    assert 0.0 < sampler.spent_s < 1.0
    assert signal.getsignal(signal.SIGALRM) is before


def test_setup_time_is_measured_in_fresh_interpreters():
    setup_s, raw_s = run.measure_setup(["ball3d_smooth"], runs=1)
    assert setup_s > 0.0 and raw_s > 0.0
