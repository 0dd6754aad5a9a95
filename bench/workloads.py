"""The benchmark's workloads: their jobs, seeded inputs and acceptance checks.

A job runs through zpgd's public entry points and returns a JobResult:
the checks it made, the CSV artifacts it wrote and the output values it
computed outside any CSV.  Seeded jobs draw their points from a fixed pool
(the point grids of the acceptance criteria they are modelled on); the
seed picks which pool points a run uses, and the reference file holds the
seed commit's value at every pool point.
"""

from __future__ import annotations

import io
import math
import re
import zlib
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as P

from zpgd import cli
from zpgd import freespace as fs
from zpgd import inviscid as iv
from zpgd import oracles as orc
from zpgd.profiles import ScalarProfile


@dataclass
class Check:
    name: str
    value: float
    tol: float
    ok: bool


@dataclass
class JobResult:
    checks: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)
    # name -> (pool indexes, or None for the whole reference array; values)
    values: dict = field(default_factory=dict)

    def check(self, name: str, value: float, tol: float):
        self.checks.append(Check(name, value, tol, bool(value <= tol)))


class JobContext:
    """Where a job writes, and which pool points it uses.  With
    full_pools set (reference recording) every pool point is used."""

    def __init__(self, out_dir: Path, seed: int, full_pools: bool = False):
        self.out_dir = out_dir
        self.seed = seed
        self.full_pools = full_pools

    def pick(self, key: str, pool_size: int, k: int) -> np.ndarray:
        if self.full_pools:
            return np.arange(pool_size)
        rng = np.random.default_rng([self.seed, zlib.crc32(key.encode())])
        return np.sort(rng.choice(pool_size, size=k, replace=False))


# ---------------------------------------------------------------------------
# bundled scenarios through the CLI entry point

_CHECK_LINE = re.compile(r"^\s+\[(PASS|FAIL)\] (.*): \|(\S+)\| <= (\S+)$")


def scenario_job(name: str):
    def run(ctx: JobContext) -> JobResult:
        text = cli.resolve_config(name)
        with redirect_stdout(io.StringIO()):
            rc = cli.run_scenario(text, str(ctx.out_dir))
        if rc not in (0, 1):
            raise RuntimeError(f"scenario {name} exited with code {rc}")
        prefix = cli.parse_config(text)["output"]["prefix"]
        report = (ctx.out_dir / f"{prefix}_report.txt").read_text().splitlines()
        res = JobResult()
        for line in report:
            m = _CHECK_LINE.match(line)
            if m:
                res.checks.append(Check(m[2], float(m[3]), float(m[4]), m[1] == "PASS"))
        start = report.index("artifacts:") + 1
        res.artifacts = [Path(a.strip()) for a in report[start:]
                         if a.strip().endswith(".csv")]
        return res
    run.scenario = name
    return run


# ---------------------------------------------------------------------------
# seeded cross-checks


def _smooth_bump(amp=None):
    base = P.polypow([1.0, 0.0, -0.25], 4)
    coeffs = base if amp is None else amp * 0.5 * P.polymul([0.0, 1.0], base)
    return ScalarProfile.from_pieces([0.0, 2.0, 3.0], [list(coeffs), [0.0]])


def _minimizer_problems():
    """The three problems of the minimizer-vs-brute-force criterion (c09)."""
    p0 = ScalarProfile.piecewise_linear([0.0, 1.0, 2.0], [1.0, 1.0, 0.0])
    return [
        iv.InviscidProblem(3, _smooth_bump(1.0), p0, ScalarProfile.constant(0.8),
                           ScalarProfile.constant(4 * math.pi * 1.5)),
        iv.InviscidProblem(2, ScalarProfile.from_pieces([0.0, 1.0, 2.0], [[1.0], [0.0]]),
                           p0, ScalarProfile.piecewise_linear(
                               [0.0, 0.8, 1.6, 2.6], [0.9, 0.3, -0.6, 0.4]),
                           ScalarProfile.constant(2 * math.pi * 1.5)),
        iv.InviscidProblem(1, ScalarProfile.constant(0.5), p0,
                           ScalarProfile.piecewise_linear(
                               [0.0, 1.0, 2.0, 3.0], [-0.4, 0.7, -0.2, 0.1]),
                           ScalarProfile.piecewise_linear([0.0, 4.0], [3.0, 4.0])),
    ]


MINIMIZER_POINTS = 100   # per problem, from the 50 x 50 (r, t) grid of c09
MINIMIZER_GAP_TOL = 1e-4


def minimizer_crosscheck(ctx: JobContext) -> JobResult:
    rs = np.linspace(0.05, 2.5, 50)
    ts = np.linspace(0.1, 2.0, 50)
    res = JobResult()
    for k, prob in enumerate(_minimizer_problems()):
        idx = ctx.pick(f"minimizer.p{k}", rs.size * ts.size, MINIMIZER_POINTS)
        mz = iv.PathMinimizer(prob, t_max=4.0)
        vm = np.empty(idx.size)
        vb = np.empty(idx.size)
        for j, i in enumerate(idx):
            r, t = float(rs[i % rs.size]), float(ts[i // rs.size])
            vm[j] = mz.minimize(r, t).value
            vb[j] = orc.brute_force_Q(prob, r, t, grid_density=100, refine_rounds=2)[0]
        res.check(f"problem {k} minimizer vs brute-force gap",
                  float(np.abs(vm - vb).max()), MINIMIZER_GAP_TOL)
        res.values[f"p{k}.minimize"] = (idx, vm)
        res.values[f"p{k}.brute_force"] = (idx, vb)
    return res


STICKY_GAP_TOL = 2e-2


def sticky_vs_front(ctx: JobContext) -> JobResult:
    """Sticky-particle gas against the front that verify_rh_riemann detected
    (modelled on c11); runs after that scenario in the same workload."""
    front = np.loadtxt(ctx.out_dir / "verify_rh_riemann_front0.csv", delimiter=",",
                       skiprows=2, usecols=(0, 1), ndmin=2)
    times, s = front[:, 0], front[:, 1]
    parts = orc.riemann_particles(1.0, 0.0, 1.0, 1.0, split=1.0, r_max=3.0, count=10000)
    traj = orc.sticky_particle_run(parts, times)
    ts, rcl, _, _ = traj.cluster_track(3333)
    res = JobResult()
    gap = float(np.abs(rcl - np.interp(ts, times, s)).max())
    res.check("sticky cluster vs detected front gap", gap, STICKY_GAP_TOL)
    res.values["cluster_r"] = (None, rcl)
    res.values["absorbed_mass"] = (None, traj.absorbed_mass)
    return res


def _velocity_problems():
    """The three free-space problems of the velocity-bound criterion (c01)."""
    return [
        fs.FreespaceProblem(1, 0.3, q0=ScalarProfile.piecewise_linear(
            [0.0, 0.5, 1.2, 2.0, 2.5], [0.2, 0.9, -0.6, 0.3, 0.0]),
            rho0=_smooth_bump(), rho0_support=2.0),
        fs.FreespaceProblem(2, 0.2, q0=ScalarProfile.piecewise_linear(
            [0.0, 0.7, 1.5, 2.2], [0.0, -0.8, 0.7, 0.0]),
            rho0=_smooth_bump(), rho0_support=2.0),
        fs.FreespaceProblem(3, 0.5, q0=_smooth_bump(1.5),
                            rho0=_smooth_bump(), rho0_support=2.0),
    ]


VELOCITY_POOL = 1000
VELOCITY_POINTS = 60     # per problem
VELOCITY_BOUND_TOL = 1e-8


def _velocity_pool():
    """c01's random (r, t) points: 1000 per problem, in problem order."""
    rng = np.random.default_rng(101)
    pool = []
    for _ in range(3):
        r = rng.uniform(0.01, 4.0, VELOCITY_POOL)
        t = 10 ** rng.uniform(-1.3, 1.3, VELOCITY_POOL)
        pool.append((r, t))
    return pool


def velocity_bound_sweep(ctx: JobContext) -> JobResult:
    res = JobResult()
    for k, (prob, (r, t)) in enumerate(zip(_velocity_problems(), _velocity_pool())):
        idx = ctx.pick(f"velocity.n{prob.n}", VELOCITY_POOL, VELOCITY_POINTS)
        q = np.array([fs.radial_velocity(prob, float(r[i]), float(t[i])) for i in idx])
        res.check(f"n={prob.n} velocity bound excess",
                  max(0.0, float(np.abs(q).max()) - prob.q0.sup_abs()),
                  VELOCITY_BOUND_TOL)
        res.values[f"n{prob.n}.q"] = (idx, q)
    return res


# ---------------------------------------------------------------------------
# the workloads

WORKLOADS = {
    "bounded-series": [
        ("ball2d_smooth", scenario_job("ball2d_smooth")),
        ("annulus3d_smooth", scenario_job("annulus3d_smooth")),
        ("ball3d_smooth", scenario_job("ball3d_smooth")),
        ("oracle_compare_ball3d", scenario_job("oracle_compare_ball3d")),
    ],
    "inviscid-fronts": [
        ("verify_rh_riemann", scenario_job("verify_rh_riemann")),
        ("inviscid_inflow", scenario_job("inviscid_inflow")),
        ("minimizer_crosscheck", minimizer_crosscheck),
        ("sticky_vs_front", sticky_vs_front),
    ],
    "freespace-tracer": [
        ("freespace_decay", scenario_job("freespace_decay")),
        ("freespace_closed_form", scenario_job("freespace_closed_form")),
        ("eps_sweep_riemann", scenario_job("eps_sweep_riemann")),
        ("velocity_bound_sweep", velocity_bound_sweep),
    ],
}


def scenario_names(workload: str) -> list[str]:
    return [fn.scenario for _, fn in WORKLOADS[workload] if hasattr(fn, "scenario")]
