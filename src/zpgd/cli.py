"""Batch front-end: scenario configs in, CSV artifacts and a run report out.

Subcommands: run, list-scenarios, eigen, verify.  A scenario is a small
INI-style file (sections in brackets, dotted nesting, key = value) with
profiles given as breakpoint tables.  Each check's tolerance is fixed at
its ctx.check call and scaled by --tolerance-scale; a scenario's [checks]
section holds only the free-space switches CHECK_SWITCHES, and any other
key there is a validation error.  Exit codes: 0 all checks pass,
1 check failure, 2 parse error, 3 validation error, 4 numerical failure
(a solver raised one of NUMERICAL_ERRORS; the report names it).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import bounded_green as bg
from . import freespace as fs
from . import inviscid as iv
from . import oracles as orc
from . import shockfront as sfm
from .profiles import ScalarProfile
from .radial_core import FLOAT_FMT, RadialField, write_csv, write_radial_csv
from .specfun import (DomainCase, EigenProblem, InsufficientScanRangeError,
                      find_eigenvalues)

NUMERICAL_ERRORS = (bg.TruncationError, bg.DataInsufficiencyError, fs.ConfinementError,
                    fs.QuadratureBudgetError, fs.CharacteristicError,
                    fs.MassConcentrationError,
                    orc.StabilityError, InsufficientScanRangeError)

# the [checks] keys a scenario may set: switches for the free-space checks
CHECK_SWITCHES = ("mass", "decay", "closed_form")

_CONVENTION_NOTES = {
    "eigen": [
        "annulus (n=2) characteristic determinant uses the symmetric form "
        "with both inner-wall arguments at lambda*R1",
        "ball (n=3) equation includes the radius factor: mu cot mu + (q_B/eps) R - 1",
    ],
    "ball": [
        "weight exp(-(1/eps) int q0) is used in numerator and denominator alike",
        "with zero boundary velocity the constant mode is included in the series",
        "mass-flux identity is checked on the radial mass integral of p",
    ],
    "annulus": [
        "weight exp(-(1/eps) int q0) is used in numerator and denominator alike",
        "with zero boundary velocities the constant mode is included in the series",
        "two-wall flux identity is checked on the radial mass integral of p",
    ],
    "inviscid": [
        "straight-path cost is (r-r0)^2/(2t)",
        "boundary-branch velocity uses the last boundary-contact time: q = r/(t - t2)",
        "boundary-branch primitive is -p_B(t2)/omega_{n-1}",
    ],
    "verify-rh": [
        "jump brackets are inner-minus-outer: [f] = f(s-) - f(s+)",
        "multi-d residual reported in p-units (scaled by s^(n-1))",
    ],
}


class ConfigError(ValueError):
    pass


class ValidationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config parsing


def parse_config(text: str) -> dict:
    """INI-style sections with dotted nesting; values become floats, float
    lists or strings."""
    root: dict = {}
    section = root
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = root
            for part in line[1:-1].strip().split("."):
                section = section.setdefault(part.strip(), {})
                if not isinstance(section, dict):
                    raise ConfigError(f"line {lineno}: section clashes with a key")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, val = (s.strip() for s in line.split("=", 1))
        section[key] = _parse_value(val)
    return root


def _parse_value(val: str):
    parts = [p for p in val.replace(",", " ").split() if p]
    if not parts:
        return ""
    try:
        nums = [float(p) for p in parts]
    except ValueError:
        return val
    return nums[0] if len(nums) == 1 else nums


def profile_from_config(cfg: dict, name: str) -> ScalarProfile:
    kind = str(cfg.get("type", "constant"))
    try:
        if kind == "constant":
            return ScalarProfile.constant(float(cfg["value"]))
        if kind == "linear":
            return ScalarProfile.piecewise_linear(
                np.atleast_1d(cfg["breakpoints"]), np.atleast_1d(cfg["values"]))
        if kind == "pieces":
            bps = np.atleast_1d(cfg["breakpoints"])
            rows = []
            for i in range(len(bps) - 1):
                rows.append(np.atleast_1d(cfg[f"coeffs{i}"]))
            return ScalarProfile.from_pieces(bps, rows)
    except KeyError as exc:
        raise ValidationError(f"profile {name}: missing {exc}") from exc
    raise ValidationError(f"profile {name}: unknown type {kind!r}")


def _grid(cfg, key, default):
    spec = cfg.get(key, default)
    lo, hi, count = spec
    return np.linspace(float(lo), float(hi), int(count))


# ---------------------------------------------------------------------------
# checks and report plumbing


class RunContext:
    def __init__(self, out_dir: Path, prefix: str, tolerance_scale: float):
        self.out = out_dir
        self.prefix = prefix
        self.tolerance_scale = tolerance_scale
        self.checks: list[tuple] = []
        self.artifacts: list[str] = []
        self.params: list[str] = []
        self.failure: str | None = None

    def path(self, suffix: str) -> Path:
        p = self.out / f"{self.prefix}{suffix}"
        self.artifacts.append(str(p))
        return p

    def check(self, name: str, value: float, tol: float):
        tol = tol * self.tolerance_scale
        self.checks.append((name, value, tol, abs(value) <= tol))

    def check_flag(self, name: str, ok: bool):
        self.checks.append((name, 0.0 if ok else 1.0, 0.5, ok))

    def write_report(self, mode: str):
        lines = [f"run report: mode={mode}", ""]
        lines += ["parameters:"] + [f"  {p}" for p in self.params] + [""]
        notes = _CONVENTION_NOTES.get(mode, [])
        if notes:
            lines += ["convention notes:"] + [f"  - {n}" for n in notes] + [""]
        lines.append("checks:")
        for name, value, tol, ok in self.checks:
            lines.append(f"  [{'PASS' if ok else 'FAIL'}] {name}: "
                         f"|{FLOAT_FMT % value}| <= {FLOAT_FMT % tol}")
        ok_all = all(c[3] for c in self.checks) and self.failure is None
        if self.failure is not None:
            lines += ["", self.failure]
        lines += ["", f"result: {'PASS' if ok_all else 'FAIL'}", "artifacts:"]
        lines += [f"  {a}" for a in self.artifacts]
        path = self.out / f"{self.prefix}report.txt"
        path.write_text("\n".join(lines) + "\n")
        return ok_all


# ---------------------------------------------------------------------------
# mode handlers


def _domain_from(cfg: dict) -> dict:
    """EigenProblem keywords (case, epsilon, radii and wall velocities) from
    a [problem] section or the eigen subcommand's flags.  A wall velocity
    defaults to 0; a missing radius is a validation error."""
    case = DomainCase(str(cfg["case"]).lower())
    kw = dict(case=case, epsilon=float(cfg.get("epsilon", 1.0)))
    walls = ((("r_inner", "q_inner"), ("r_outer", "q_outer")) if case.is_annulus
             else (("radius", "q_boundary"),))
    for r_key, q_key in walls:
        if cfg.get(r_key) is None:
            raise ValidationError(f"{case.value} needs {r_key}")
        kw[r_key] = float(cfg[r_key])
        kw[q_key] = float(cfg.get(q_key, 0.0))
    return kw


def run_eigen(cfg: dict, ctx: RunContext) -> None:
    prob = EigenProblem(**_domain_from(cfg.get("problem", {})))
    count = int(cfg.get("count", 5))
    eigs = find_eigenvalues(prob, count)
    ctx.params.append(f"case={prob.case.value} count={count}")
    bg.write_eigenvalue_csv(eigs, ctx.path("eigenvalues.csv"))
    scaled = np.abs(eigs.residuals) / np.maximum(1.0, eigs.values)
    ctx.check("eigen residual (scaled)", float(scaled.max()), 1e-10)
    half = find_eigenvalues(prob, count, scan_step=eigs.scan_step / 2.0)
    ctx.check("scan halving drift", float(np.abs(half.values - eigs.values).max()),
              1e-10)


def _bounded_problem_from(cfg: dict) -> bg.BoundedProblem:
    pcfg = cfg.get("problem", {})
    kw = _domain_from(pcfg)
    for key in ("rho_boundary", "rho_inner", "rho_outer"):
        if key in pcfg:
            kw[key] = profile_from_config(pcfg[key], key)
    return bg.BoundedProblem(q0=profile_from_config(pcfg.get("q0", {}), "q0"),
                             rho0=profile_from_config(pcfg.get("rho0", {}), "rho0"), **kw)


def run_bounded(cfg: dict, ctx: RunContext) -> None:
    problem = _bounded_problem_from(cfg)
    state = bg.hopf_cole_boundary_state(
        problem, n_terms=int(cfg["n_terms"]) if "n_terms" in cfg else None)
    a, b = problem.domain
    grid_r = _grid(cfg.get("grid", {}), "r", [a + 0.05 * (b - a), b - 0.05 * (b - a), 25])
    grid_t = _grid(cfg.get("grid", {}), "t", [max(0.1, state.time_floor), 2.0, 11])
    ctx.params.append(f"case={problem.case.value} eps={problem.epsilon} "
                      f"domain={problem.domain} terms={len(state.ev.eigs.values)}")
    ctx.params.append(f"consistency gap={problem.consistency_gap():.3g}")

    q = np.array([state.velocity(grid_r, float(t)) for t in grid_t])
    p = np.array([bg.density_batch(state, grid_r, float(t)) for t in grid_t]) \
        * grid_r ** (problem.n - 1)
    field = RadialField(problem.n, problem.epsilon, grid_r, grid_t, q, p)
    write_radial_csv(field, ctx.path("field.csv"))
    bg.write_eigenvalue_csv(state.ev.eigs, ctx.path("eigenvalues.csv"))
    ctx.check("robin residual", state.robin_residual(float(max(0.5, grid_t[0]))), 1e-6)
    outer = problem.walls[-1]
    q_wall = state.velocity(outer.r - 1e-7 * (b - a), float(grid_t[-1]))
    ctx.check("boundary attainment", q_wall - outer.q, 1e-5)
    rows = bg.mass_flux_report(state, [float(0.5 * (grid_t[0] + grid_t[-1]))])
    ctx.check("mass-flux identity", rows[0][3], 1e-4)


def run_freespace(cfg: dict, ctx: RunContext) -> None:
    pcfg = cfg.get("problem", {})
    n = int(pcfg.get("n", 1))
    eps = float(pcfg.get("epsilon", 0.5))
    q0 = profile_from_config(pcfg.get("q0", {}), "q0")
    rho0 = profile_from_config(pcfg.get("rho0", {}), "rho0")
    support = float(pcfg.get("rho0_support", rho0.breakpoints[-1]))
    problem = fs.FreespaceProblem(n=n, epsilon=eps, q0=q0, rho0=rho0,
                                  rho0_support=support)
    grid_r = _grid(cfg.get("grid", {}), "r", [0.05, 3.0, 25])
    grid_t = _grid(cfg.get("grid", {}), "t", [0.1, 2.0, 9])
    ctx.params.append(f"n={n} eps={eps} sup|q0|={q0.sup_abs():.6g}")

    qrows = np.array([[fs.radial_velocity(problem, float(r), float(t)) for r in grid_r]
                      for t in grid_t])
    p = np.array([fs._density_radial_batch(problem, grid_r, float(t)) for t in grid_t]) \
        * grid_r ** (n - 1)
    field = RadialField(n, eps, grid_r, grid_t, qrows, p)
    write_radial_csv(field, ctx.path("field.csv"))
    ccfg = cfg.get("checks", {})
    if bool(ccfg.get("closed_form", False)):   # q0(r) = r: u = x/(1+t) exactly
        worst = 0.0
        for t in grid_t:
            exact = grid_r / (1.0 + t)
            i = np.searchsorted(grid_t, t)
            worst = max(worst, float(np.max(np.abs(qrows[i] - exact)
                                            / np.maximum(np.abs(exact), 1e-12))))
        ctx.check("closed-form relative gap", worst, 1e-6)
        # and rho = rho0(x/(1+t))/(1+t)^n
        stretch = 1.0 + grid_t[:, None]
        p_exact = grid_r ** (n - 1) * rho0(grid_r / stretch) / stretch ** n
        ctx.check("closed-form density gap", float(np.max(np.abs(p - p_exact))), 1e-5)
    ctx.check("velocity bound excess",
              max(0.0, float(np.abs(qrows).max()) - q0.sup_abs()), 1e-8)
    if bool(ccfg.get("mass", False)):
        m0, _ = fs.total_mass(problem, 0.0)
        drift = 0.0
        for t in (0.5, 1.0, 2.0, 5.0):
            m, _ = fs.total_mass(problem, t)
            drift = max(drift, abs(m - m0) / abs(m0))
        ctx.check("mass drift", drift, 1e-5)
    if bool(ccfg.get("decay", False)):
        K = grid_r[grid_r <= 2.0]
        sup1 = max(abs(fs.radial_velocity(problem, float(r), 1.0)) for r in K)
        sup1000 = max(abs(fs.radial_velocity(problem, float(r), 1000.0)) for r in K)
        ctx.check("large-time decay ratio", sup1000 / max(sup1, 1e-300), 0.01)


def _inviscid_problem_from(cfg: dict) -> iv.InviscidProblem:
    pcfg = cfg.get("problem", {})
    return iv.InviscidProblem(
        n=int(pcfg.get("n", 3)),
        q0=profile_from_config(pcfg.get("q0", {}), "q0"),
        p0=profile_from_config(pcfg.get("p0", {}), "p0"),
        q_bound=profile_from_config(pcfg.get("q_bound", {}), "q_bound"),
        p_bound=profile_from_config(pcfg.get("p_bound", {}), "p_bound"),
    )


def run_inviscid(cfg: dict, ctx: RunContext) -> iv.SolutionPanel:
    problem = _inviscid_problem_from(cfg)
    grid_r = _grid(cfg.get("grid", {}), "r", [0.05, 2.5, 49])
    grid_t = _grid(cfg.get("grid", {}), "t", [0.1, 1.5, 15])
    ctx.params.append(f"n={problem.n} omega={problem.omega:.6g}")
    panel = iv.solve_panel(problem, grid_r, grid_t)
    iv.write_panel_csv(panel, ctx.path("panel.csv"))
    rows = iv.weak_boundary_check(problem, grid_t, minimizer=panel.minimizer)
    viol = [r for r in rows if not r.ok]
    write_csv(ctx.path("boundary_report.csv"),
              [f.name for f in dataclasses.fields(iv.BoundaryCheckRow)],
              map(dataclasses.astuple, rows))
    ctx.check_flag("weak boundary conditions", not viol)
    # primitive should be nondecreasing in r (nonnegative density)
    dP = np.diff(panel.P, axis=1)
    ctx.check("P monotonicity defect", max(0.0, float(-dP.min())), 1e-8)
    # boundary-branch set should be an interval [0, r_c(t))
    ok_interval = True
    for i in range(len(grid_t)):
        bcols = panel.branch[i] == "B"
        if bcols.any():
            last = np.nonzero(bcols)[0].max()
            ok_interval &= bool(np.all(bcols[: last + 1]))
    ctx.check_flag("boundary branch is an interval", ok_interval)
    return panel


def run_verify_rh(cfg: dict, ctx: RunContext) -> None:
    panel = run_inviscid(cfg, ctx)
    fronts = sfm.detect_fronts(panel)
    if not fronts:
        ctx.check_flag("fronts detected", False)
        return
    worst_speed = worst_mass = worst_multi = 0.0
    for k, f in enumerate(fronts):
        if f.times.size < 3:
            continue
        rs, rm = sfm.rh_residual_1d(f)
        rmd = sfm.rh_residual_multid(f)
        worst_speed = max(worst_speed, float(np.abs(rs).max()))
        worst_mass = max(worst_mass, float(np.abs(rm).max()))
        worst_multi = max(worst_multi, float((np.abs(rmd) - np.abs(rm)).max()))
        sfm.write_front_csv(f, ctx.path(f"front{k}.csv"))
    ctx.check("front speed residual", worst_speed, 1e-3)
    ctx.check("delta amplitude residual", worst_mass, 1e-3)
    ctx.check("multi-d equivalence excess", worst_multi, 1e-10)


def run_oracle_compare(cfg: dict, ctx: RunContext) -> None:
    target = str(cfg.get("compare", "fd"))
    if target == "fd":
        problem = _bounded_problem_from(cfg)
        state = bg.hopf_cole_boundary_state(problem)
        grid_t = _grid(cfg.get("grid", {}), "t", [0.1, 2.0, 20])
        a, b = problem.domain
        n_r = int(cfg.get("fd_points", 1200))
        field = orc.fd_viscous_solve(orc.ViscousIVP.from_bounded(problem), grid_t, n_r)
        win = (field.grid_r >= a + 0.1 * (b - a)) & (field.grid_r <= b - 0.1 * (b - a))
        worst = 0.0
        for i, t in enumerate(grid_t):
            qs = state.velocity(field.grid_r[win], float(t))
            worst = max(worst, float(np.abs(qs - field.q[i][win]).max()))
        write_radial_csv(field, ctx.path("fd_field.csv"))
        ctx.params.append(f"fd grid={n_r} case={problem.case.value}")
        ctx.check("series vs fd velocity gap", worst, 1e-3)
        return
    if target == "inviscid-limit":
        problem = _inviscid_problem_from(cfg)
        eps_list = [float(e) for e in np.atleast_1d(cfg.get("epsilons", [0.1, 0.05, 0.025]))]
        pts = np.atleast_1d(cfg.get("points", [0.5, 1.5]))
        t_eval = float(cfg.get("time", 1.0))
        mz = iv.PathMinimizer(problem, t_max=2.0 * t_eval)
        rho0 = problem.p0  # 1-D: p0 = rho0
        errs = np.zeros((len(eps_list), len(pts)))
        for j, eps in enumerate(eps_list):
            fp = fs.FreespaceProblem(n=problem.n, epsilon=eps, q0=problem.q0,
                                     rho0=rho0, rho0_support=rho0.breakpoints[-1])
            for k, r in enumerate(pts):
                q_eps = fs.radial_velocity(fp, float(r), t_eval)
                q_inv = mz.solve_at(float(r), t_eval)[1]
                errs[j, k] = abs(q_eps - q_inv)
        write_csv(ctx.path("eps_sweep.csv"),
                  ["epsilon", *(f"err_r{FLOAT_FMT % p}" for p in pts)],
                  ([eps, *row] for eps, row in zip(eps_list, errs.tolist())))
        mono = bool(np.all(np.diff(errs, axis=0) < 1e-12))
        orders = np.log(errs[:-1] / errs[1:]) / math.log(2.0)
        ctx.params.append(f"epsilons={eps_list}")
        ctx.check_flag("viscosity errors decrease monotonically", mono)
        ctx.check("min empirical order shortfall",
                  max(0.0, 0.8 - float(orders.min())), 1e-12)
        return
    raise ValidationError(f"unknown compare target {target!r}")


_HANDLERS = {
    "eigen": run_eigen,
    "ball": run_bounded,
    "annulus": run_bounded,
    "freespace": run_freespace,
    "inviscid": run_inviscid,
    "verify-rh": run_verify_rh,
    "oracle-compare": run_oracle_compare,
}


# ---------------------------------------------------------------------------
# scenario resolution and entry points


def bundled_scenarios():
    out = []
    for entry in sorted(resources.files("zpgd.scenarios").iterdir()):
        if entry.name.endswith(".cfg"):
            first = entry.read_text().splitlines()[0].lstrip("# ").strip()
            out.append((entry.name[:-4], first))
    return out


def resolve_config(path_or_name: str) -> str:
    p = Path(path_or_name)
    if p.exists():
        return p.read_text()
    candidate = resources.files("zpgd.scenarios") / f"{path_or_name}.cfg"
    if candidate.is_file():
        return candidate.read_text()
    raise FileNotFoundError(f"no config file or bundled scenario {path_or_name!r}")


def run_scenario(config_text: str, out_dir: str, tolerance_scale: float = 1.0) -> int:
    try:
        cfg = parse_config(config_text)
    except ConfigError as exc:
        print(f"config parse error: {exc}", file=sys.stderr)
        return 2
    mode = str(cfg.get("mode", "")).strip()
    if mode not in _HANDLERS:
        print(f"validation error: unknown mode {mode!r}", file=sys.stderr)
        return 3
    checks = cfg.get("checks", {})
    unknown = sorted(set(checks) - set(CHECK_SWITCHES)) if isinstance(checks, dict) else ["checks"]
    if unknown:
        print(f"validation error: unknown [checks] key {', '.join(unknown)} (tolerances are "
              f"fixed per check; the switches are {', '.join(CHECK_SWITCHES)})", file=sys.stderr)
        return 3
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    prefix = str(cfg.get("output", {}).get("prefix", mode.replace("-", "_"))) + "_"
    ctx = RunContext(out, prefix, tolerance_scale)
    try:
        _HANDLERS[mode](cfg, ctx)
    except (ValidationError, KeyError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except NUMERICAL_ERRORS as exc:
        ctx.failure = f"numerical failure: {type(exc).__name__}: {exc}"
        ctx.write_report(mode)
        print(ctx.failure, file=sys.stderr)
        return 4
    ok = ctx.write_report(mode)
    print((out / f"{prefix}report.txt").read_text())
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="zpgd",
                                     description="zero-pressure gas dynamics solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (("run", "run a scenario config"),
                            ("verify", "alias of run: same checks, same artifacts")):
        p_run = sub.add_parser(name, help=help_text)
        p_run.add_argument("--config", required=True)
        p_run.add_argument("--out", default="zpgd_out")
        p_run.add_argument("--tolerance-scale", type=float, default=1.0)

    sub.add_parser("list-scenarios", help="print the bundled scenario gallery")

    p_eig = sub.add_parser("eigen", help="eigenvalue table for one domain case")
    p_eig.add_argument("--case", required=True,
                       choices=[c.value for c in DomainCase])
    p_eig.add_argument("--count", type=int, default=5)
    p_eig.add_argument("--epsilon", type=float, default=1.0)
    p_eig.add_argument("--radius", type=float)
    p_eig.add_argument("--r-inner", type=float)
    p_eig.add_argument("--r-outer", type=float)
    p_eig.add_argument("--q-boundary", type=float, default=0.0)
    p_eig.add_argument("--q-inner", type=float, default=0.0)
    p_eig.add_argument("--q-outer", type=float, default=0.0)
    p_eig.add_argument("--out", default="zpgd_out")

    args = parser.parse_args(argv)
    if args.command == "list-scenarios":
        for name, desc in bundled_scenarios():
            print(f"{name:28s} {desc}")
        return 0
    if args.command == "eigen":
        try:
            prob = EigenProblem(**_domain_from(vars(args)))
            eigs = find_eigenvalues(prob, args.count)
        except ValueError as exc:
            print(f"validation error: {exc}", file=sys.stderr)
            return 3
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"eigen_{prob.case.value}.csv"
        bg.write_eigenvalue_csv(eigs, path)
        for i, (v, res) in enumerate(zip(eigs.values, eigs.residuals), start=1):
            print(f"{i:3d}  {FLOAT_FMT % v}  residual {FLOAT_FMT % res}")
        print(f"wrote {path}")
        return 0
    try:
        text = resolve_config(args.config)
    except FileNotFoundError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    return run_scenario(text, args.out, args.tolerance_scale)


if __name__ == "__main__":
    sys.exit(main())
