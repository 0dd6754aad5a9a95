"""Batch front-end: scenario configs in, CSV artifacts and a run report out.

Subcommands: run, list-scenarios, eigen.  A scenario is a small
INI-style file (sections in brackets, dotted nesting, key = value) with
profiles given as breakpoint tables.  Its mode picks a row of MODES: the
handler, the problem class whose fields the [problem] section gives, and
the keys the handler reads outside [problem].  Any other key, a repeated
one or a missing field is an error, reported before any output is
written.  Each check's tolerance is fixed at its ctx.check call and scaled
by --tolerance-scale.  Exit codes: 0 all checks pass, 1 check failure,
2 parse error, 3 validation error, 4 numerical failure (a solver raised
one of NUMERICAL_ERRORS; the report names it).
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

# the viscosities of the inviscid-limit sweep, halving toward 0
_LIMIT_EPSILONS = (0.1, 0.05, 0.025)

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
    lists or strings.  A key may appear once per section."""
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
        if key in section:
            raise ConfigError(f"line {lineno}: repeated key {key}")
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
    """The profile of section [name]: type constant (value), linear
    (breakpoints, values) or pieces (breakpoints, then coeffs0 ... one row
    per piece).  A missing or unknown key is a validation error."""
    kind = str(cfg.get("type", "constant"))
    bps = np.atleast_1d(cfg.get("breakpoints", []))
    keys = {"constant": ["value"], "linear": ["breakpoints", "values"],
            "pieces": ["breakpoints", *(f"coeffs{i}" for i in range(bps.size - 1))]}.get(kind)
    if keys is None:
        raise ValidationError(f"[{name}]: unknown profile type {kind!r}")
    bad = [k for k in keys if k not in cfg] + [k for k in cfg if k not in ("type", *keys)]
    if bad:
        raise ValidationError(f"{'missing' if bad[0] in keys else 'unknown'} [{name}] key "
                              f"{bad[0]} (type {kind} reads {', '.join(keys)})")
    if kind == "constant":
        return ScalarProfile.constant(float(cfg["value"]))
    if kind == "linear":
        return ScalarProfile.piecewise_linear(bps, np.atleast_1d(cfg["values"]))
    return ScalarProfile.from_pieces(bps, [np.atleast_1d(cfg[key]) for key in keys[1:]])


def _problem(cls, section: dict):
    """cls built from a [problem] section: a subsection is a profile, case
    a DomainCase, a whole n an int and any other value a float (so cls
    rejects a fractional n).  An unknown or missing field is a validation
    error that names it."""
    kw = {}
    for key, val in section.items():
        if isinstance(val, dict):
            kw[key] = profile_from_config(val, f"problem.{key}")
            continue
        try:
            kw[key] = (DomainCase(str(val).lower()) if key == "case"
                       else int(val) if key == "n" and float(val).is_integer()
                       else float(val))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"[problem] key {key}: {exc}") from exc
    try:
        return cls(**kw)
    except TypeError as exc:
        raise ValidationError(f"[problem] {exc}") from exc


def _whole(val) -> bool:
    return isinstance(val, (int, float)) and float(val).is_integer() and val > 0


def _grid(cfg, key, default):
    val = cfg.get(key, default)
    if not (isinstance(val, list) and len(val) == 3 and _whole(val[2])):
        raise ValidationError(f"[grid] key {key}: expected lo, hi, count "
                              f"(a whole positive count), got {val!r}")
    lo, hi, count = val
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
        """The artifact path for suffix; the output directory is made on
        first use, so a value rejected before any output leaves none."""
        self.out.mkdir(parents=True, exist_ok=True)
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
        self.out.mkdir(parents=True, exist_ok=True)
        path = self.out / f"{self.prefix}report.txt"
        path.write_text("\n".join(lines) + "\n")
        return ok_all


# ---------------------------------------------------------------------------
# mode handlers


def run_eigen(cfg: dict, prob: EigenProblem, ctx: RunContext) -> None:
    count = cfg.get("count", 5)
    if not _whole(count):
        raise ValidationError(f"key count: expected a whole positive number, got {count!r}")
    count = int(count)
    eigs = find_eigenvalues(prob, count)
    ctx.params.append(f"case={prob.case.value} count={count}")
    bg.write_eigenvalue_csv(eigs, ctx.path("eigenvalues.csv"))
    scaled = np.abs(eigs.residuals) / np.maximum(1.0, eigs.values)
    ctx.check("eigen residual (scaled)", float(scaled.max()), 1e-10)
    half = find_eigenvalues(prob, count, scan_step=eigs.scan_step / 2.0)
    ctx.check("scan halving drift", float(np.abs(half.values - eigs.values).max()),
              1e-10)


def run_bounded(cfg: dict, problem: bg.BoundedProblem, ctx: RunContext) -> None:
    state = bg.hopf_cole_boundary_state(problem)
    a, b = problem.domain
    grid_r = _grid(cfg.get("grid", {}), "r", [a + 0.05 * (b - a), b - 0.05 * (b - a), 25])
    grid_t = _grid(cfg.get("grid", {}), "t", [max(0.1, state.time_floor), 2.0, 11])
    ctx.params.append(f"case={problem.case.value} eps={problem.epsilon} "
                      f"domain={problem.domain} terms={len(state.ev.eigs.values)}")
    ctx.params.append(f"consistency gap={problem.consistency_gap():.3g}")

    q = np.array([state.velocity(grid_r, float(t)) for t in grid_t])
    p = bg.density_batch(state, grid_r, grid_t) * grid_r ** (problem.n - 1)
    field = RadialField(problem.n, problem.epsilon, grid_r, grid_t, q, p)
    write_radial_csv(field, ctx.path("field.csv"))
    bg.write_eigenvalue_csv(state.ev.eigs, ctx.path("eigenvalues.csv"))
    ctx.check("robin residual", state.robin_residual(float(max(0.5, grid_t[0]))), 1e-6)
    outer = problem.walls[-1]
    q_wall = state.velocity(outer.r - 1e-7 * (b - a), float(grid_t[-1]))
    ctx.check("boundary attainment", q_wall - outer.q, 1e-5)
    rows = bg.mass_flux_report(state, [float(0.5 * (grid_t[0] + grid_t[-1]))])
    ctx.check("mass-flux identity", rows[0][3], 1e-4)


def run_freespace(cfg: dict, problem: fs.FreespaceProblem, ctx: RunContext) -> None:
    if not problem.is_radial or problem.rho0 is None:
        raise ValidationError("freespace runs take a radial problem: q0 and rho0 profiles")
    n, eps, q0, rho0 = problem.n, problem.epsilon, problem.q0, problem.rho0
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


def run_inviscid(cfg: dict, problem: iv.InviscidProblem, ctx: RunContext) -> iv.SolutionPanel:
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


def run_verify_rh(cfg: dict, problem: iv.InviscidProblem, ctx: RunContext) -> None:
    panel = run_inviscid(cfg, problem, ctx)
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


def run_oracle_compare(cfg: dict, problem: bg.BoundedProblem, ctx: RunContext) -> None:
    state = bg.hopf_cole_boundary_state(problem)
    grid_t = _grid(cfg.get("grid", {}), "t", [0.1, 2.0, 20])
    a, b = problem.domain
    field = orc.fd_viscous_solve(orc.ViscousIVP.from_bounded(problem), grid_t)
    win = (field.grid_r >= a + 0.1 * (b - a)) & (field.grid_r <= b - 0.1 * (b - a))
    worst = 0.0
    for i, t in enumerate(grid_t):
        qs = state.velocity(field.grid_r[win], float(t))
        worst = max(worst, float(np.abs(qs - field.q[i][win]).max()))
    write_radial_csv(field, ctx.path("fd_field.csv"))
    ctx.params.append(f"fd grid={field.grid_r.size} case={problem.case.value}")
    ctx.check("series vs fd velocity gap", worst, 1e-3)


def run_inviscid_limit(cfg: dict, problem: iv.InviscidProblem, ctx: RunContext) -> None:
    pts, t_eval = cfg.get("points", [0.5, 1.5]), cfg.get("time", 1.0)
    if isinstance(pts, str):
        raise ValidationError(f"key points: expected numbers, got {pts!r}")
    if not isinstance(t_eval, float):
        raise ValidationError(f"key time: expected one number, got {t_eval!r}")
    pts = np.atleast_1d(pts)
    mz = iv.PathMinimizer(problem, t_max=2.0 * t_eval)
    errs = np.zeros((len(_LIMIT_EPSILONS), len(pts)))
    for j, eps in enumerate(_LIMIT_EPSILONS):
        # 1-D: p0 = rho0
        fp = fs.FreespaceProblem(n=problem.n, epsilon=eps, q0=problem.q0, rho0=problem.p0)
        for k, r in enumerate(pts):
            q_eps = fs.radial_velocity(fp, float(r), t_eval)
            q_inv = mz.solve_at(float(r), t_eval)[1]
            errs[j, k] = abs(q_eps - q_inv)
    write_csv(ctx.path("eps_sweep.csv"),
              ["epsilon", *(f"err_r{FLOAT_FMT % p}" for p in pts)],
              ([eps, *row] for eps, row in zip(_LIMIT_EPSILONS, errs.tolist())))
    mono = bool(np.all(np.diff(errs, axis=0) < 1e-12))
    orders = np.log(errs[:-1] / errs[1:]) / math.log(2.0)
    ctx.params.append(f"epsilons={list(_LIMIT_EPSILONS)}")
    ctx.check_flag("viscosity errors decrease monotonically", mono)
    ctx.check("min empirical order shortfall",
              max(0.0, 0.8 - float(orders.min())), 1e-12)


# mode -> (handler, the class its [problem] section builds, the keys it
# reads outside [problem]); every mode also reads mode and output.prefix
_GRID = ("grid.r", "grid.t")
MODES = {
    "eigen": (run_eigen, EigenProblem, ("count",)),
    "ball": (run_bounded, bg.BoundedProblem, _GRID),
    "annulus": (run_bounded, bg.BoundedProblem, _GRID),
    "freespace": (run_freespace, fs.FreespaceProblem,
                  (*_GRID, "checks.mass", "checks.decay", "checks.closed_form")),
    "inviscid": (run_inviscid, iv.InviscidProblem, _GRID),
    "verify-rh": (run_verify_rh, iv.InviscidProblem, _GRID),
    "oracle-compare": (run_oracle_compare, bg.BoundedProblem, ("grid.t",)),
    "inviscid-limit": (run_inviscid_limit, iv.InviscidProblem, ("points", "time")),
}


def _dotted_keys(cfg: dict, prefix: str = ""):
    for key, val in cfg.items():
        if isinstance(val, dict):
            yield from _dotted_keys(val, f"{prefix}{key}.")
        else:
            yield prefix + key


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
    try:
        if mode not in MODES:
            raise ValidationError(f"unknown mode {mode!r}")
        handler, cls, reads = MODES[mode]
        section = cfg.pop("problem") if isinstance(cfg.get("problem"), dict) else {}
        for dotted in _dotted_keys(cfg):
            if dotted not in ("mode", "output.prefix", *reads):
                where, _, key = dotted.rpartition(".")
                raise ValidationError(f"unknown {f'[{where}] ' if where else ''}key {key} "
                                      f"(mode {mode} reads {', '.join(reads)} and output.prefix)")
        problem = _problem(cls, section)
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    out = Path(out_dir)
    prefix = str(cfg.get("output", {}).get("prefix", mode.replace("-", "_"))) + "_"
    ctx = RunContext(out, prefix, tolerance_scale)
    try:
        handler(cfg, problem, ctx)
    except ValueError as exc:
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

    p_run = sub.add_parser("run", help="run a scenario config")
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
        flags = vars(args)
        try:
            prob = _problem(EigenProblem, {f.name: flags[f.name]
                                           for f in dataclasses.fields(EigenProblem)
                                           if flags[f.name] is not None})
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
