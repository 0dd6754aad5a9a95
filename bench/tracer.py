"""Span tracer for the traced benchmark run.

The tracer wraps zpgd's public functions from outside the package: each
wrapped call becomes a span (name, start, end, parent, job) kept in flat
arrays, and its self time (duration minus the time covered by child spans)
is summed per name as the span closes.  A few functions are only counted.
Wrappers are installed for the traced pass only and removed afterwards, so
the untraced passes run the program unchanged.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# Inviscid and front spans under which a minimize call is a probe made by
# the library, not a point a caller asked for.
_MINIMIZE_CALLERS = ("inviscid.solve_panel", "inviscid.weak_boundary_check",
                     "shockfront.detect_fronts")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.job_names: list[str] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self._stack: list[int] = []
        self._child: list[float] = []

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(len(self.job_names) - 1)
        self.end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        self.active[name] += 1
        self.calls[name] += 1
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        t = self.clock()
        self.end[idx] = t
        dur = t - self.start[idx]
        self._stack.pop()
        child = self._child.pop()
        name = self.names[self.name_id[idx]]
        self.self_s[name] += dur - child
        self.active[name] -= 1
        if self._child:
            self._child[-1] += dur

    @contextmanager
    def job_span(self, job: str):
        """Root span for one benchmark job; its self time is benchmark glue."""
        self.job_names.append(job)
        idx = self.open("job")
        try:
            yield
        finally:
            self.close(idx)

    def dump(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), jobs=np.array(self.job_names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))


# ---------------------------------------------------------------------------
# per-call hooks: counts taken at the boundary, after the call returns


def _bessel_points(tr, args, kw, out):
    tr.counts["specfun.bessel_all.points"] += int(np.size(args[0]))


def _cumulative_scalar(tr, args, kw, out):
    if np.size(args[1]) == 1:
        tr.counts["profiles.cumulative.scalar_calls"] += 1


def _phi_cells(tr, args, kw, out):
    tr.counts["bounded_green.phi.cells"] += int(np.size(out))


def _minimize_point(tr, args, kw, out):
    if tr.active["shockfront.detect_fronts"]:
        tr.counts["shockfront.detect_fronts.minimize_calls"] += 1
    if not any(tr.active[c] for c in _MINIMIZE_CALLERS):
        tr.counts["inviscid.points"] += 1


def _panel_points(tr, args, kw, out):
    tr.counts["inviscid.points"] += int(np.size(out.q))


def _csv_bytes(tr, args, kw, out):
    target = args[1] if len(args) > 1 else kw.get("path_or_buf")
    if isinstance(target, (str, os.PathLike)):
        tr.counts["radial_core.write_radial_csv.bytes"] += os.path.getsize(target)


def _span(tr, name, fn, hook=None):
    def wrapper(*args, **kw):
        idx = tr.open(name)
        try:
            out = fn(*args, **kw)
        finally:
            tr.close(idx)
        if hook is not None:
            hook(tr, args, kw, out)
        return out
    return wrapper


def _rk4_span(tr, name, fn, hook=None):
    """The integrator's span; counts traces and right-hand-side calls by
    wrapping the rhs argument it is given."""
    def wrapper(rhs, *args, **kw):
        def counted(s, y):
            tr.counts["freespace.rk4.rhs_evals"] += 1
            return rhs(s, y)
        tr.counts["freespace.rk4.traces"] += 1
        idx = tr.open(name)
        try:
            return fn(counted, *args, **kw)
        finally:
            tr.close(idx)
    return wrapper


def _count_only(key, under=None):
    def make(tr, name, fn, hook=None):
        def wrapper(*args, **kw):
            if under is None or tr.active[under]:
                tr.counts[key] += 1
            return fn(*args, **kw)
        return wrapper
    return make


# (owner, attribute, span name, wrapper factory, hook).  Each name is patched
# where its callers look it up: bounded_green binds bessel_all and
# find_eigenvalues at import, cli binds find_eigenvalues and
# write_radial_csv, and density_batch imports _rk4_doubling from freespace
# at call time, so the freespace attribute covers both tracers.
PATCHES = [
    ("zpgd.specfun", "bessel_all", "specfun.bessel_all", _span, _bessel_points),
    ("zpgd.bounded_green", "bessel_all", "specfun.bessel_all", _span, _bessel_points),
    ("zpgd.specfun", "find_eigenvalues", "specfun.find_eigenvalues", _span, None),
    ("zpgd.bounded_green", "find_eigenvalues", "specfun.find_eigenvalues", _span, None),
    ("zpgd.cli", "find_eigenvalues", "specfun.find_eigenvalues", _span, None),
    ("zpgd.profiles:ScalarProfile", "cumulative", "profiles.cumulative", _span,
     _cumulative_scalar),
    ("zpgd.profiles:ScalarProfile", "__call__", "profiles.call", _span, None),
    ("zpgd.profiles:ScalarProfile", "sup_abs", "profiles.sup_abs", _span, None),
    ("zpgd.freespace", "radial_velocity", "freespace.radial_velocity", _span, None),
    ("zpgd.freespace", "_radial_velocity_batch", "freespace.radial_velocity_batch",
     _span, None),
    ("zpgd.freespace", "total_mass", "freespace.total_mass", _span, None),
    ("zpgd.freespace", "_density_radial_batch", "freespace.density_radial_batch",
     _span, None),
    ("zpgd.freespace", "_rk4_doubling", "freespace.rk4", _rk4_span, None),
    ("zpgd.bounded_green", "build_green_evaluator",
     "bounded_green.build_green_evaluator", _span, None),
    ("zpgd.bounded_green:BoundedHopfCole", "__init__", "bounded_green.state_init",
     _span, None),
    ("zpgd.bounded_green:GreenEvaluator", "phi", "bounded_green.phi", _span, _phi_cells),
    ("zpgd.bounded_green:BoundedHopfCole", "velocity_and_derivative",
     "bounded_green.velocity_and_derivative", _span, None),
    ("zpgd.bounded_green", "density_batch", "bounded_green.density_batch", _span, None),
    ("zpgd.bounded_green", "mass_flux_report", "bounded_green.mass_flux_report",
     _span, None),
    ("zpgd.inviscid:PathMinimizer", "minimize", "inviscid.minimize", _span,
     _minimize_point),
    ("zpgd.inviscid:_BoundaryTables", "__init__", "inviscid.table_builds",
     _count_only("inviscid.table_builds"), None),
    ("zpgd.inviscid", "solve_panel", "inviscid.solve_panel", _span, _panel_points),
    ("zpgd.inviscid", "weak_boundary_check", "inviscid.weak_boundary_check", _span,
     None),
    ("zpgd.shockfront", "detect_fronts", "shockfront.detect_fronts", _span, None),
    ("zpgd.oracles", "fd_viscous_solve", "oracles.fd_viscous_solve", _span, None),
    ("zpgd.oracles", "_thomas_solve", "oracles.fd_viscous_solve.tridiag_solves",
     _count_only("oracles.fd_viscous_solve.tridiag_solves",
                 under="oracles.fd_viscous_solve"), None),
    ("zpgd.oracles", "brute_force_Q", "oracles.brute_force_Q", _span, None),
    ("zpgd.oracles", "sticky_particle_run", "oracles.sticky_particle_run", _span, None),
    ("zpgd.radial_core", "write_radial_csv", "radial_core.write_radial_csv", _span,
     _csv_bytes),
    ("zpgd.cli", "write_radial_csv", "radial_core.write_radial_csv", _span, _csv_bytes),
    ("zpgd.cli", "run_scenario", "cli.run_scenario", _span, None),
]


def _owner(spec: str):
    mod, _, cls = spec.partition(":")
    obj = importlib.import_module(mod)
    return getattr(obj, cls) if cls else obj


@contextmanager
def installed(tr: Tracer):
    """Install every wrapper for the duration of the block."""
    saved = []
    wrapped: dict[int, object] = {}
    try:
        for spec, attr, name, factory, hook in PATCHES:
            owner = _owner(spec)
            orig = getattr(owner, attr)
            # one wrapper per function, however many names it is bound to
            if id(orig) not in wrapped:
                wrapped[id(orig)] = factory(tr, name, orig, hook)
            saved.append((owner, attr, orig))
            setattr(owner, attr, wrapped[id(orig)])
        yield tr
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# roll-up: per-layer metrics by name, with units


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tr: Tracer, overhead_s: float) -> dict:
    """Every per-layer metric as {name: (value, unit)}."""
    c, n, s = tr.counts, tr.calls, tr.self_s
    out = {}

    def calls(name):
        out[f"{name}.calls"] = (n[name], "count")

    def self_s(name):
        out[f"{name}.self_s"] = (s[name], "s")

    calls("specfun.bessel_all")
    out["specfun.bessel_all.points"] = (c["specfun.bessel_all.points"], "count")
    self_s("specfun.bessel_all")
    out["specfun.bessel_all.ns_per_point"] = (
        1e9 * _ratio(s["specfun.bessel_all"], c["specfun.bessel_all.points"]), "ns")
    calls("specfun.find_eigenvalues")
    self_s("specfun.find_eigenvalues")

    calls("profiles.cumulative")
    out["profiles.cumulative.scalar_frac"] = (
        _ratio(c["profiles.cumulative.scalar_calls"], n["profiles.cumulative"]), "ratio")
    self_s("profiles.cumulative")
    calls("profiles.call")
    self_s("profiles.call")
    calls("profiles.sup_abs")
    self_s("profiles.sup_abs")

    calls("freespace.radial_velocity")
    self_s("freespace.radial_velocity")
    calls("freespace.radial_velocity_batch")
    self_s("freespace.radial_velocity_batch")
    self_s("freespace.total_mass")
    self_s("freespace.density_radial_batch")
    out["freespace.rk4.traces"] = (c["freespace.rk4.traces"], "count")
    out["freespace.rk4.rhs_evals"] = (c["freespace.rk4.rhs_evals"], "count")
    out["freespace.rk4.rhs_evals_per_trace"] = (
        _ratio(c["freespace.rk4.rhs_evals"], c["freespace.rk4.traces"]), "ratio")
    self_s("freespace.rk4")

    self_s("bounded_green.build_green_evaluator")
    self_s("bounded_green.state_init")
    calls("bounded_green.phi")
    out["bounded_green.phi.cells"] = (c["bounded_green.phi.cells"], "count")
    self_s("bounded_green.phi")
    calls("bounded_green.velocity_and_derivative")
    self_s("bounded_green.density_batch")
    self_s("bounded_green.mass_flux_report")

    calls("inviscid.minimize")
    self_s("inviscid.minimize")
    out["inviscid.minimize.us_per_call"] = (
        1e6 * _ratio(s["inviscid.minimize"], n["inviscid.minimize"]), "us")
    out["inviscid.minimize.calls_per_point"] = (
        _ratio(n["inviscid.minimize"], c["inviscid.points"]), "ratio")
    out["inviscid.table_builds"] = (c["inviscid.table_builds"], "count")
    self_s("inviscid.solve_panel")
    self_s("inviscid.weak_boundary_check")

    self_s("shockfront.detect_fronts")
    out["shockfront.detect_fronts.minimize_calls"] = (
        c["shockfront.detect_fronts.minimize_calls"], "count")

    self_s("oracles.fd_viscous_solve")
    out["oracles.fd_viscous_solve.tridiag_solves"] = (
        c["oracles.fd_viscous_solve.tridiag_solves"], "count")
    calls("oracles.brute_force_Q")
    self_s("oracles.brute_force_Q")
    self_s("oracles.sticky_particle_run")

    self_s("radial_core.write_radial_csv")
    out["radial_core.write_radial_csv.bytes"] = (
        c["radial_core.write_radial_csv.bytes"], "B")
    self_s("cli.run_scenario")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def exact_counts(metrics: dict) -> dict:
    """The per-layer metrics that must repeat exactly between runs."""
    return {k: v for k, (v, unit) in metrics.items() if unit in ("count", "B")}
