"""Checks on package objects that only the tests make: a series' truncation
ratio, a path minimum's cost re-evaluated from its path actions, the binned
field of a sticky gas snapshot, a profile's integral and derivative
profile, and an integrator stand-in that spoils the radial Jacobian."""

from __future__ import annotations

import numpy as np

from zpgd.inviscid import InviscidProblem, PathMinimum, boundary_cost
from zpgd.profiles import ScalarProfile


def truncation_check(ev, r: float, xi: float, t: float) -> float:
    """|last term| relative to the partial sum of a GreenEvaluator's series
    at (r, xi, t)."""
    terms = ev._terms(r, xi, t)
    total = terms.sum()
    return abs(terms[-1]) / max(abs(total), 1e-300)


def interior_cost(r: float, r0: float, t: float) -> float:
    """Action of the straight-line path: (r - r0)^2 / (2 t)."""
    if t <= 0:
        raise ValueError("t must be positive")
    if r < 0 or r0 < 0:
        raise ValueError("radii must be nonnegative")
    return (r - r0) ** 2 / (2.0 * t)


def check_value(m: PathMinimum, problem: InviscidProblem, r: float, t: float) -> float:
    """|m.value - re-evaluation at the stored minimizers|."""
    if m.branch == "interior":
        v = interior_cost(r, m.r0, t) + problem.q0.cumulative(m.r0)
    else:
        v = (boundary_cost(r, m.r0, t, m.t1, m.t2, problem)
             + problem.q0.cumulative(m.r0))
    return abs(v - m.value)


def binned_field(traj, k: int, edges):
    """Empirical (q, p) by mass-weighted binning of snapshot k of a
    StickyTrajectory."""
    edges = np.asarray(edges, dtype=float)
    r = traj.positions[k]
    m = traj.masses[k]
    v = traj.velocities[k]
    idx = np.searchsorted(edges, r) - 1
    ok = (idx >= 0) & (idx < edges.size - 1)
    p = np.zeros(edges.size - 1)
    mom = np.zeros(edges.size - 1)
    np.add.at(p, idx[ok], m[ok])
    np.add.at(mom, idx[ok], (m * v)[ok])
    with np.errstate(invalid="ignore"):
        q = np.where(p > 0, mom / np.maximum(p, 1e-300), 0.0)
    p /= np.diff(edges)
    return q, p


def negative_slope_trace(rhs, y0, t, walls=None):
    """A stand-in for freespace._rk4_doubling that leaves the radial feet
    where they start and returns every d(foot)/dr negated."""
    y = np.array(y0, dtype=float)
    y[:, y.shape[1] // 2:] *= -1.0
    return y


def integral(prof: ScalarProfile, a: float, b: float) -> float:
    return float(prof.cumulative(b) - prof.cumulative(a))


def derivative_profile(prof: ScalarProfile) -> ScalarProfile:
    return ScalarProfile(prof.breakpoints, prof._derivative_cols(1).T)
