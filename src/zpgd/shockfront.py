"""Discontinuity detection and Rankine-Hugoniot verification.

Front positions are localized per time slice from velocity jumps in a
sampled panel, refined by bisection on the pointwise solution, and linked
across slices by nearest-neighbor continuation.  The delta amplitude is
the primitive jump e(t) = P(s+, t) - P(s-, t) >= 0.

Jump brackets are oriented inner-minus-outer, [f] = f(s-) - f(s+); with
that orientation the front relations read

    ds/dt = (q_- + q_+)/2,        de/dt = [q p] - [p] ds/dt,

where q_- is the inner (smaller radius) trace.  The multi-dimensional
residual is assembled from the radial geometric identities (S_t = -ds/dt,
grad S = x/r, mean curvature K = -(n-1)/(2r), surface divergence
(n-1)/r ds/dt e_hat) and reported in the same p-variable units as the 1-D
residual, i.e. scaled by s^(n-1); in density units the comparison against
the 1-D residual would be distorted by a pure unit factor whenever s < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .radial_core import write_csv

__all__ = [
    "ShockFront",
    "detect_fronts",
    "rh_residual_1d",
    "rh_residual_multid",
    "mean_curvature",
    "write_front_csv",
]


@dataclass
class ShockFront:
    """Sampled trajectory of one discontinuity.  A front that ends in a
    merger holds no link to the front that continues it."""

    n: int
    times: np.ndarray
    s: np.ndarray
    e: np.ndarray
    q_minus: np.ndarray   # inner trace (r < s)
    q_plus: np.ndarray    # outer trace (r > s)
    p_minus: np.ndarray
    p_plus: np.ndarray

    def __post_init__(self):
        for name in ("times", "s", "e", "q_minus", "q_plus", "p_minus", "p_plus"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("front times must increase")
        if np.any(self.s <= 0):
            raise ValueError("front radius must stay positive")
        if np.any(self.e < -1e-10):
            raise ValueError("delta amplitude must be nonnegative")
        if np.any(self.q_minus < self.q_plus - 1e-8):
            raise ValueError("entropy violated: inner trace below outer trace")

    @property
    def e_hat(self) -> np.ndarray:
        """Density-units delta amplitude e / s^(n-1)."""
        return self.e / self.s ** (self.n - 1)


def _slice_jumps(q_row, threshold):
    dq = np.abs(np.diff(q_row))
    cells = np.nonzero(dq > threshold)[0]
    groups = []
    for c in cells:
        if groups and c <= groups[-1][-1] + 1:
            groups[-1].append(c)
        else:
            groups.append([c])
    return groups


def _refine_jump(q_of_r, lo, hi, qlo, qhi):
    """Bisect toward the jump of a piecewise-smooth function, given its
    values qlo, qhi at the bracket ends: recurse into the half with the
    larger variation, at most 60 times."""
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-12 * max(1.0, abs(mid)):
            break
        qm = q_of_r(mid)
        if abs(qm - qlo) >= abs(qhi - qm):
            hi, qhi = mid, qm
        else:
            lo, qlo = mid, qm
    return 0.5 * (lo + hi)


def detect_fronts(panel):
    """Locate discontinuities in an inviscid SolutionPanel.

    Refinement is always on and every threshold is fixed.  Per slice, each
    group of adjacent cells where q jumps by more than 1e-3 sup|q| is
    bisected to a radius s on the pointwise solution of the panel's
    minimizer.  A candidate whose one-sided q at s -+ 1e-9 max(1, s)
    differ by no more than max(1e-3 sup|q|, 1e-6) is a steep smooth region
    and is dropped.  Detections are linked across slices by
    nearest-neighbor continuation.  When two tracks claim the same
    detection, both end and a new track starts at that slice: the first
    slice where both parents fall in one jump group, which can come before
    the true merge time.  No track holds a link to its parents or to its
    successor.  The traces q_-, q_+ are read 1e-4 max(1, s) from the front,
    e(t) is the P jump across s -+ 1e-7 max(1, s), and p_-, p_+ are
    one-sided differences of P over 1e-4 max(1, s) beyond those points.
    """
    from .inviscid import SolutionPanel  # local import

    assert isinstance(panel, SolutionPanel)
    grid_r = panel.grid_r
    grid_t = panel.grid_t
    sup_q = max(float(np.abs(panel.q).max()), 1e-30)
    threshold = 1e-3 * sup_q
    mz = panel.minimizer

    def qP_at(r, t):
        return mz.solve_at(float(r), float(t))[1:]

    # per-slice detections; candidates that refine to a smooth steep region
    # (no genuine one-sided gap, e.g. a rarefaction fan) are discarded
    per_slice = []
    for i, t in enumerate(grid_t):
        locs = []
        for grp in _slice_jumps(panel.q[i], threshold):
            # the panel holds q at the bracket ends, from the same minimizer
            j_lo, j_hi = grp[0], min(grp[-1] + 1, grid_r.size - 1)
            srad = _refine_jump(lambda r: qP_at(r, t)[0], grid_r[j_lo], grid_r[j_hi],
                                panel.q[i, j_lo], panel.q[i, j_hi])
            d = 1e-9 * max(1.0, srad)
            gap = qP_at(srad - d, t)[0] - qP_at(srad + d, t)[0]
            if gap <= max(threshold, 1e-6):
                continue
            locs.append(srad)
        per_slice.append(locs)

    # nearest-neighbor linking
    max_speed = sup_q * 1.5 + 1e-6
    open_tracks = []
    all_fronts_raw = []
    for i, t in enumerate(grid_t):
        dt_prev = grid_t[i] - grid_t[i - 1] if i > 0 else 0.0
        locs = list(per_slice[i])
        new_open = []
        claimed = {}
        for tr in open_tracks:
            best_j, best_d = None, math.inf
            for j, s in enumerate(locs):
                d = abs(s - tr["s"][-1])
                if d < best_d:
                    best_j, best_d = j, d
            window = max_speed * dt_prev + 2.0 * float(np.max(np.diff(grid_r)))
            if best_j is not None and best_d <= window:
                claimed.setdefault(best_j, []).append(tr)
            else:
                all_fronts_raw.append(tr)
        for j, s in enumerate(locs):
            owners = claimed.get(j, [])
            if len(owners) == 1:
                tr = owners[0]
                tr["times"].append(t)
                tr["s"].append(s)
                new_open.append(tr)
            else:
                # collision (or fresh front): terminate the parents and
                # start a merged track at this slice
                all_fronts_raw.extend(owners)
                new_open.append({"times": [t], "s": [s]})
        open_tracks = new_open
    all_fronts_raw.extend(open_tracks)

    # assemble ShockFront objects with one-sided traces
    fronts = []
    for tr in all_fronts_raw:
        times = np.asarray(tr["times"])
        svals = np.asarray(tr["s"])
        qm = np.empty_like(svals)
        qp = np.empty_like(svals)
        pm = np.empty_like(svals)
        pp = np.empty_like(svals)
        ev = np.empty_like(svals)
        for k, (t, s) in enumerate(zip(times, svals)):
            d = 1e-7 * max(1.0, s)
            dtr = 1e-4 * max(1.0, s)
            qm[k] = qP_at(s - dtr, t)[0]
            qp[k] = qP_at(s + dtr, t)[0]
            P_in = qP_at(s - d, t)[1]
            P_out = qP_at(s + d, t)[1]
            ev[k] = P_out - P_in
            pm[k] = (P_in - qP_at(s - d - dtr, t)[1]) / dtr
            pp[k] = (qP_at(s + d + dtr, t)[1] - P_out) / dtr
        fronts.append(ShockFront(panel.n, times, svals, ev, qm, qp, pm, pp))
    fronts.sort(key=lambda f: f.times[0])
    return fronts


def _time_derivative(times, values):
    """2nd-order derivative on a (possibly nonuniform) time grid of at
    least 3 samples."""
    return np.gradient(values, times, edge_order=2)


def rh_residual_1d(front: ShockFront):
    """(res_speed, res_mass): deviations from ds/dt = (q_- + q_+)/2 and
    de/dt = [qp] - [p] ds/dt with inner-minus-outer brackets."""
    if front.times.size < 3:
        raise ValueError("need at least 3 samples along the front")
    ds_dt = _time_derivative(front.times, front.s)
    de_dt = _time_derivative(front.times, front.e)
    res_speed = ds_dt - 0.5 * (front.q_minus + front.q_plus)
    qp_jump = front.q_minus * front.p_minus - front.q_plus * front.p_plus
    p_jump = front.p_minus - front.p_plus
    res_mass = de_dt - (qp_jump - p_jump * ds_dt)
    return res_speed, res_mass


def mean_curvature(n: int, r):
    """Mean curvature of the sphere |x| = r: K = -(n-1)/(2r)."""
    return -(n - 1) / (2.0 * np.asarray(r, dtype=float))


def rh_residual_multid(front: ShockFront):
    """Residual of the generalized front relations for S(x,t) = r - s(t).

    Pieces: S_t = -ds/dt and grad S = x/r collapse the first relation to
    the 1-D speed residual; the second combines d(e_hat)/dt, the surface
    divergence -2 K G e_hat with K = -(n-1)/(2r) and G = ds/dt, and the
    source ([p q] - [p] ds/dt)/r^(n-1).  Reported in p-units (scaled by
    s^(n-1)), where the algebra collapses it onto the 1-D mass residual.
    """
    if front.times.size < 3:
        raise ValueError("need at least 3 samples along the front")
    ds_dt = _time_derivative(front.times, front.s)
    de_dt = _time_derivative(front.times, front.e)
    s = front.s
    nm1 = front.n - 1
    e_hat = front.e_hat
    # chain-rule composition keeps the derivative estimates consistent
    de_hat_dt = de_dt / s ** nm1 - nm1 * e_hat * ds_dt / s
    growth = ds_dt  # G = -S_t/S_r along the front
    surface_div = -2.0 * mean_curvature(front.n, s) * growth * e_hat
    source = (front.q_minus * front.p_minus - front.q_plus * front.p_plus
              - (front.p_minus - front.p_plus) * ds_dt) / s ** nm1
    res_density_units = de_hat_dt + surface_div - source
    return res_density_units * s ** nm1


def write_front_csv(front: ShockFront, path):
    res_speed, res_mass = rh_residual_1d(front)
    res_multi = rh_residual_multid(front)
    cols = (front.times, front.s, front.e, front.q_plus, front.q_minus,
            front.p_plus, front.p_minus, res_speed, res_mass, res_multi)
    write_csv(path, ["t", "s", "e", "q_plus", "q_minus", "p_plus", "p_minus",
                     "res_speed", "res_mass", "res_multid"],
              np.column_stack(cols).tolist(),
              comment="jump brackets: inner trace minus outer trace, [f] = f(s-) - f(s+)")
