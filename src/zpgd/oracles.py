"""Independent ground-truth generators for the acceptance tests.

Three oracles, deliberately built on different machinery than the modules
they check:

* finite-difference solvers for the radial heat equation (Crank-Nicolson,
  staggered grid, Robin/reflection boundaries) and for the viscous radial
  system (SBDF2 IMEX for the velocity, two-step Lax-Wendroff for the
  density variable), ``fd_viscous_solve(ivp, t_samples, n_r=1200)``.  Its
  walls come from the ViscousIVP: one with no left wall (q_left None, as
  ``ViscousIVP.from_bounded`` builds for a ball) takes the origin's
  regularity row, any other is Dirichlet at both walls,
* an exhaustive tensor-grid minimizer for the boundary path functional,
* an event-driven sticky-particle simulator with momentum-conserving
  merges.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .profiles import ScalarProfile
from .radial_core import RadialField, write_csv

__all__ = [
    "ViscousIVP",
    "fd_heat_solve",
    "fd_viscous_solve",
    "brute_force_Q",
    "Particle",
    "StickyTrajectory",
    "sticky_particle_run",
    "riemann_particles",
]


class StabilityError(RuntimeError):
    """The velocity outgrew the speed bound the time step was chosen for,
    or an implicit system has a zero or non-finite pivot."""


# ---------------------------------------------------------------------------
# tridiagonal helpers


def _thomas_factor(lower, diag, upper):
    """Thomas-algorithm factors of the tridiagonal A with rows
    (lower[i], diag[i], upper[i]); lower[0] and upper[-1] are unused.

    The factor loop runs on Python floats without pivoting: A = L U with
    L lower bidiagonal (diagonal dp, subdiagonal lower) and U unit upper
    bidiagonal (superdiagonal cp).  The factors are returned as LAPACK's
    LU factors of the transposed matrix Aᵀ = Uᵀ Lᵀ, ready for
    ``dgttrs(..., trans='T')``: dl = cp[:-1], d = dp, du = lower[1:],
    du2 = 0 and ipiv = 1..m, the identity permutation.  The wrapper takes
    no system smaller than 3, so one with n < 3 rows is padded to m = 3
    with decoupled identity rows (d = 1, zero couplings, zero right side).
    Returns (dgttrs, (dl, d, du, du2, ipiv), pad), pad being the m - n
    zeros appended to each right side.

    Raises StabilityError on a zero or non-finite pivot dp[i]: gttrs never
    checks its pivots, so a singular system would otherwise solve silently.
    """
    # imported here: scipy.linalg adds tens of ms and several MB to a start,
    # and only the FD oracles need it
    from scipy.linalg.lapack import dgttrs

    lower, diag, upper = lower.tolist(), diag.tolist(), upper.tolist()
    n = len(diag)
    cp = [0.0] * n
    dp = [0.0] * n
    try:
        cp[0] = upper[0] / diag[0]
        dp[0] = diag[0]
        for i in range(1, n):
            denom = diag[i] - lower[i] * cp[i - 1]
            dp[i] = denom
            cp[i] = upper[i] / denom if i < n - 1 else 0.0
    except ZeroDivisionError:
        raise StabilityError("tridiagonal system has a zero pivot") from None
    d = np.array(dp)
    if not np.all(np.isfinite(d) & (d != 0.0)):
        raise StabilityError("tridiagonal system has a zero or non-finite pivot")
    m = max(n, 3)
    dl, du = np.zeros(m - 1), np.zeros(m - 1)
    dl[:n - 1] = cp[:-1]
    du[:n - 1] = lower[1:]
    d = np.concatenate((d, np.ones(m - n)))
    ipiv = np.arange(1, m + 1, dtype=np.intc)
    return dgttrs, (dl, d, du, np.zeros(m - 2), ipiv), np.zeros(m - n)


def _thomas_solve(factors, rhs):
    """Solve A x = rhs with the factors of _thomas_factor; returns a fresh
    float64 array of len(rhs).

    With trans='T' the reference dgtts2 first solves with the transpose of
    LAPACK's U (our L) by the Thomas forward sweep
    y[i] = (b[i] - lower[i]*y[i-1] - 0*y[i-2]) / dp[i], then with the
    transpose of LAPACK's L (our U), ipiv being the identity, by the back
    sweep y[i] = y[i] - cp[i]*y[i+1]: the same operations in the same order
    as the Python-float recurrence, so the same bits.  The extra
    - 0*y[i-2] can only turn a -0 partial result into +0."""
    gttrs, lu, pad = factors
    n = len(rhs)
    x, info = gttrs(*lu, np.concatenate((rhs, pad)), trans="T", overwrite_b=True)
    if info != 0:
        raise RuntimeError(f"dgttrs rejected argument {-info}")
    return x[:n]


# ---------------------------------------------------------------------------
# linear radial heat equation (oracle for the Green's series)


def fd_heat_solve(n_dim: int, epsilon: float, initial, t_end: float,
                  r_outer: float, q_outer: float = 0.0, n_cells: int = 1200):
    """Evolve a_t = (eps/2)[a_rr + (n-1)/r a_r] on the ball of radius
    r_outer with the Robin data eps a_r + q_outer a = 0 at the wall and
    even reflection across the origin.  Returns (cell_centers, a(t_end))."""
    h = r_outer / n_cells
    r = (np.arange(n_cells) + 0.5) * h
    a = np.asarray(initial(r), dtype=float)
    n_steps = max(400, int(40 * t_end / (h * h) ** 0.5))
    dt = t_end / n_steps

    nm1 = n_dim - 1
    # operator rows: ghost elimination folds the boundary data into the
    # first/last diagonal entries
    lower = 1.0 / h ** 2 - nm1 / (2.0 * h * r)
    upper = 1.0 / h ** 2 + nm1 / (2.0 * h * r)
    diag = np.full(n_cells, -2.0 / h ** 2)
    diag[0] += lower[0]            # a_{-1} = a_0 (even reflection)
    k = epsilon / h
    diag[-1] += upper[-1] * (k - 0.5 * q_outer) / (k + 0.5 * q_outer)
    gl = lower.copy()
    gl[0] = 0.0
    gu = upper.copy()
    gu[-1] = 0.0

    def apply_L(v):
        out = diag * v
        out[1:] += gl[1:] * v[:-1]
        out[:-1] += gu[:-1] * v[1:]
        return 0.5 * epsilon * out

    c = 0.25 * epsilon * dt  # Crank-Nicolson: (I - c*Lrows) a+ = (I + c*Lrows) a
    fac = _thomas_factor(-c * gl, 1.0 - c * diag, -c * gu)
    for _ in range(n_steps):
        rhs = a + 0.5 * dt * apply_L(a)
        a = _thomas_solve(fac, rhs)
    return r, a


# ---------------------------------------------------------------------------
# viscous radial system


_CFL = 0.4   # advective Courant number of fd_viscous_solve's time step


@dataclass
class ViscousIVP:
    """Radial initial/boundary value problem for the viscous system.

    With no left wall (q_left None, the default) the grid starts just off
    the origin of a ball and its first node takes the regularity row
    q_0 = (r_0 / r_1) q_1; otherwise q_left is the left Dirichlet datum, as
    on an annulus or a truncated line.  q_right is always Dirichlet."""

    n: int
    epsilon: float
    r_lo: float
    r_hi: float
    q0: ScalarProfile
    p0: ScalarProfile
    q_left: object = None  # float or callable of t; None: regularity row
    q_right: object = 0.0
    p_left: object = None  # boundary p data where inflow, float/callable
    p_right: object = None

    @classmethod
    def from_bounded(cls, problem):
        """The viscous problem of a BoundedProblem; a ball has no left wall
        and is cut off at r = 1e-3 R."""
        *inner, outer = problem.walls
        if inner:
            r_lo, q_left, _, p_left = inner[0]
        else:
            r_lo, q_left, p_left = 1e-3 * outer.r, None, None
        return cls(problem.n, problem.epsilon, r_lo, outer.r, problem.q0,
                   problem.p0_profile(), q_left=q_left, q_right=outer.q,
                   p_left=p_left, p_right=outer.p)


def _bc_value(bc, t):
    if callable(bc):
        return float(bc(t))
    return float(bc)


def fd_viscous_solve(ivp: ViscousIVP, t_samples, n_r: int = 1200) -> RadialField:
    """Second-order-in-space IMEX time stepping of the viscous radial
    system on n_r uniform nodes, sampled at t_samples (increasing, from
    t >= 0); the diffusion block is implicit (SBDF2), the advection terms
    explicit with centered differences, and the density update is the
    two-step Lax-Wendroff conservative scheme.  The time step keeps the
    advective Courant number at most _CFL for 1.5 times the largest
    initial speed; a velocity that outgrows 2.5 times that speed raises
    StabilityError."""
    t_samples = np.asarray(t_samples, dtype=float)
    t_end = t_samples[-1]
    r = np.linspace(ivp.r_lo, ivp.r_hi, n_r)
    h = r[1] - r[0]

    ball = ivp.q_left is None
    wall_q = (ivp.q_right,) if ball else (ivp.q_left, ivp.q_right)
    qmax = max(ivp.q0.sup_abs(), *(abs(_bc_value(q, 0.0)) for q in wall_q), 1e-3) * 1.5
    n_steps = max(int(math.ceil(t_end / (_CFL * h / qmax))), 2)
    dt = t_end / n_steps

    q = np.asarray(ivp.q0(r), dtype=float)
    p = np.asarray(ivp.p0(r), dtype=float)

    nm1 = ivp.n - 1
    eps = ivp.epsilon
    # diffusion rows (interior); boundary rows are replaced per scheme below
    with np.errstate(divide="ignore", invalid="ignore"):
        curv1 = np.where(r != 0.0, nm1 / (2.0 * h * r), 0.0)
        curv2 = np.where(r != 0.0, nm1 / (r * r), 0.0)
    dl = 0.5 * eps * (1.0 / h ** 2 - curv1)
    du = 0.5 * eps * (1.0 / h ** 2 + curv1)
    dd = 0.5 * eps * (-2.0 / h ** 2 - curv2)

    def build_matrix(scale):
        # rows of (scale*I - fac*L), fac = 2dt for SBDF2, dt for the
        # startup Euler step; boundary rows overwrite
        fac_dt = 2.0 * dt if scale == 3.0 else dt
        lower = -fac_dt * dl
        upper = -fac_dt * du
        diagm = scale - fac_dt * dd
        if ball:
            # q varies like c*r near the origin: q_0 - (r_0/r_1) q_1 = 0
            diagm[0] = 1.0
            upper[0] = -(r[0] / r[1])
            lower[0] = 0.0
        else:
            diagm[0] = 1.0
            upper[0] = 0.0
            lower[0] = 0.0
        diagm[-1] = 1.0
        lower[-1] = 0.0
        upper[-1] = 0.0
        return _thomas_factor(lower, diagm, upper)

    fac2 = build_matrix(3.0)   # SBDF2: (3I - 2dt L)
    fac1 = build_matrix(1.0)   # startup Euler: (I - dt L)

    def adv(qv):
        out = np.zeros_like(qv)
        out[1:-1] = qv[1:-1] * (qv[2:] - qv[:-2]) / (2.0 * h)
        return out

    def lw_density(pv, q_old, q_new, t_now):
        # Richtmyer two-step Lax-Wendroff for p_t + (q p)_r = 0; the wall
        # nodes are half cells with fluxes evaluated at the walls proper,
        # which makes the trapezoid mass exactly flux-conservative
        qf_half = 0.25 * (q_old[1:] + q_old[:-1] + q_new[1:] + q_new[:-1])
        flux_node = q_old * pv
        p_half = 0.5 * (pv[1:] + pv[:-1]) - 0.5 * dt / h * (flux_node[1:] - flux_node[:-1])
        f = qf_half * p_half
        out = pv.copy()
        out[1:-1] -= dt / h * (f[1:] - f[:-1])
        t_half = t_now + 0.5 * dt
        # left wall (at the node itself)
        ql_half = 0.5 * (q_old[0] + q_new[0])
        if ql_half > 0.0 and not ball:
            pl = _bc_value(ivp.p_left, t_half) if ivp.p_left is not None else pv[0]
        else:
            pl = pv[0] - 0.5 * dt / h * (flux_node[1] - flux_node[0])
        out[0] -= dt / (0.5 * h) * (f[0] - ql_half * pl)
        # right wall
        qr_half = 0.5 * (q_old[-1] + q_new[-1])
        if qr_half < 0.0:
            pr = _bc_value(ivp.p_right, t_half) if ivp.p_right is not None else pv[-1]
        else:
            pr = pv[-1] - 0.5 * dt / h * (flux_node[-1] - flux_node[-2])
        out[-1] -= dt / (0.5 * h) * (qr_half * pr - f[-1])
        return out

    # output collection: sample times rarely land on steps, so interpolate
    # linearly between the bracketing states (O(dt^2), below scheme error)
    q_out = np.empty((t_samples.size, n_r))
    p_out = np.empty_like(q_out)
    if abs(t_samples[0]) < 1e-14:
        q_out[0], p_out[0] = q, p
        next_sample = 1
    else:
        next_sample = 0

    q_prev = None
    adv_prev = None
    t_now = 0.0
    for m in range(n_steps):
        if np.max(np.abs(q)) > 2.5 * qmax:
            raise StabilityError("velocity outgrew the speed bound of the time step")
        a_now = adv(q)
        if q_prev is None:
            rhs = q - dt * a_now
            fac = fac1
        else:
            rhs = 4.0 * q - q_prev - 2.0 * dt * (2.0 * a_now - adv_prev)
            fac = fac2
        t_next = t_now + dt
        rhs[0] = 0.0 if ball else _bc_value(ivp.q_left, t_next)
        rhs[-1] = _bc_value(ivp.q_right, t_next)
        q_new = _thomas_solve(fac, rhs)
        p_new = lw_density(p, q, q_new, t_now)
        while next_sample < t_samples.size and t_samples[next_sample] <= t_next + 1e-12:
            w = (t_samples[next_sample] - t_now) / dt
            q_out[next_sample] = (1.0 - w) * q + w * q_new
            p_out[next_sample] = (1.0 - w) * p + w * p_new
            next_sample += 1
        q_prev, adv_prev = q, a_now
        q, p, t_now = q_new, p_new, t_next
    while next_sample < t_samples.size:
        q_out[next_sample] = q
        p_out[next_sample] = p
        next_sample += 1

    return RadialField(ivp.n, ivp.epsilon, r, t_samples, q_out, p_out)


# ---------------------------------------------------------------------------
# exhaustive path-functional minimum


def brute_force_Q(problem, r: float, t: float, grid_density: int = 200,
                  refine_rounds: int = 0):
    """Exhaustive minimum of the path cost over a tensor grid in
    (r0, t1, t2) plus the straight-line branch per r0.

    Returns (value, (branch, r0, t1, t2)); t1/t2 are None on the interior
    branch.  refine_rounds re-grids exhaustively around the incumbent to
    shrink the O(h^2) grid bias.
    """
    if grid_density < 50:
        raise ValueError("grid_density must be >= 50")
    r0_hi = r + t * (problem._sup_q0 + problem._vplus.sup_abs(0.0, t)) + 1.0

    def interior_scan(r0_lo_s, r0_hi_s, g):
        r0 = np.linspace(r0_lo_s, r0_hi_s, g)
        vals = (r - r0) ** 2 / (2.0 * t) + problem.q0.cumulative(r0)
        k = int(np.argmin(vals))
        return float(vals[k]), float(r0[k])

    def boundary_scan(r0_lo_s, r0_hi_s, t1_lo, t1_hi, t2_lo, t2_hi, g):
        r0 = np.linspace(max(r0_lo_s, 0.0), r0_hi_s, g)
        tg1 = np.linspace(max(t1_lo, 0.0), min(t1_hi, t * (1 - 1e-12)), g)
        tg2 = np.linspace(max(t2_lo, 1e-12 * t), min(t2_hi, t * (1 - 1e-9)), g)
        v1 = problem.sojourn_gain(tg1)
        with np.errstate(divide="ignore", invalid="ignore"):
            cost1 = r0[:, None] ** 2 / (2.0 * tg1[None, :]) + v1[None, :]
        if tg1[0] == 0.0:
            cost1[:, 0] = np.where(r0 == 0.0, 0.0, np.inf)
        m1 = np.minimum.accumulate(cost1, axis=1)
        # strict t1 < t2: index of last t1 node strictly below each t2
        idx = np.searchsorted(tg1, tg2 - 1e-15 * max(t, 1.0), side="left") - 1
        valid = idx >= 0
        idxc = np.clip(idx, 0, tg1.size - 1)
        tail = r * r / (2.0 * (t - tg2)) - problem.sojourn_gain(tg2)
        total = m1[:, idxc] + tail[None, :]
        total[:, ~valid] = np.inf
        total += problem.q0.cumulative(r0)[:, None]
        k = int(np.argmin(total))
        i0, i2 = np.unravel_index(k, total.shape)
        best = float(total[i0, i2])
        # recover t1 argmin for that (r0, t2)
        col = cost1[i0, : idxc[i2] + 1]
        i1 = int(np.argmin(col))
        return best, float(r0[i0]), float(tg1[i1]), float(tg2[i2])

    g = int(grid_density)
    vi, r0i = interior_scan(0.0, r0_hi, g)
    vb, r0b, t1b, t2b = boundary_scan(0.0, r0_hi, 0.0, t, 0.0, t, g)
    w_i = r0_hi
    w_b0, w_b1 = r0_hi, t
    for _ in range(int(refine_rounds)):
        w_i = 2.5 * w_i / (g - 1)
        vi2, r0i2 = interior_scan(max(0.0, r0i - w_i), min(r0_hi, r0i + w_i), g)
        if vi2 <= vi:
            vi, r0i = vi2, r0i2
        w_i *= 2.0
        w_b0 = 2.5 * w_b0 / (g - 1)
        w_b1 = 2.5 * w_b1 / (g - 1)
        vb2, r0b2, t1b2, t2b2 = boundary_scan(
            max(0.0, r0b - w_b0), min(r0_hi, r0b + w_b0),
            max(0.0, t1b - w_b1), t1b + w_b1,
            max(0.0, t2b - w_b1), min(t, t2b + w_b1), g)
        if vb2 <= vb:
            vb, r0b, t1b, t2b = vb2, r0b2, t1b2, t2b2
        # keep the degenerate two-line family in view: r0 = 0, t1 = 0
        vb3, r0b3, t1b3, t2b3 = boundary_scan(0.0, 1e-12, 0.0, 1e-12,
                                              max(0.0, t2b - w_b1),
                                              min(t, t2b + w_b1), g)
        if vb3 < vb:
            vb, r0b, t1b, t2b = vb3, r0b3, t1b3, t2b3
        w_b0 *= 2.0
        w_b1 *= 2.0
    if vi <= vb:
        return vi, ("interior", r0i, None, None)
    return vb, ("boundary", r0b, t1b, t2b)


# ---------------------------------------------------------------------------
# sticky particles


@dataclass
class Particle:
    r: float
    m: float
    v: float

    def __post_init__(self):
        if self.r < 0 or self.m < 0:
            raise ValueError("particles need r >= 0 and m >= 0")


@dataclass
class StickyTrajectory:
    """Snapshots of an event-driven sticky gas run."""

    times: np.ndarray
    positions: list     # arrays, one per sample time
    masses: list
    velocities: list
    cluster_of_seed: list  # per sample: seed index -> row in the snapshot (-1 absorbed)
    absorbed_mass: np.ndarray

    def cluster_track(self, seed_index: int):
        """(t, r, m, v) history of the cluster containing one seed."""
        ts, rs, ms, vs = [], [], [], []
        for k, t in enumerate(self.times):
            row = self.cluster_of_seed[k][seed_index]
            if row < 0:
                continue
            ts.append(t)
            rs.append(self.positions[k][row])
            ms.append(self.masses[k][row])
            vs.append(self.velocities[k][row])
        return np.array(ts), np.array(rs), np.array(ms), np.array(vs)


def sticky_particle_run(particles, sample_times, absorb_at_origin: bool = True):
    """Free flight with perfectly inelastic adjacent collisions.

    Merges conserve mass and momentum to rounding; particles reaching the
    origin with negative velocity are absorbed (removed) when
    absorb_at_origin is set.
    """
    sample_times = np.asarray(sample_times, dtype=float)
    if np.any(np.diff(sample_times) <= 0) or sample_times[0] < 0:
        raise ValueError("sample times must be increasing and nonnegative")
    n = len(particles)
    rs = np.array([p.r for p in particles], dtype=float)
    if np.any(np.diff(rs) < 0):
        raise ValueError("particles must be sorted by position")
    ms = np.array([p.m for p in particles], dtype=float)
    vs = np.array([p.v for p in particles], dtype=float)
    tref = np.zeros(n)
    alive = np.ones(n, dtype=bool)
    right = np.arange(1, n + 1)  # neighbor links (n = sentinel)
    left = np.arange(-1, n - 1)
    parent = np.arange(n)      # merge forest: row -> the row it merged into

    def pos(i, t):
        return rs[i] + vs[i] * (t - tref[i])

    heap = []

    def push_pair(i):
        j = right[i]
        if j >= n or not alive[i] or not alive[j]:
            return
        t0 = max(tref[i], tref[j])
        ri, rj = pos(i, t0), pos(j, t0)
        dv = vs[i] - vs[j]
        if dv <= 1e-300:
            if rj - ri > 1e-14 * max(1.0, abs(ri)):
                return
            tau = t0  # already touching
        else:
            tau = t0 + max(rj - ri, 0.0) / dv
        heapq.heappush(heap, (tau, 0, i, j, vs[i], vs[j]))

    def push_absorb(i):
        if not alive[i] or left[i] >= 0 or vs[i] >= 0:
            return
        tau = tref[i] - pos(i, tref[i]) / vs[i]
        heapq.heappush(heap, (tau, 1, i, -1, vs[i], 0.0))

    for i in range(n - 1):
        push_pair(i)
    if absorb_at_origin and n:
        push_absorb(0)

    absorbed = np.zeros(sample_times.size)
    absorbed_total = 0.0
    snaps_pos, snaps_m, snaps_v, snaps_seed = [], [], [], []
    k_out = 0

    def take_snapshots(up_to):
        nonlocal k_out
        while k_out < sample_times.size and sample_times[k_out] <= up_to + 1e-15:
            t = sample_times[k_out]
            rows = np.nonzero(alive)[0]
            x = rs[rows] + vs[rows] * (t - tref[rows])
            order = np.argsort(x, kind="stable")
            rows = rows[order]
            snaps_pos.append(x[order])
            snaps_m.append(ms[rows].copy())
            snaps_v.append(vs[rows].copy())
            # cluster root of every seed by pointer doubling: shock clusters
            # chain thousands of merges deep
            root, up = parent, parent[parent]
            while not np.array_equal(up, root):
                root, up = up, up[up]
            row_of = np.full(n, -1)
            row_of[rows] = np.arange(rows.size)
            snaps_seed.append(row_of[root])
            absorbed[k_out] = absorbed_total
            k_out += 1

    t_end = sample_times[-1]
    while heap:
        tau, kind, i, j, vi_then, vj_then = heapq.heappop(heap)
        if tau > t_end:
            break
        if not alive[i] or vs[i] != vi_then:
            continue
        if kind == 0 and (j >= n or not alive[j] or vs[j] != vj_then or right[i] != j):
            continue
        take_snapshots(tau)
        if kind == 1:
            # absorption at the origin
            absorbed_total += ms[i]
            alive[i] = False
            if right[i] < n:
                left[right[i]] = -1
                push_absorb(right[i])
            continue
        # merge i <- j
        x = pos(i, tau)
        m_new = ms[i] + ms[j]
        v_new = (ms[i] * vs[i] + ms[j] * vs[j]) / m_new
        alive[j] = False
        ms[i] = m_new
        vs[i] = v_new
        rs[i] = x
        tref[i] = tau
        parent[j] = i
        right[i] = right[j]
        if right[i] < n:
            left[right[i]] = i
        push_pair(i)
        if left[i] >= 0:
            push_pair(left[i])
        elif absorb_at_origin:
            push_absorb(i)
    take_snapshots(t_end)
    return StickyTrajectory(sample_times, snaps_pos, snaps_m, snaps_v,
                            snaps_seed, absorbed)


def write_particle_csv(traj: StickyTrajectory, path):
    write_csv(path, ["t", "index", "r", "m", "v"],
              ((t, i, r, m, v)
               for t, rs, ms, vs in zip(traj.times, traj.positions, traj.masses,
                                        traj.velocities)
               for i, (r, m, v) in enumerate(zip(rs, ms, vs))))


def riemann_particles(q_left: float, q_right: float, p_left: float, p_right: float,
                      split: float, r_max: float, count: int):
    """Equally spaced discretization of two-state Riemann data on (0, r_max]."""
    dr = r_max / count
    rs = (np.arange(count) + 0.5) * dr
    out = []
    for r in rs:
        if r < split:
            out.append(Particle(r, p_left * dr, q_left))
        else:
            out.append(Particle(r, p_right * dr, q_right))
    return out
