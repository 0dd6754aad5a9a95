"""Explicit inviscid radial solution with origin data and a mass condition.

The radial velocity solves a boundary-value Burgers problem through a
Lax-Oleinik-type minimization over piecewise-linear paths (at most three
segments, the middle one resting on the origin where sojourn earns a
-(q_B^+)^2/2 rate).  The minimum over the boundary family reorders exactly
into nested one-dimensional scans, so the coarse seeding is a dense
exhaustive grid (for the interior branch, the band of it that can hold the
argmin); coordinate descent then polishes the incumbent to 1e-10 in value.

Solution formulas: q = (r - r0)/t on the interior branch and r/(t - t2)
on the boundary branch (the slope of the last path segment); the
primitive P is -int_{r0}^inf p0 or -p_B(t2)/omega_{n-1}, whose radial
derivative recovers p and the density rho = p / r^(n-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .freespace import surface_measure
from .profiles import ScalarProfile
from .radial_core import RadialField, write_radial_csv

__all__ = [
    "InviscidProblem",
    "PathMinimum",
    "SolutionPanel",
    "boundary_cost",
    "solve_panel",
    "weak_boundary_check",
    "write_panel_csv",
]

_VALUE_TIE = 1e-9     # minimizer value gap treated as a tie
_Q_GAP = 1e-4         # velocity gap that flags a genuine discontinuity
_GRID = 2048          # nodes of the seeding scans and of the boundary tables
_BAND_BLOCK = 256     # the interior scan's band is whole blocks of nodes
_TABLE_ROWS = 64      # t1 rows per block of the boundary-table cost (about 1 MB)
_ORIGIN_PROBE = 1e-5  # radius at which weak_boundary_check reads q(0+, t)
_MASS_RTOL = 1e-3     # weak_boundary_check's relative mass tolerance


@dataclass
class InviscidProblem:
    """Initial profiles q0, p0 (p0 = r^(n-1) rho0), origin velocity q_bound(t)
    and total-mass schedule p_bound(t)."""

    n: int
    q0: ScalarProfile
    p0: ScalarProfile
    q_bound: ScalarProfile
    p_bound: ScalarProfile

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ValueError("n must be 1, 2 or 3")
        if abs(float(self.p0(self.p0.breakpoints[-1]))) > 0:
            raise ValueError("p0 must vanish beyond its last breakpoint (integrable)")
        self.omega = surface_measure(self.n)
        self._vplus = self.q_bound.positive_part()
        # no sojourn credit: a reflected path costs at least the straight
        # one at the same launch radius, so the interior branch always wins
        self._no_credit = self._vplus.sup_abs() == 0.0
        self._vsq_half = self._vplus.squared().scaled(0.5)

    def sojourn_gain(self, s):
        """V(s) = int_0^s (q_bound^+)^2 / 2."""
        return self._vsq_half.cumulative(s)


@dataclass
class PathMinimum:
    branch: str            # 'interior' or 'boundary'
    r0: float
    t1: float | None
    t2: float | None
    value: float


def boundary_cost(r: float, r0: float, t: float, t1: float, t2: float,
                  problem: InviscidProblem) -> float:
    """Action of the three-segment path resting on the origin during
    [t1, t2] under the problem's origin velocity; the two-segment family is
    the r0 = 0, t1 = 0 case.  A positive launch radius with t1 = 0 costs
    +inf (vertical segment)."""
    if not (0.0 <= t1 < t2 < t):
        raise ValueError("need 0 <= t1 < t2 < t")
    gain = problem.sojourn_gain(t2) - problem.sojourn_gain(t1)
    if t1 == 0.0:
        if r0 > 0.0:
            return math.inf
        launch = 0.0
    else:
        launch = r0 * r0 / (2.0 * t1)
    return -gain + launch + r * r / (2.0 * (t - t2))


# ---------------------------------------------------------------------------
# minimization machinery


def _running_first_argmin(w):
    """best[i] = the first argmin of w[:i + 1]: the last index at or before
    i where w fell below every earlier value; a NaN never does."""
    new_min = np.r_[False, w[1:] < np.fmin.accumulate(w)[:-1]]
    return np.maximum.accumulate(np.where(new_min, np.arange(w.size), 0))


class _BoundaryTables:
    """Problem-level tables for the boundary family.

    With V the sojourn gain and C0 the q0 primitive, the boundary value is

        min_{t2 < t} [ r^2/(2(t-t2)) - V(t2) + min_{t1 <= t2} w(t1) ],
        w(t1) = V(t1) + g(t1),
        g(t1) = min_{r0 >= 0} [ r0^2/(2 t1) + C0(r0) ]   (g(0) = 0, r0 = 0),

    so g, w and the cumulative argmin of w depend only on the problem and
    one table serves every (r, t) query.  V on the t1 grid is kept as v:
    the t2 scan runs on the same grid.

    Row t1 of g is the interior scan at r = 0, t = t1, so _interior_band
    bounds the columns that can hold its first argmin.  The band grows
    with t1, so each block of rows scans the band of its largest t1, and
    C0 is read only on the widest band: the same cells and argmins as the
    full 2,049 x 2,048 matrix.
    """

    def __init__(self, problem: InviscidProblem, t_max: float):
        self.problem = problem
        self.t_max = t_max
        sup_q0 = problem.q0.sup_abs()
        r0_hi = t_max * sup_q0 * 2.0 + 1.0
        step = r0_hi / (_GRID - 1)
        self.t1 = np.concatenate([[0.0], np.geomspace(t_max * 1e-7, t_max, _GRID)])
        r0g = np.linspace(0.0, r0_hi, _GRID)[:_interior_band(0.0, self.t1[-1], sup_q0, step)[1]]
        c0 = problem.q0.cumulative(r0g)
        self.g = np.empty(self.t1.size)
        g_idx = np.empty(self.t1.size, dtype=np.intp)
        r0g_sq = r0g ** 2
        for lo in range(0, self.t1.size, _TABLE_ROWS):
            rows = slice(lo, lo + _TABLE_ROWS)
            t1 = self.t1[rows]
            i1 = _interior_band(0.0, t1[-1], sup_q0, step)[1]
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                cost = r0g_sq[:i1] / (2.0 * t1[:, None]) + c0[:i1]
            if lo == 0:
                cost[0] = np.where(r0g[:i1] == 0.0, 0.0, np.inf)
            g_idx[rows] = np.argmin(cost, axis=1)
            self.g[rows] = cost[np.arange(cost.shape[0]), g_idx[rows]]
        self.g_r0 = r0g[g_idx]
        self.v = problem.sojourn_gain(self.t1)
        self.w = self.g + self.v
        self.w_best = _running_first_argmin(self.w)


def _line_min(fun, lo, hi, kinks):
    """Golden-section line search (at most 90 steps) plus explicit kink
    candidates."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    # Python floats: the same IEEE doubles as numpy scalars, without
    # numpy's per-operation scalar overhead in the loop
    lo, hi = float(lo), float(hi)
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(90):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fun(d)
        # b - a < 1e-15 * max(1.0, |a| + |b|); a call of the builtin max
        # would cost more than the rest of the test
        w = abs(a) + abs(b)
        if b - a < (1e-15 * w if w > 1.0 else 1e-15):
            break
    x = 0.5 * (a + b)
    v = fun(x)
    for k in kinks:
        if lo <= k <= hi:
            vk = fun(float(k))
            if vk < v:
                x, v = float(k), vk
    for edge in (lo, hi):
        ve = fun(edge)
        if ve < v:
            x, v = edge, ve
    return float(x), float(v)


def _interior_band(r: float, t: float, sup_q0: float, step: float):
    """Index range [i0, i1) of the interior scan's nodes j * step that
    holds the first argmin of (r - x)^2/(2t) + C0(x) over all its nodes,
    given sup_q0 >= |q0| everywhere (left limits at jumps included).

    Outside |x - r| <= t sup|q0| the cost's derivative (x - r)/t + q0(x)
    has the sign of x - r, so from node to node beyond that band the cost
    moves away from the minimum by at least step^2/(2t).  With step =
    r0_hi/2047 that is 1.2e-7 of the cost's scale r0_hi^2/t, far above its
    rounding, so each node outside is strictly costlier than the band's
    edge node, and the scan over [i0, i1) finds the full scan's argmin with
    its first-occurrence tie-break.  Two nodes of padding per side cover
    the edge node, the floor of the index estimate and an underestimate of
    sup|q0| by up to step/t >= 1/(2047 t).  q0.sup_abs(), which reads the
    left limits at jumps, is exact up to rounding for degree <= 2; above
    that it takes np.roots of q0' on every piece plus 4,097 samples, so its
    error is second order in a root's error.

    Two scans use it: PathMinimizer._interior per query, and each block of
    _BoundaryTables rows, whose row t1 is this scan at r = 0, t = t1 on
    the table's grid; its r0_hi = 2 t_max sup|q0| + 1 exceeds
    t1 sup|q0| + 1, as the interior scan's r0_hi exceeds r + t sup|q0| + 1."""
    i0 = max(int((r - t * sup_q0) / step) - 2, 0)
    i1 = min(int((r + t * sup_q0) / step) + 3, _GRID)
    return i0, i1


class PathMinimizer:
    """Caches the boundary tables; evaluates Q(r, t) pointwise."""

    def __init__(self, problem: InviscidProblem, t_max: float):
        self.problem = problem
        self.tables = _BoundaryTables(problem, t_max)
        self._sup_v_t, self._sup_v = None, 0.0   # sup q_B^+ over [0, t] at the last t

    def _interior(self, r: float, t: float, sup_v: float):
        pr = self.problem
        sup_q0 = pr.q0.sup_abs()
        r0_hi = r + t * (sup_q0 + sup_v) + 1.0
        r0g = np.linspace(0.0, r0_hi, _GRID)
        i0, i1 = _interior_band(r, t, sup_q0, r0_hi / (_GRID - 1))
        # whole blocks of nodes: few distinct array sizes keep numpy's
        # cache of freed small arrays, and so the peak RSS, flat
        i0, i1 = i0 // _BAND_BLOCK * _BAND_BLOCK, -(-i1 // _BAND_BLOCK) * _BAND_BLOCK
        band = r0g[i0:i1]
        vals = (r - band) ** 2 / (2.0 * t) + pr.q0.cumulative(band)
        k = i0 + int(np.argmin(vals))
        lo = r0g[max(k - 1, 0)]
        hi = r0g[min(k + 1, len(r0g) - 1)]
        two_t = 2.0 * t
        C0 = pr.q0._cumulative_on_piece(lo, hi)
        fun = lambda x: (r - x) ** 2 / two_t + C0(x)
        return _line_min(fun, lo, hi, kinks=pr.q0.breakpoints)

    def _boundary(self, r: float, t: float, prune_above: float, sup_v: float):
        pr = self.problem
        tb = self.tables
        if t > tb.t_max:
            self.tables = _BoundaryTables(pr, 2.0 * t)
            tb = self.tables
        n_ok = int(np.searchsorted(tb.t1, t * (1.0 - 1e-9)))
        if n_ok < 3:
            return 0.0, 0.0, 0.5 * t, math.inf
        t2g = tb.t1[1:n_ok]            # t2 > 0 strictly
        wbest = tb.w_best[1:n_ok]
        total = tb.w[wbest] - tb.v[1:n_ok] + r * r / (2.0 * (t - t2g))
        k = int(np.argmin(total))
        i1 = int(wbest[k])
        # local (geometric) grid spacings set the refinement brackets
        gap2 = t2g[min(k + 1, t2g.size - 1)] - t2g[max(k - 1, 0)]
        gap1 = tb.t1[min(i1 + 1, tb.t1.size - 1)] - tb.t1[max(i1 - 1, 0)]
        cell = max(gap1, gap2, t / _GRID)
        seed_val = float(total[k])
        # descent can improve the seed by at most ~cell * local slope
        slope = (sup_v ** 2
                 + r * r / (t - t2g[k]) ** 2 + pr.q0.sup_abs() ** 2 + 1.0)
        if seed_val - 4.0 * cell * slope > prune_above:
            return tb.g_r0[i1], tb.t1[i1], float(t2g[k]), seed_val
        return self._descend(r, t, tb.g_r0[i1], tb.t1[i1], t2g[k], cell=cell)

    def _line(self, r, t, r0, t1, on=None):
        """The path cost boundary_cost + C0(r0) as a function of t2, with r0
        and t1 fixed.

        Every term r0 and t1 settle (V(t1), C0(r0), launch) is evaluated
        once, so a call costs one cumulative; the terms still add as
        -(V(t2) - V(t1)) + launch + tail + C0(r0), the bits of the full sum.
        With on = (lo, hi), the bracket every t2 lies in, V(t2) is read by
        the one-piece evaluator (same bits).  Paths outside 0 <= t1 < t2 < t,
        and a positive launch radius with t1 = 0, cost +inf."""
        pr = self.problem
        if not (0.0 <= t1 < t) or (t1 == 0.0 and r0 > 0.0):
            return lambda z: math.inf
        vsq = pr._vsq_half
        cum_z = vsq.cumulative if on is None else vsq._cumulative_on_piece(*on)
        v1, c0 = pr.sojourn_gain(t1), pr.q0.cumulative(r0)
        launch = 0.0 if t1 == 0.0 else r0 * r0 / (2.0 * t1)
        return lambda z: (((-(cum_z(z) - v1) + launch) + r * r / (2.0 * (t - z))) + c0
                          if t1 < z < t else math.inf)

    def _descend(self, r, t, r0, t1, t2, cell):
        """Coordinate descent, five rounds of shrinking brackets around the
        seed."""
        pr = self.problem
        # the seed comes from the tables as numpy scalars; Python floats
        # carry the same bits into the line functions' arithmetic
        r0, t1, t2 = float(r0), float(t1), float(t2)
        kt = pr.q_bound.breakpoints
        kr = pr.q0.breakpoints

        def path_cost(r0, t1, t2):
            if not (0.0 <= t1 < t2 < t):
                return math.inf
            return boundary_cost(r, r0, t, t1, t2, pr) + pr.q0.cumulative(r0)

        best = self._line(r, t, r0, t1)(t2)
        # the degenerate two-segment family is always a candidate
        two_segment = self._line(r, t, 0.0, 0.0)
        v = two_segment(t2)
        if v < best:
            r0, t1, best = 0.0, 0.0, v
        span, sup_q0 = 3.0 * cell, pr.q0.sup_abs()
        for _ in range(5):
            if t1 > 0.0:
                on = (max(0.0, r0 - span * sup_q0 - 0.05), r0 + span * sup_q0 + 0.05)
                x, v = _line_min(lambda z: path_cost(z, t1, t2), *on, kinks=kr)
                if v <= best:
                    r0, best = x, v
                on = (max(1e-15 * t, t1 - span), min(t2 * (1 - 1e-13), t1 + span))
                x, v = _line_min(lambda z: path_cost(r0, z, t2), *on, kinks=kt)
                if v <= best:
                    t1, best = x, v
            on = (max(t1 * (1 + 1e-13), t2 - span, 1e-15 * t), min(t * (1 - 1e-13), t2 + span))
            x, v = _line_min(self._line(r, t, r0, t1, on=on), *on, kinks=kt)
            if v <= best:
                t2, best = x, v
            v0 = two_segment(t2)
            if v0 < best:
                r0, t1, best = 0.0, 0.0, v0
            span *= 0.25
        return float(r0), float(t1), float(t2), float(best)

    def minimize(self, r: float, t: float) -> PathMinimum:
        if r <= 0 or t <= 0:
            raise ValueError("need r > 0 and t > 0")
        no_credit = self.problem._no_credit
        if not no_credit and t != self._sup_v_t:
            # sup q_B^+ over [0, t] depends on t only: panel rows, front
            # scans and boundary checks query one t many times in a row
            self._sup_v_t, self._sup_v = t, self.problem._vplus.sup_abs(0.0, t)
        sup_v = 0.0 if no_credit else self._sup_v
        r0_i, v_i = self._interior(r, t, sup_v)
        if no_credit:
            return PathMinimum("interior", r0_i, None, None, v_i)
        r0_b, t1_b, t2_b, v_b = self._boundary(r, t, prune_above=v_i, sup_v=sup_v)
        # ties break toward the interior branch
        if v_i <= v_b + _VALUE_TIE:
            return PathMinimum("interior", r0_i, None, None, v_i)
        return PathMinimum("boundary", r0_b, t1_b, t2_b, v_b)

    def solve_at(self, r: float, t: float):
        """(minimum, q, P) at (r, t): q is the slope of the minimizing
        path's last segment, P = -int_{r0}^inf p0 on the interior branch
        and -p_B(t2)/omega_{n-1} on the boundary branch."""
        m = self.minimize(r, t)
        pr = self.problem
        if m.branch == "interior":
            return m, (r - m.r0) / t, -pr.p0.tail_integral(m.r0)
        return m, r / (t - m.t2), -float(pr.p_bound(m.t2)) / pr.omega


# ---------------------------------------------------------------------------
# solution formulas


@dataclass
class SolutionPanel:
    """Sampled inviscid solution on an (r, t) grid."""

    problem: InviscidProblem
    grid_r: np.ndarray
    grid_t: np.ndarray
    q: np.ndarray
    P: np.ndarray
    p: np.ndarray
    branch: np.ndarray          # 'I'/'B' characters
    disc: np.ndarray            # bool flags
    minimizer: PathMinimizer

    @property
    def n(self) -> int:
        return self.problem.n


def solve_panel(problem: InviscidProblem, grid_r, grid_t) -> SolutionPanel:
    """(q, P, p) and jump flags on an (r, t) grid; the one place P becomes p.

    A cell [r_j, r_j+1] of row t jumps where |q_j+1 - q_j| exceeds
    1e-4 + 5 (r_j+1 - r_j) / t.  p at a point is the forward difference of
    P over its right cell, or, where that cell jumps or is missing, the
    backward difference over its left cell; with neither it is NaN.  Both
    ends of every jump, and every NaN point, are flagged in disc."""
    grid_r = np.asarray(grid_r, dtype=float)
    grid_t = np.asarray(grid_t, dtype=float)
    mz = PathMinimizer(problem, t_max=max(2.0 * float(grid_t[-1]), 1.0))
    nt, nr = grid_t.size, grid_r.size
    q = np.empty((nt, nr))
    P = np.empty((nt, nr))
    branch = np.empty((nt, nr), dtype="U1")
    for i, t in enumerate(grid_t):
        for j, r in enumerate(grid_r):
            m, q[i, j], P[i, j] = mz.solve_at(float(r), float(t))
            branch[i, j] = "I" if m.branch == "interior" else "B"
    p = np.empty_like(P)
    disc = np.zeros((nt, nr), dtype=bool)
    for i in range(nt):
        dq = np.abs(np.diff(q[i]))
        jump = dq > (_Q_GAP + 5.0 * np.diff(grid_r) / grid_t[i])
        for j in range(nr):
            if j < nr - 1 and not jump[j]:
                p[i, j] = (P[i, j + 1] - P[i, j]) / (grid_r[j + 1] - grid_r[j])
            elif j > 0 and not jump[j - 1]:
                p[i, j] = (P[i, j] - P[i, j - 1]) / (grid_r[j] - grid_r[j - 1])
            else:
                p[i, j] = np.nan
                disc[i, j] = True
        disc[i, :-1] |= jump
        disc[i, 1:] |= jump
    return SolutionPanel(problem, grid_r, grid_t, q, P, p, branch, disc, mz)


# ---------------------------------------------------------------------------
# weak boundary conditions


@dataclass
class BoundaryCheckRow:
    t: float
    q_origin: float
    q_bound: float
    mode: str          # 'attained' | 'absorbing'
    mass: float
    mass_target: float
    ok: bool
    note: str = ""


def weak_boundary_check(problem: InviscidProblem, times,
                        minimizer: PathMinimizer | None = None):
    """Per time sample: either q(0+,t) = q_bound(t), or q(0+,t) <= 0 with
    q(0+,t)^2 <= (q_bound^+)^2; and the total mass matches p_bound(t)
    whenever q(0+,t) > 0, to the relative tolerance _MASS_RTOL.  The traces
    at 0+ are read at r = _ORIGIN_PROBE; mass is read off the primitive:
    omega * int_0^inf p = -omega * P(0+, t)."""
    times = np.asarray(times, dtype=float)
    mz = minimizer or PathMinimizer(problem, t_max=max(2.0 * float(times[-1]), 1.0))
    rows = []
    for t in times:
        t = float(t)
        qb = float(problem.q_bound(t))
        qbp = max(qb, 0.0)
        _, q0p, P0p = mz.solve_at(_ORIGIN_PROBE, t)
        mass = -problem.omega * P0p
        target = float(problem.p_bound(t))
        tol_q = max(50.0 * _ORIGIN_PROBE / t, 1e-6)
        if abs(q0p - qb) <= tol_q:
            mode = "attained"
            ok = True
        elif q0p <= tol_q and q0p ** 2 <= qbp ** 2 + tol_q:
            mode = "absorbing"
            ok = True
        else:
            mode = "violation"
            ok = False
        note = ""
        if q0p > tol_q:
            if abs(mass - target) > _MASS_RTOL * max(abs(target), 1.0):
                ok = False
                note = f"mass {mass:.6g} != target {target:.6g}"
        rows.append(BoundaryCheckRow(t, q0p, qb, mode, mass, target, ok, note))
    return rows


# ---------------------------------------------------------------------------
# CSV


def write_panel_csv(panel: SolutionPanel, path):
    """radial_core schema plus branch {I,B} and discontinuity flags."""
    field = RadialField(panel.n, 0.0, panel.grid_r, panel.grid_t, panel.q, panel.p,
                        delta_flags=panel.disc)
    write_radial_csv(field, path, {"branch": panel.branch, "disc": panel.disc})
