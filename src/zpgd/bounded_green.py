"""Bounded-domain radial adhesion solutions by eigenfunction series.

The linearizing heat problem on a disc/ball or planar/spherical annulus
with Robin walls (eps a_r + q a = 0) is solved by its eigenfunction
expansion; the velocity is the logarithmic-derivative ratio of two series
and the density rides backward characteristics to the parabolic boundary.

Per-term normalizations are computed from closed-form eigenfunction norms
valid at any frequency (tests confirm they coincide with the tabulated
coefficient forms at the eigenvalues).  When every boundary velocity is
zero the constant eigenfunction is a genuine zero mode and is included
explicitly; a positive-root-only series would lose it and degenerate to
0/0 on Neumann data.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .freespace import TimeDomainError, _check_times
from .profiles import ScalarProfile
from .radial_core import gauss_panels, write_csv
from .specfun import (DomainCase, EigenProblem, EigenvalueList, bessel_all,
                      bessel_j01, find_eigenvalues)

__all__ = [
    "BoundedProblem",
    "Wall",
    "GreenEvaluator",
    "BoundedHopfCole",
    "build_green_evaluator",
    "green",
    "hopf_cole_boundary_state",
    "density_batch",
    "large_time_velocity",
    "radial_mass",
    "mass_flux_report",
    "write_eigenvalue_csv",
]


_TWO_LOG_1E18 = 2.0 * math.log(1e18)   # decay exponent range of the kept modes
# modes in every series: at the floor t = 1e-3 * 2 L^2 / eps (L the domain
# width) the rates whose decay stays within 1e-18 of the slowest mode's lie
# below sqrt(2 ln 1e18 / (eps t)) = 203.6 / L, about 65 modes at the
# spacing pi / L; eight more make 73
_N_MODES = 73
_FLUX_DT = 0.02   # half-width of mass_flux_report's centred difference in t


class TruncationError(RuntimeError):
    """Series truncation insufficient for the requested evaluation."""


class DataInsufficiencyError(RuntimeError):
    """A backward characteristic reached a wall whose density trace was not
    supplied (the inflow sign conditions are violated)."""


class Wall(NamedTuple):
    """A Robin wall: radius, wall velocity, outward sign (-1 inner, +1
    outer) and trace of p = r^(n-1) rho (None where no density is given)."""

    r: float
    q: float
    sign: float
    p: ScalarProfile | None

    @property
    def inflow(self) -> bool:
        return self.sign * self.q < 0.0

    @property
    def name(self) -> str:
        return "inner" if self.sign < 0.0 else "outer"


@dataclass
class BoundedProblem:
    """Radial initial/boundary data on a ball (radius, q_boundary) or an
    annulus (r_inner/r_outer, q_inner/q_outer).  Boundary densities are
    needed only on inflow walls: q_boundary < 0 for the ball, q_inner > 0
    at the inner wall, q_outer < 0 at the outer wall."""

    case: DomainCase
    epsilon: float
    q0: ScalarProfile
    rho0: ScalarProfile
    radius: float | None = None
    r_inner: float | None = None
    r_outer: float | None = None
    q_boundary: float = 0.0
    q_inner: float = 0.0
    q_outer: float = 0.0
    rho_boundary: ScalarProfile | None = None
    rho_inner: ScalarProfile | None = None
    rho_outer: ScalarProfile | None = None

    def __post_init__(self):
        self.eigen = EigenProblem(
            self.case, self.epsilon, radius=self.radius, r_inner=self.r_inner,
            r_outer=self.r_outer, q_boundary=self.q_boundary,
            q_inner=self.q_inner, q_outer=self.q_outer)
        for w in self.walls:
            if w.inflow and w.p is None:
                raise ValueError(f"inflow at the {w.name} wall needs its boundary density")

    @property
    def walls(self) -> tuple:
        """The Robin walls, inner first; a ball has only its outer wall."""
        data = (((self.r_inner, self.q_inner, -1.0, self.rho_inner),
                 (self.r_outer, self.q_outer, 1.0, self.rho_outer)) if self.is_annulus
                else ((self.radius, self.q_boundary, 1.0, self.rho_boundary),))
        return tuple(Wall(r, q, sign, None if rho is None else rho.scaled(r ** (self.n - 1)))
                     for r, q, sign, rho in data)

    @property
    def n(self) -> int:
        return self.case.dimension

    @property
    def is_annulus(self) -> bool:
        return self.case.is_annulus

    @property
    def domain(self) -> tuple:
        if self.is_annulus:
            return (self.r_inner, self.r_outer)
        return (0.0, self.radius)

    @property
    def length_scale(self) -> float:
        a, b = self.domain
        return b - a

    def p0_profile(self) -> ScalarProfile:
        return self.rho0.times_monomial(self.n - 1)

    def consistency_gap(self) -> float:
        """First-order consistency of initial and boundary velocities at
        the space-time corners (0 when the data are compatible)."""
        return max(abs(float(self.q0(w.r)) - w.q) for w in self.walls)


def _radii(r) -> np.ndarray:
    """r as a 1-D float array, returned as is when it already is one."""
    if type(r) is np.ndarray and r.ndim == 1 and r.dtype == np.float64:
        return r
    return np.atleast_1d(np.asarray(r, dtype=float))


@dataclass
class GreenEvaluator:
    """Assembled eigenfunction expansion of the Robin heat kernel."""

    problem: BoundedProblem
    eigs: EigenvalueList
    rates: np.ndarray          # decay wavenumbers (mu/R or lambda), zero mode first if present
    inv_norms: np.ndarray
    include_zero: bool
    t_floor: float
    # planar annulus only: per-mode inner-wall coefficients of J0 and Y0
    ca: np.ndarray | None = None
    cb: np.ndarray | None = None

    def __post_init__(self):
        # per-call constants, built once: the squared rates, the slowest
        # one, and the decay exponent per unit time of each mode, relative
        # to the slowest (reference) and absolute
        self._lam2 = self.rates ** 2
        self._lam2_min = self.rates.min() ** 2
        self._expo_ref = -0.5 * self.problem.epsilon * (self._lam2 - self._lam2_min)
        self._expo_abs = -0.5 * self.problem.epsilon * self._lam2
        # phi's frequency row (1 in a zero-rate column) and the rows it
        # scales; phi takes the first k entries of each, or one entry per
        # cell
        self._lam_row = np.where(self.rates == 0.0, 1.0, self.rates)
        if self.problem.case == DomainCase.ANNULUS_3D:
            self._b1 = self.problem.eigen.b1
            self._r1_lam_row = self.problem.r_inner * self._lam_row

    def active_modes(self, t):
        """Modes whose decay factor at time t still exceeds 1e-18 relative
        to the slowest mode; later modes cannot move the sums.  t may also
        be an array of positive times, with one count per time."""
        if np.ndim(t) == 0 and t <= 0.0:
            return self.rates.size
        lam2_cut = self._lam2_min + _TWO_LOG_1E18 / (self.problem.epsilon * t)
        k = self._lam2.searchsorted(lam2_cut) + 1
        return int(k) if np.ndim(k) == 0 else k

    def phi(self, r, k=None):
        """(phi, dphi/dr): (len(r), k) matrices of eigenfunction values and
        radial derivatives for the first k modes (all by default), from one
        evaluation.  A zero-rate column, when present, is the constant
        eigenfunction.

        With k an array of one mode count per radius the cells are the
        first k[j] modes of each radius j, returned flat, radius after
        radius: a run of radii that share a count is then a C-ordered
        (radii, count) block, with the bits of its own matrix call."""
        r = _radii(r)
        if np.ndim(k) == 0:
            cols, rr, first = slice(None, k), r[:, None], np.s_[:, :1]
        else:   # the column of every cell, and its radius
            k = np.asarray(k)
            ends = np.cumsum(k)
            cols = np.arange(ends[-1] if k.size else 0) - np.repeat(ends - k, k)
            rr, first = np.repeat(r, k), cols == 0
        lam = self._lam_row[cols]
        z = rr * lam
        case = self.problem.case
        if case == DomainCase.BALL_2D:
            j0, j1 = (v.reshape(z.shape) for v in bessel_j01(z.ravel()))
            out, dout = j0, -lam * j1
        elif case == DomainCase.BALL_3D:
            sz = np.sin(z)
            out = sz / rr
            dout = lam * np.cos(z) / rr - sz / rr ** 2
        elif case == DomainCase.ANNULUS_2D:
            ca = self.ca[cols]
            cb = self.cb[cols]
            j0, j1, y0, y1 = (v.reshape(z.shape) for v in bessel_all(z.ravel()))
            out = ca * j0 - cb * y0
            dout = -lam * (ca * j1 - cb * y1)
        else:  # spherical annulus
            # psi and dpsi are built in place in out and dout: the state's
            # set-up call takes every mode at thousands of Gauss nodes, where
            # each temporary matrix is about a megabyte
            b1 = self._b1
            r1_lam = self._r1_lam_row[cols]
            u = lam * (rr - self.problem.r_inner)
            su = np.sin(u)
            cu = np.cos(u, out=u)
            out = b1 * su
            out += r1_lam * cu
            dout = b1 * cu
            dout -= r1_lam * su
            dout *= lam
            dout /= rr
            dout -= out / rr ** 2
            out /= rr
        if self.include_zero:
            out[first] = 1.0
            dout[first] = 0.0
        return out, dout

    def decay(self, t, reference: bool = True,
              k: int | None = None) -> np.ndarray:
        """exp(-eps rate^2 t / 2), optionally relative to the slowest mode
        (the reference form keeps velocity ratios finite at large t); a
        column of times gives one row per time."""
        expo = self._expo_ref if reference else self._expo_abs
        return np.exp(expo[:k] * t)

    def _terms(self, r, xi, t):
        pr = self.problem
        w = xi ** (pr.n - 1)
        return (self.inv_norms * self.phi(np.array([r]))[0][0]
                * self.phi(np.array([xi]))[0][0] * w * self.decay(t, reference=False))


def _zero_mode_norm(problem: BoundedProblem) -> float:
    a, b = problem.domain
    n = problem.n
    return (b ** n - a ** n) / n


def build_green_evaluator(problem: BoundedProblem) -> GreenEvaluator:
    """Assemble the series of _N_MODES modes (plus the zero mode of
    Neumann data) for its one time floor, t_floor = 1e-3 * 2 L^2 / eps with
    L the domain width.  TruncationError is raised when the last mode's
    decay at t_floor, relative to the slowest mode and weighted by 1 + its
    rate, exceeds 1e-10."""
    if problem.eigen.has_robin_zero_mode:
        zero_mode = "A + B ln r" if problem.n == 2 else "A + B/r"
        raise ValueError(
            f"the Robin data have eigenvalue 0 with eigenfunction {zero_mode} (a "
            "singular wall form), a zero mode outside the positive-frequency "
            "series; the expansion would be incomplete")
    if problem.eigen.has_growing_mode:
        raise ValueError(
            "the Robin data carry a growing mode outside the positive-frequency "
            "series (an inflow wall too strong for the domain); the expansion "
            "would be incomplete")
    t_floor = 1e-3 * 2.0 * problem.length_scale ** 2 / problem.epsilon
    eigs = find_eigenvalues(problem.eigen, _N_MODES)
    if problem.case.is_annulus:
        rates = eigs.values.copy()
    else:
        rates = eigs.values / problem.radius
    walls = (None, None)
    if problem.case == DomainCase.ANNULUS_2D:
        walls = _wall_coefficients(problem, rates)
    inv_norms = 1.0 / _eigen_norms(problem, eigs.values, rates)
    include_zero = problem.eigen.has_zero_mode
    if include_zero:
        rates = np.concatenate([[0.0], rates])
        inv_norms = np.concatenate([[1.0 / _zero_mode_norm(problem)], inv_norms])
        if walls[0] is not None:   # placeholders: phi overwrites the constant column
            walls = tuple(np.concatenate([[0.0], c]) for c in walls)
    ev = GreenEvaluator(problem, eigs, rates, inv_norms, include_zero, t_floor,
                        *walls)
    tail = ev.decay(t_floor, reference=True)[-1] * (1.0 + rates[-1])
    if tail > 1e-10:
        raise TruncationError(
            f"series tail {tail:.2e} at the time floor t={t_floor:g} with "
            f"{eigs.values.size} modes")
    return ev


def _wall_coefficients(problem: BoundedProblem, rates: np.ndarray):
    """(ca, cb) of the planar-annulus eigenfunctions ca J0(rate r) -
    cb Y0(rate r), which meet the Robin condition at the inner wall."""
    a1 = problem.q_inner / problem.epsilon
    j0i, j1i, y0i, y1i = bessel_all(rates * problem.r_inner)
    return -a1 * y0i + rates * y1i, -a1 * j0i + rates * j1i


def _eigen_norms(problem: BoundedProblem, mu: np.ndarray, rates: np.ndarray):
    """Closed-form squared norms of the radial eigenfunctions with weight
    r^(n-1); valid for any frequency, no eigenvalue identities needed."""
    case = problem.case
    if case == DomainCase.BALL_2D:
        j0, j1 = bessel_j01(mu)
        return 0.5 * problem.radius ** 2 * (j0 ** 2 + j1 ** 2)
    if case == DomainCase.BALL_3D:
        return 0.5 * problem.radius * (1.0 - np.sin(2.0 * mu) / (2.0 * mu))
    if case == DomainCase.ANNULUS_2D:
        a1 = problem.q_inner / problem.epsilon
        a2 = problem.q_outer / problem.epsilon
        r1, r2 = problem.r_inner, problem.r_outer
        ca, cb = _wall_coefficients(problem, rates)
        j0o, j1o, y0o, y1o = bessel_all(rates * r2)
        h2 = ca * j0o - cb * y0o
        # H(R1) = -2/(pi R1) exactly (Wronskian), independent of the data
        h1_sq = (2.0 / (math.pi * r1)) ** 2
        return ((rates ** 2 + a2 ** 2) * r2 ** 2 * h2 ** 2
                - (rates ** 2 + a1 ** 2) * r1 ** 2 * h1_sq) / (2.0 * rates ** 2)
    b1 = problem.eigen.b1
    r1 = problem.r_inner
    d = problem.r_outer - problem.r_inner
    lam = rates
    s2 = np.sin(2.0 * lam * d)
    return (0.5 * d * (b1 ** 2 + r1 ** 2 * lam ** 2)
            + (r1 ** 2 * lam ** 2 - b1 ** 2) * s2 / (4.0 * lam)
            + b1 * r1 * np.sin(lam * d) ** 2)


def green(ev: GreenEvaluator, r: float, xi: float, t: float) -> float:
    """Heat kernel G(r, xi, t); TimeDomainError unless t is finite and
    positive (the series diverges pointwise at t <= 0)."""
    _check_times(t, positive=True)
    return float(ev._terms(r, xi, t).sum())


# ---------------------------------------------------------------------------
# Hopf-Cole state built from the series


class BoundedHopfCole:
    """a(r,t) = integral G(r,xi,t) exp(-(1/eps) int_0^xi q0) dxi and the
    derived velocity; weight integrals are precomputed once on 10-point
    Gauss panels."""

    def __init__(self, ev: GreenEvaluator):
        self.ev = ev
        pr = ev.problem
        # scalars of the right side, read once per state
        self._eps = pr.epsilon
        self._half_eps = 0.5 * pr.epsilon
        self._nm1 = pr.n - 1
        a, b = pr.domain
        lam_max = float(ev.rates.max())
        n_panels = int(math.ceil((b - a) / max(0.5 * math.pi / max(lam_max, 1e-9), 1e-9)))
        n_panels = min(max(n_panels, 16), 4000)
        edges = np.unique(np.concatenate(
            [np.linspace(a, b, n_panels + 1),
             [k for k in pr.q0.breakpoints if a < k < b]]))
        nodes, wts = gauss_panels(edges, 10)
        expo = -pr.q0.cumulative(nodes) / pr.epsilon
        self._shift = float(expo.max())
        weight = np.exp(expo - self._shift) * nodes ** (pr.n - 1) * wts
        self.W = ev.phi(nodes)[0].T @ weight         # (N,)
        self.coef = ev.inv_norms * self.W
        # positivity probe on a coarse grid at and above the floor
        rs = np.linspace(a + 1e-3 * (b - a), b, 41)
        for tt in (ev.t_floor, 4.0 * ev.t_floor, 16.0 * ev.t_floor):
            if np.any(self.evaluate(rs, tt) <= 0.0):
                raise TruncationError(
                    f"nonpositive Hopf-Cole variable at t={tt:g}, near the series "
                    f"floor, with {len(ev.eigs.values)} modes")

    @property
    def time_floor(self) -> float:
        return self.ev.t_floor

    def _weights(self, t: float, reference: bool):
        """Active mode count k at time t and the k decayed series weights."""
        k = self.ev.active_modes(t)
        return k, self.coef[:k] * self.ev.decay(t, reference=reference, k=k)

    def evaluate(self, r, t: float) -> np.ndarray:
        """a(r, t) (up to the fixed positive normalization exp(shift)) at
        one finite t >= 0."""
        _check_times(t)
        k, c = self._weights(t, reference=False)
        return self.ev.phi(r, k=k)[0] @ c

    def velocity(self, r, t):
        """q = -eps a_r / a, the q of velocity_and_derivative, for r and t
        as it takes them; only defined at and above the series floor."""
        times = _check_times(t)
        if (times < self.ev.t_floor).any():
            raise TruncationError(
                f"t={times.min():g} below the series floor {self.ev.t_floor:g}")
        out = self.velocity_and_derivative(r, t)[0]
        return float(out[0]) if np.isscalar(r) or np.asarray(r).ndim == 0 else out

    def velocity_and_derivative(self, r, t):
        """(q, dq/dr) at radii r and one time t, or at a 2-D r with one row
        of radii per entry of a 1-D t; every row has the bits of its own
        one-time call.

        The eigenfunctions are evaluated once, each row over its own active
        modes, and each row then takes its own matrix-vector products on
        its block.  The second radial derivative comes for free from
        phi'' = -rate^2 phi - (n-1)/r phi', so a_rr needs only an extra
        weighted sum of the same phi matrix.  Below the series floor the
        initial-data Taylor limit stands in (characteristic tracing must
        reach t = 0)."""
        if np.ndim(t) == 0:
            q, dq = self.velocity_and_derivative(_radii(r)[None], np.array([t]))
            return q[0], dq[0]
        rr, t = np.asarray(r, dtype=float), np.asarray(t, dtype=float)
        floor = self.ev.t_floor
        times = t.tolist()
        if max(times) < floor:
            return self._taylor(rr, t[:, None])
        if min(times) >= floor:
            return self._series(rr, t)
        low = t < floor
        q, dq = np.empty(rr.shape), np.empty(rr.shape)
        q[low], dq[low] = self._taylor(rr[low], t[low, None])
        q[~low], dq[~low] = self._series(rr[~low], t[~low])
        return q, dq

    def _series(self, rr, t):
        """(q, dq/dr) of the series, row i of the radii rr at time t[i]."""
        ev = self.ev
        n_rows, m = rr.shape
        ks = [min(k, self.coef.size) for k in ev.active_modes(t).tolist()]
        c = self.coef * ev.decay(t[:, None])
        c_lam = c * ev._lam2
        if ks.count(ks[0]) == n_rows:   # one mode count: the blocks tile a matrix
            phi0, phi1 = (v.ravel() for v in ev.phi(rr.ravel(), ks[0]))
        else:
            phi0, phi1 = ev.phi(rr.ravel(), np.repeat(ks, m))
        a, a_r, a_l = np.empty((3, n_rows, m))
        start = 0
        for i, k in enumerate(ks):
            stop = start + m * k
            p0 = phi0[start:stop].reshape(m, k)
            np.matmul(p0, c[i, :k], out=a[i])
            np.matmul(phi1[start:stop].reshape(m, k), c[i, :k], out=a_r[i])
            np.matmul(p0, c_lam[i, :k], out=a_l[i])
            start = stop
        if np.any(np.abs(a) < 1e-300):
            raise TruncationError("series denominator underflow")
        a_rr = -a_l - self._nm1 / rr * a_r
        q = -self._eps * a_r / a
        return q, -self._eps * a_rr / a + q * q / self._eps

    def _taylor(self, rr, t):
        """(q0 + t qdot, q0') from q_t = -q q_r + eps/2 (q_rr + (n-1)/r q_r -
        (n-1)/r^2 q): the series' stand-in below its floor (the O(t) term
        of q_r is dropped)."""
        nm1 = self._nm1
        q0, dq0, d2q0 = self.ev.problem.q0.with_derivatives(rr, 2)
        qdot = (-q0 * dq0 + self._half_eps *
                (d2q0 + nm1 / rr * dq0 - nm1 / rr ** 2 * q0))
        return q0 + t * qdot, dq0

    def robin_residual(self, t: float) -> float:
        """Boundary-condition residual of the series, relative to sup|a|, at
        one finite t >= 0."""
        _check_times(t)
        pr = self.ev.problem
        a, b = pr.domain
        probe = np.linspace(a + 1e-6 * (b - a), b, 101)
        k, c = self._weights(t, reference=True)
        scale = float(np.max(np.abs(self.ev.phi(probe, k=k)[0] @ c)))
        res = 0.0
        for w in pr.walls:
            phi, dphi = self.ev.phi(np.array([w.r]), k=k)
            res = max(res, abs(pr.epsilon * (dphi @ c)[0] + w.q * (phi @ c)[0]))
        return res / max(scale, 1e-300)


def hopf_cole_boundary_state(problem: BoundedProblem) -> BoundedHopfCole:
    return BoundedHopfCole(build_green_evaluator(problem))


# ---------------------------------------------------------------------------
# public operations


def large_time_velocity(ev: GreenEvaluator, r):
    """One-mode limit of the velocity of ev's problem; identically 0 for
    Neumann walls (the zero mode dominates) and the weight integrals cancel
    otherwise."""
    if ev.include_zero:
        return 0.0 if np.isscalar(r) else np.zeros(np.asarray(r).shape)
    phi, dphi = ev.phi(r)
    out = -ev.problem.epsilon * dphi[:, 0] / phi[:, 0]
    return float(out[0]) if np.isscalar(r) or np.asarray(r).ndim == 0 else out


def density_batch(state: BoundedHopfCole, radii, t) -> np.ndarray:
    """rho(r, t) at many radii, one backward trace per time.

    t is one time or a 1-D array of times, each finite and >= 0; radii is
    1-D, the same radii at every time, or 2-D with one row per time.  The
    result is 1-D for one time and has one row per time otherwise.  The
    traces of all times run in lockstep, and each row has the bits of its
    own one-time call.

    Each characteristic of p_t + (qp)_r = 0 is traced back to the parabolic
    boundary: to its foot on the initial data or, through an inflow wall,
    to the wall's density trace at the exit time.  The boundary value of p
    is amplified by exp(-int q_r ds) and divided by r^(n-1)."""
    from .freespace import _rk4_doubling  # shared adaptive RK pair

    times = _check_times(t)
    pr = state.ev.problem
    radii = np.asarray(radii, dtype=float)
    rows = np.broadcast_to(radii, np.shape(np.atleast_1d(times)) + radii.shape[-1:])
    a, b = pr.domain
    m = rows.shape[1]
    # backward characteristics can only leave through inflow walls
    exits = [w for w in pr.walls if w.inflow]
    lo = next((w.r for w in exits if w.sign < 0.0), -math.inf)
    hi = next((w.r for w in exits if w.sign > 0.0), math.inf)

    lo_clip, hi_clip = a + 1e-13 * (b - a), b - 1e-13 * (b - a)

    def rhs(u, y):
        # np.clip's values at well under its per-call cost on small arrays
        beta = np.minimum(np.maximum(y[:, :m], lo_clip), hi_clip)
        q, dq = state.velocity_and_derivative(beta, np.maximum(u, 0.0))
        return -np.concatenate((q, dq), axis=1)

    # state per time: feet and the accumulated d(log p)/ds integral
    y, t_exit = _rk4_doubling(rhs, np.concatenate([rows, np.zeros(rows.shape)], axis=1),
                              times, walls=(lo, hi))
    feet = np.clip(y[:, :m], lo_clip, hi_clip)
    integral_qr = y[:, m:]   # = -int_{t0}^{t} q_r ds
    p_gamma = pr.p0_profile()(feet)
    for i, j in zip(*np.nonzero(~np.isnan(t_exit))):
        w = next(w for w in exits if w.r == y[i, j])
        if w.p is None:
            raise DataInsufficiencyError(
                f"characteristic reached the {w.name} wall at t={t_exit[i, j]:g} but no "
                "boundary density was supplied (inflow sign conditions violated)")
        p_gamma[i, j] = w.p(t_exit[i, j])
    dens = p_gamma * np.exp(integral_qr) / rows ** (pr.n - 1)
    return dens[0] if times.ndim == 0 else dens


def radial_mass(state: BoundedHopfCole, t):
    """m(t) = integral of p = r^(n-1) rho over the domain width, on 16
    Gauss panels of 6 points; one time, or an array of one mass per time
    (all traced in lockstep)."""
    pr = state.ev.problem
    a, b = pr.domain
    lo = a + 1e-4 * (b - a) if not pr.is_annulus else a + 1e-9 * (b - a)
    hi = b - 1e-9 * (b - a)
    nodes, wts = gauss_panels(np.linspace(lo, hi, 16 + 1), 6)
    dens = density_batch(state, nodes, t)
    masses = []
    for row in np.atleast_2d(dens):
        total = float((row * nodes ** (pr.n - 1)) @ wts)
        if not pr.is_annulus:
            # the skipped sliver [a, lo) carries p ~ p(lo) (r/lo)^(n-1)
            p_lo = float(row[0] * nodes[0] ** (pr.n - 1))
            total += p_lo * lo / pr.n
        masses.append(total)
    return masses[0] if dens.ndim == 1 else np.array(masses)


def mass_flux_report(state: BoundedHopfCole, times):
    """Check dm/dt against the wall fluxes -[q p] by centred differences of
    half-width _FLUX_DT, so every time must be at least _FLUX_DT.

    Returns rows (t, dm_dt, flux, residual).  The identity is stated for
    the radial mass integral of p; the full mass is omega_{n-1} times it.
    The masses of all times run in one lockstep and the wall densities in
    another.
    """
    ts = _check_times(times)
    if (ts < _FLUX_DT).any():
        raise TimeDomainError(f"mass_flux_report needs t >= {_FLUX_DT}, got {times!r}")
    pr = state.ev.problem
    a, b = pr.domain
    masses = radial_mass(state, np.concatenate([ts - _FLUX_DT, ts + _FLUX_DT]))
    # the flux -sign q p of each wall, read 1e-7 widths inside it and
    # summed outer wall first
    walls = tuple(reversed(pr.walls))
    radii = [w.r - w.sign * (1e-7 * (b - a)) for w in walls]
    inside = np.array(radii * ts.size)[:, None]   # one row per (time, wall)
    at = np.repeat(ts, len(walls))
    p_wall = density_batch(state, inside, at).reshape(ts.size, len(walls)).tolist()
    q_wall = state.velocity(inside, at).reshape(ts.size, len(walls)).tolist()
    rows = []
    for t, m_lo, m_hi, ps, qs in zip(times, masses[:ts.size].tolist(),
                                     masses[ts.size:].tolist(), p_wall, q_wall):
        dm_dt = (m_hi - m_lo) / (2.0 * _FLUX_DT)
        terms = [-w.sign * q * (p * r ** (pr.n - 1))
                 for w, r, p, q in zip(walls, radii, ps, qs)]
        flux = sum(terms[1:], terms[0])
        rows.append((t, dm_dt, flux, dm_dt - flux))
    return rows


def write_eigenvalue_csv(eigs: EigenvalueList, path):
    write_csv(path, ["index", "value", "residual"],
              zip(itertools.count(1), eigs.values.tolist(), eigs.residuals.tolist()))
