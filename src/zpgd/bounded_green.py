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
        # scales; phi slices the first k columns of each
        self._lam_row = np.where(self.rates == 0.0, 1.0, self.rates)[None, :]
        if self.problem.case == DomainCase.ANNULUS_2D:
            self._ca_row, self._cb_row = self.ca[None, :], self.cb[None, :]
        elif self.problem.case == DomainCase.ANNULUS_3D:
            self._b1 = self.problem.eigen.b1
            self._r1_lam_row = self.problem.r_inner * self._lam_row

    def active_modes(self, t: float) -> int:
        """Modes whose decay factor at time t still exceeds 1e-18 relative
        to the slowest mode; later modes cannot move the sums."""
        if t <= 0.0:
            return self.rates.size
        lam2_cut = self._lam2_min + _TWO_LOG_1E18 / (self.problem.epsilon * t)
        return int(self._lam2.searchsorted(lam2_cut)) + 1

    def phi(self, r, k: int | None = None):
        """(phi, dphi/dr): (len(r), k) matrices of eigenfunction values and
        radial derivatives for the first k modes (all by default), from one
        evaluation.  A zero-rate column, when present, is the constant
        eigenfunction."""
        r = _radii(r)
        cols = slice(None, k)
        lam = self._lam_row[:, cols]
        z = r[:, None] * lam
        case = self.problem.case
        if case == DomainCase.BALL_2D:
            j0, j1 = (v.reshape(z.shape) for v in bessel_j01(z.ravel()))
            out, dout = j0, -lam * j1
        elif case == DomainCase.BALL_3D:
            rr = r[:, None]
            sz = np.sin(z)
            out = sz / rr
            dout = lam * np.cos(z) / rr - sz / rr ** 2
        elif case == DomainCase.ANNULUS_2D:
            ca = self._ca_row[:, cols]
            cb = self._cb_row[:, cols]
            j0, j1, y0, y1 = (v.reshape(z.shape) for v in bessel_all(z.ravel()))
            out = ca * j0 - cb * y0
            dout = -lam * (ca * j1 - cb * y1)
        else:  # spherical annulus
            # psi and dpsi are built in place in out and dout: the state's
            # set-up call takes every mode at thousands of Gauss nodes, where
            # each temporary matrix is about a megabyte
            b1 = self._b1
            r1_lam = self._r1_lam_row[:, cols]
            rr = r[:, None]
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
        if self.include_zero and out.shape[1]:
            out[:, 0] = 1.0
            dout[:, 0] = 0.0
        return out, dout

    def decay(self, t: float, reference: bool = True,
              k: int | None = None) -> np.ndarray:
        """exp(-eps rate^2 t / 2), optionally relative to the slowest mode
        (the reference form keeps velocity ratios finite at large t)."""
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
    inv_norms = 1.0 / _eigen_norms(problem, eigs.values, rates, walls)
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


def _eigen_norms(problem: BoundedProblem, mu: np.ndarray, rates: np.ndarray,
                 walls=(None, None)):
    """Closed-form squared norms of the radial eigenfunctions with weight
    r^(n-1); valid for any frequency, no eigenvalue identities needed.
    walls are the planar annulus's (ca, cb), computed here when absent."""
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
        ca, cb = walls if walls[0] is not None else _wall_coefficients(problem, rates)
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
    """Heat kernel G(r, xi, t) (the series diverges pointwise at t <= 0)."""
    if t <= 0:
        raise ValueError("the series only converges for t > 0")
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
        """a(r, t) (up to the fixed positive normalization exp(shift))."""
        k, c = self._weights(t, reference=False)
        return self.ev.phi(r, k=k)[0] @ c

    def velocity(self, r, t: float):
        """q = -eps a_r / a, the q of velocity_and_derivative; only defined
        at and above the series floor."""
        if t < self.ev.t_floor:
            raise TruncationError(
                f"t={t:g} below the series floor {self.ev.t_floor:g}")
        out = self.velocity_and_derivative(r, t)[0]
        return float(out[0]) if np.isscalar(r) or np.asarray(r).ndim == 0 else out

    def velocity_and_derivative(self, r, t: float):
        """(q, dq/dr) from one eigenfunction evaluation: the second radial
        derivative comes for free from phi'' = -rate^2 phi - (n-1)/r phi',
        so a_rr needs only an extra weighted sum of the same phi matrix.
        Below the series floor the initial-data Taylor limit stands in
        (characteristic tracing must reach t = 0)."""
        rr = _radii(r)
        nm1 = self._nm1
        if t < self.ev.t_floor:
            q0, dq0, d2q0 = self.ev.problem.q0.with_derivatives(rr, 2)
            qdot = (-q0 * dq0 + self._half_eps *
                    (d2q0 + nm1 / rr * dq0 - nm1 / rr ** 2 * q0))
            q = q0 + t * qdot
            dq = dq0   # O(t) correction dropped; only used below the floor
            return q, dq
        k, c = self._weights(t, reference=True)
        phi0, phi1 = self.ev.phi(rr, k=k)
        a = phi0 @ c
        a_r = phi1 @ c
        if np.any(np.abs(a) < 1e-300):
            raise TruncationError("series denominator underflow")
        a_rr = -(phi0 @ (c * self.ev._lam2[:k])) - nm1 / rr * a_r
        q = -self._eps * a_r / a
        dq = -self._eps * a_rr / a + q * q / self._eps
        return q, dq

    def robin_residual(self, t: float) -> float:
        """Boundary-condition residual of the series, relative to sup|a|."""
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


def density_batch(state: BoundedHopfCole, radii, t: float) -> np.ndarray:
    """rho(r, t) at many radii, one backward trace for the whole batch.

    Each characteristic of p_t + (qp)_r = 0 is traced back to the parabolic
    boundary: to its foot on the initial data or, through an inflow wall,
    to the wall's density trace at the exit time.  The boundary value of p
    is amplified by exp(-int q_r ds) and divided by r^(n-1)."""
    from .freespace import _rk4_doubling  # shared adaptive RK pair

    pr = state.ev.problem
    radii = np.asarray(radii, dtype=float)
    a, b = pr.domain
    m = radii.size
    # backward characteristics can only leave through inflow walls
    exits = [w for w in pr.walls if w.inflow]
    lo = next((w.r for w in exits if w.sign < 0.0), -math.inf)
    hi = next((w.r for w in exits if w.sign > 0.0), math.inf)

    lo_clip, hi_clip = a + 1e-13 * (b - a), b - 1e-13 * (b - a)

    def rhs(sigma, y):
        s = t - sigma
        # np.clip's values at well under its per-call cost on small arrays
        beta = np.minimum(np.maximum(y[:m], lo_clip), hi_clip)
        q, dq = state.velocity_and_derivative(beta, max(s, 0.0))
        return -np.concatenate((q, dq))

    # state: feet and the accumulated d(log p)/ds integral
    y, s_exit = _rk4_doubling(rhs, np.concatenate([radii, np.zeros(m)]), 0.0, t,
                              walls=(lo, hi))
    feet = np.clip(y[:m], lo_clip, hi_clip)
    integral_qr = y[m:]   # = -int_{t0}^{t} q_r ds
    p_gamma = pr.p0_profile()(feet)
    for i in np.flatnonzero(~np.isnan(s_exit)):
        t0 = t - s_exit[i]
        w = next(w for w in exits if w.r == y[i])
        if w.p is None:
            raise DataInsufficiencyError(
                f"characteristic reached the {w.name} wall at t={t0:g} but no "
                "boundary density was supplied (inflow sign conditions violated)")
        p_gamma[i] = w.p(t0)
    return p_gamma * np.exp(integral_qr) / radii ** (pr.n - 1)


def radial_mass(state: BoundedHopfCole, t: float) -> float:
    """m(t) = integral of p = r^(n-1) rho over the domain width, on 16
    Gauss panels of 6 points."""
    pr = state.ev.problem
    a, b = pr.domain
    lo = a + 1e-4 * (b - a) if not pr.is_annulus else a + 1e-9 * (b - a)
    hi = b - 1e-9 * (b - a)
    nodes, wts = gauss_panels(np.linspace(lo, hi, 16 + 1), 6)
    dens = density_batch(state, nodes, t)
    total = float((dens * nodes ** (pr.n - 1)) @ wts)
    if not pr.is_annulus:
        # the skipped sliver [a, lo) carries p ~ p(lo) (r/lo)^(n-1)
        p_lo = float(dens[0] * nodes[0] ** (pr.n - 1))
        total += p_lo * lo / pr.n
    return total


def mass_flux_report(state: BoundedHopfCole, times):
    """Check dm/dt against the wall fluxes -[q p] by centred differences of
    half-width _FLUX_DT.

    Returns rows (t, dm_dt, flux, residual).  The identity is stated for
    the radial mass integral of p; the full mass is omega_{n-1} times it.
    """
    pr = state.ev.problem
    a, b = pr.domain
    rows = []
    for t in times:
        m_lo = radial_mass(state, t - _FLUX_DT)
        m_hi = radial_mass(state, t + _FLUX_DT)
        dm_dt = (m_hi - m_lo) / (2.0 * _FLUX_DT)
        # the flux -sign q p of each wall, read 1e-7 widths inside it and
        # summed outer wall first
        terms = []
        for w in reversed(pr.walls):
            r = w.r - w.sign * (1e-7 * (b - a))
            p = float(density_batch(state, np.array([r]), t)[0]) * r ** (pr.n - 1)
            terms.append(-w.sign * state.velocity(r, t) * p)
        flux = sum(terms[1:], terms[0])
        rows.append((t, dm_dt, flux, dm_dt - flux))
    return rows


def write_eigenvalue_csv(eigs: EigenvalueList, path):
    write_csv(path, ["index", "value", "residual"],
              zip(itertools.count(1), eigs.values.tolist(), eigs.residuals.tolist()))
