"""Bessel functions J0, J1, Y0, Y1 and transcendental eigenvalue solvers.

J0, J1, Y0 and Y1 come from scipy.special (Cephes double-precision
routines); this module adds the domain checks.  scipy.special is imported
on the first Bessel call, so runs that never evaluate one (the inviscid
solver, n = 1 free space) do not pay for loading it.  On top of the
evaluators sit the characteristic equations for the four radial Robin
eigenvalue problems (disc and spherical ball, planar and spherical annulus)
and a bracketed-bisection root scanner.
"""

from __future__ import annotations

import math
import sys
from dataclasses import KW_ONLY, dataclass
from enum import Enum

import numpy as np

__all__ = [
    "DomainCase",
    "EigenProblem",
    "EigenvalueList",
    "bessel_all",
    "bessel_j01",
    "characteristic_value",
    "find_eigenvalues",
]


class InsufficientScanRangeError(RuntimeError):
    """Root bracketing exhausted the configured scan range."""


# ---------------------------------------------------------------------------
# Bessel evaluators

# scipy.special's (j0, j1, y0, y1), bound on the first Bessel call
_kernels = None


def _bessel_kernels():
    global _kernels
    if _kernels is None:
        from scipy.special import j0, j1, y0, y1
        _kernels = (j0, j1, y0, y1)
    return _kernels


def _least(x):
    """min(x) in one pass without a temporary (+inf for an empty x).  A NaN
    propagates, so a failed bound test is rechecked elementwise: NaN
    passes the domain checks."""
    return np.minimum.reduce(x, axis=None, initial=math.inf)


def _positive(x, name):
    """x as a float array of at least one dimension; NaN passes."""
    x = np.asarray(x, dtype=float)
    if not _least(x) > 0.0 and (x <= 0.0).any():
        raise ValueError(f"{name} requires x > 0")
    return x.reshape(1) if x.ndim == 0 else x


def bessel_all(x):
    """All four of (J0, J1, Y0, Y1) at once; x must be positive."""
    x = _positive(x, "bessel_all")
    j0, j1, y0, y1 = _bessel_kernels()
    return j0(x), j1(x), y0(x), y1(x)


def bessel_j01(x):
    """(J0, J1) at once without the Y work; x must be positive.  The values
    are the J0, J1 of bessel_all on the same x."""
    x = _positive(x, "bessel_j01")
    j0, j1 = _bessel_kernels()[:2]
    return j0(x), j1(x)


# ---------------------------------------------------------------------------
# eigenvalue problems


class DomainCase(Enum):
    BALL_2D = "ball2d"
    BALL_3D = "ball3d"
    ANNULUS_2D = "annulus2d"
    ANNULUS_3D = "annulus3d"

    @property
    def dimension(self) -> int:
        return 2 if self in (DomainCase.BALL_2D, DomainCase.ANNULUS_2D) else 3

    @property
    def is_annulus(self) -> bool:
        return self in (DomainCase.ANNULUS_2D, DomainCase.ANNULUS_3D)


@dataclass(frozen=True)
class EigenProblem:
    """One of the four radial Robin eigenvalue problems.

    Every domain has its outer wall at r_outer with wall velocity q_outer;
    an annulus also has an inner wall at r_inner with q_inner, and a ball
    is the domain with r_inner unset.  The geometry and Robin data go by
    keyword, and the Robin data enters through q/epsilon only.
    """

    case: DomainCase
    epsilon: float
    _: KW_ONLY
    r_inner: float | None = None
    r_outer: float
    q_inner: float = 0.0
    q_outer: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if not 0.0 < self.r_outer < math.inf:
            raise ValueError("r_outer must be positive and finite")
        if not self.case.is_annulus:
            self._no_inner_wall(r_inner=self.r_inner is not None, q_inner=self.q_inner != 0.0)
        elif self.r_inner is None or not 0.0 < self.r_inner < self.r_outer:
            raise ValueError(f"case {self.case.value} needs 0 < r_inner < r_outer")
        if not (math.isfinite(self.q_inner) and math.isfinite(self.q_outer)):
            raise ValueError("boundary coefficients must be finite")

    def _no_inner_wall(self, **given):
        """ValueError naming the first inner-wall key given to a ball."""
        key = next((k for k, v in given.items() if v), None)
        if key is not None:
            raise ValueError(f"case {self.case.value} has no inner wall: drop {key}")

    # convenience quantities -------------------------------------------------

    @property
    def robin_kr(self) -> float:
        """kR = (q_outer / epsilon) * r_outer of the ball equations."""
        return self.q_outer / self.epsilon * self.r_outer

    @property
    def b1(self) -> float:
        """-(q1/eps) R1 + 1 for the spherical annulus."""
        return -(self.q_inner / self.epsilon) * self.r_inner + 1.0

    @property
    def b2(self) -> float:
        """(q2/eps) R2 - 1 for the spherical annulus."""
        return (self.q_outer / self.epsilon) * self.r_outer - 1.0

    @property
    def has_zero_mode(self) -> bool:
        """Constants are eigenfunctions exactly when all boundary
        velocities vanish (pure Neumann data)."""
        return self.q_inner == 0.0 and self.q_outer == 0.0

    def _wall_form(self):
        """(C - A1, C + A2, determinant, a bound on its rounding) of the wall
        form C (u2 - u1)^2 - A1 u1^2 + A2 u2^2, with A_j = (q_j/eps) R_j^(n-1)
        and C = 1 / int_R1^R2 r^(1-n) dr; a ball has no inner wall: C = A1 = 0."""
        n1 = self.case.dimension - 1
        r1, r2 = self.r_inner, self.r_outer
        c = a1 = 0.0
        if r1 is not None:
            c = 1.0 / math.log(r2 / r1) if n1 == 1 else r1 * r2 / (r2 - r1)
            a1 = self.q_inner / self.epsilon * r1 ** n1
        a2 = self.q_outer / self.epsilon * r2 ** n1
        det = c * (a2 - a1) - a1 * a2
        tol = 16.0 * sys.float_info.epsilon * (c * (abs(a1) + abs(a2)) + abs(a1 * a2))
        return c - a1, c + a2, det, tol

    @property
    def has_growing_mode(self) -> bool:
        """Whether the Robin data admit a growing mode u'' + (n-1)/r u' =
        kappa^2 u, kappa > 0, which the positive-root series misses: the
        characteristic function continued to mu = i kappa changes sign.
        By the Rayleigh quotient that is when the wall form (_wall_form)
        can be negative: for a ball, when q_outer < 0."""
        d1, d2, det, _ = self._wall_form()
        # the form is positive semidefinite iff its diagonal and determinant are >= 0
        return d1 < 0.0 or d2 < 0.0 or det < 0.0

    @property
    def has_robin_zero_mode(self) -> bool:
        """Whether Robin data that are not pure Neumann have eigenvalue 0:
        the wall form is singular to rounding with a positive diagonal.
        Its null vector is the eigenfunction A + B ln r (planar) or
        A + B/r (spherical), which the positive-root series misses.  A
        ball's form is singular only for Neumann data."""
        if self.has_zero_mode:
            return False
        d1, d2, det, tol = self._wall_form()
        return d1 > 0.0 and d2 > 0.0 and abs(det) <= tol


@dataclass
class EigenvalueList:
    """Strictly increasing positive roots with characteristic residuals."""

    problem: EigenProblem
    values: np.ndarray
    residuals: np.ndarray
    scan_step: float

    def __post_init__(self):
        if np.any(np.diff(self.values) <= 0) or np.any(self.values <= 0):
            raise ValueError("eigenvalues must be strictly increasing and positive")


def characteristic_value(problem: EigenProblem, mu):
    """Left-hand side of the case's transcendental eigenvalue equation.

    Ball2D   : mu J1(mu) - kR J0(mu),            kR = (q_B/eps) R
    Ball3D   : mu cot(mu) + kR - 1               (poles of cot are passed
               through as the huge finite values the division produces)
    Annulus2D: Robin determinant of the J0/Y0 pair at the two radii
    Annulus3D: (b1 b2 - R1 R2 l^2) sin(l d) + l (R1 b2 + R2 b1) cos(l d)
    """
    mu_arr = np.asarray(mu, dtype=float)
    scalar = mu_arr.ndim == 0
    m = np.atleast_1d(mu_arr)
    if np.any(m <= 0):
        raise ValueError("mu must be positive")
    case = problem.case
    if case == DomainCase.BALL_2D:
        j0, j1 = bessel_j01(m)
        out = m * j1 - problem.robin_kr * j0
    elif case == DomainCase.BALL_3D:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = m * np.cos(m) / np.sin(m) + problem.robin_kr - 1.0
    elif case == DomainCase.ANNULUS_2D:
        out = _annulus2d_det(problem, m)
    else:
        d = problem.r_outer - problem.r_inner
        b1, b2 = problem.b1, problem.b2
        out = (b1 * b2 - problem.r_inner * problem.r_outer * m * m) * np.sin(m * d) \
            + m * (problem.r_inner * b2 + problem.r_outer * b1) * np.cos(m * d)
    return float(out[0]) if scalar else out


def _annulus2d_det(problem: EigenProblem, lam):
    a1 = problem.q_inner / problem.epsilon
    a2 = problem.q_outer / problem.epsilon
    r1, r2 = problem.r_inner, problem.r_outer
    j0, j1, y0, y1 = bessel_all(lam * r1)
    d1 = a1 * j0 - lam * j1
    e1 = a1 * y0 - lam * y1
    j0, j1, y0, y1 = bessel_all(lam * r2)
    d2 = a2 * j0 - lam * j1
    e2 = a2 * y0 - lam * y1
    return d1 * e2 - d2 * e1


def _scan_function(problem: EigenProblem):
    """Function whose sign changes bracket the eigenvalues (pole-free)."""
    if problem.case == DomainCase.BALL_3D:
        kr1 = problem.robin_kr - 1.0

        def g(m):
            return m * np.cos(m) + kr1 * np.sin(m)

        return g
    return lambda m: characteristic_value(problem, m)


def default_scan_step(problem: EigenProblem) -> float:
    """Scan resolution from the interlacing spacing of the trig/Bessel
    zeros the roots sit between."""
    if problem.case.is_annulus:
        d = problem.r_outer - problem.r_inner
        spacing = min(math.pi / d, math.pi / (problem.r_inner + problem.r_outer))
    else:
        spacing = math.pi
    return spacing / 16.0


def find_eigenvalues(problem: EigenProblem, count: int,
                     scan_step: float | None = None) -> EigenvalueList:
    """First `count` positive roots of the characteristic equation, found
    as sign changes of _scan_function on a grid of scan_step up to
    2 (count + 8) pi / width + 16 steps, width the annulus width (1 for a
    ball); InsufficientScanRangeError if fewer lie below that limit."""
    if count < 1:
        raise ValueError("count must be >= 1")
    step = default_scan_step(problem) if scan_step is None else float(scan_step)
    g = _scan_function(problem)
    width = problem.r_outer - problem.r_inner if problem.case.is_annulus else 1.0
    scan_limit = (count + 8) * math.pi / width * 2.0 + 16.0 * step

    lo_all, hi_all = [], []
    left = step * 1e-6
    gl = g(np.array([left]))[0]
    x = left
    while len(lo_all) < count:
        if x >= scan_limit:
            raise InsufficientScanRangeError(
                f"found {len(lo_all)} of {count} roots below scan limit {scan_limit:g}")
        n_chunk = 2048
        grid = x + step * np.arange(1, n_chunk + 1)
        grid = grid[grid <= scan_limit + step]
        vals = g(grid)
        prev = np.concatenate([[gl], vals[:-1]])
        flips = np.nonzero(np.sign(prev) * np.sign(vals) < 0)[0]
        for i in flips:
            lo_all.append(grid[i] - step)
            hi_all.append(grid[i])
            if len(lo_all) >= count:
                break
        gl = vals[-1]
        x = grid[-1]

    lo = np.array(lo_all[:count])
    hi = np.array(hi_all[:count])
    roots = _bisect_batch(g, lo, hi)
    resid = characteristic_value(problem, roots)
    return EigenvalueList(problem, roots, resid, step)


def _bisect_batch(g, lo, hi):
    flo = g(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.all((hi - lo) <= 4.0 * np.spacing(mid)):
            break
        fm = g(mid)
        take_left = np.sign(flo) * np.sign(fm) < 0
        hi = np.where(take_left, mid, hi)
        lo = np.where(take_left, lo, mid)
        flo = np.where(take_left, flo, fm)
        done = np.sign(fm) == 0
        lo = np.where(done, mid, lo)
        hi = np.where(done, mid, hi)
    return 0.5 * (lo + hi)
