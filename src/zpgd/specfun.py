"""Bessel functions J0, J1, Y0, Y1 and transcendental eigenvalue solvers.

The evaluators are self-contained double-precision routines:

* ascending power series for x <= 8 (the Y series carry the usual
  Euler-Mascheroni logarithmic term),
* Miller backward recurrence plus Neumann series for 8 < x < 20
  (plain Hankel asymptotics bottom out near 6e-12 at x ~ 12, too loose),
* Hankel asymptotic expansions for x >= 20.

On top of them sit the characteristic equations for the four radial
Robin eigenvalue problems (disc and spherical ball, planar and spherical
annulus) and a bracketed-bisection root scanner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "DomainCase",
    "EigenProblem",
    "EigenvalueList",
    "bessel",
    "bessel_all",
    "bessel_j01",
    "characteristic_value",
    "find_eigenvalues",
]

_EULER_GAMMA = 0.57721566490153286060651209008240243

_SMALL_CUT = 8.0
_LARGE_CUT = 20.0
_MILLER_START = 80  # start order for backward recurrence on (8, 20)


class InsufficientScanRangeError(RuntimeError):
    """Root bracketing exhausted the configured scan range."""


# ---------------------------------------------------------------------------
# ascending series, x <= 8


def _series_jy(x, with_y=True):
    """J0, J1, Y0, Y1 by ascending series; accurate for 0 < x <= 8.
    With with_y=False the Y sums are skipped and Y0, Y1 come back as None."""
    mz = -(0.25 * x * x)         # -z, z = x^2 / 4
    u = np.ones_like(x)          # (-1)^k z^k / (k!)^2, sign folded in below
    v = np.full_like(x, 0.5)     # (-1)^k z^k / (k!(k+1)!) / 2, so J1/x = sum v
    j0 = np.ones_like(x)
    j1x = np.full_like(x, 0.5)   # J1(x)/x
    s0 = np.zeros_like(x)        # sum (-1)^{k+1} H_k z^k/(k!)^2
    s1 = np.full_like(x, 0.5)    # sum (H_k + H_{k+1}) v_k  (k=0 term: 1 * 1/2)
    hk, hk1 = 0.0, 1.0           # harmonic numbers H_k, H_{k+1}
    for k in range(1, 48):
        # in place; each operand and its order fix the bits of every CSV
        u *= mz
        u /= k * k
        v *= mz
        v /= k * (k + 1.0)
        j0 += u
        j1x += v
        if with_y:
            hk += 1.0 / k
            hk1 += 1.0 / (k + 1.0)
            s0 -= hk * u          # -(-1)^k H_k z^k/(k!)^2 = (-1)^{k+1} H_k ...
            s1 += (hk + hk1) * v
    if not with_y:
        return j0, x * j1x, None, None
    with np.errstate(divide="ignore", invalid="ignore"):
        lg = np.log(0.5 * x) + _EULER_GAMMA
        y0 = (2.0 / math.pi) * (lg * j0 + s0)
        y1 = (2.0 / math.pi) * ((lg - _EULER_GAMMA) * (x * j1x) - 1.0 / x) \
            - (x / math.pi) * (s1 - 2.0 * _EULER_GAMMA * j1x)
    return j0, x * j1x, y0, y1


# ---------------------------------------------------------------------------
# Miller backward recurrence + Neumann series, 8 < x < 20


def _miller_jy(x, with_y=True):
    """J0, J1, Y0, Y1 on a batch with 8 < x < 20 (Y None without with_y)."""
    n = x.shape[0]
    m_top = _MILLER_START
    table = np.zeros((m_top + 2, n))
    table[m_top] = 1.0
    for m in range(m_top, 0, -1):
        row = table[m - 1]          # (2m / x) J_m - J_{m+1}, filled in place
        np.divide(2.0 * m, x, out=row)
        row *= table[m]
        row -= table[m + 1]
    # row by row, so a point's bits do not depend on the batch it sits in
    # (numpy sums a one-column axis-0 reduction pairwise)
    even = np.zeros(n)
    for row in table[2:m_top:2]:
        even += row
    norm = table[0] + 2.0 * even
    table /= norm
    j0, j1 = table[0], table[1]
    if not with_y:
        return j0, j1, None, None
    lg = np.log(0.5 * x) + _EULER_GAMMA
    acc0 = np.zeros(n)
    acc1 = np.zeros(n)
    for k in range(1, (m_top - 2) // 2):
        step = np.add if k % 2 else np.subtract   # signs +, -, ...; q - t == q + (-t)
        step(acc0, table[2 * k] / k, out=acc0)
        step(acc1, (table[2 * k - 1] - table[2 * k + 1]) / k, out=acc1)
    y0 = (2.0 / math.pi) * (lg * j0 + 2.0 * acc0)
    # Y1 = -d/dx Y0, using J0' = -J1 and J_{2k}' = (J_{2k-1} - J_{2k+1})/2
    y1 = -(2.0 / math.pi) * (j0 / x - lg * j1) - (2.0 / math.pi) * acc1
    return j0, j1, y0, y1


# ---------------------------------------------------------------------------
# Hankel asymptotic expansion, x >= 20


def _hankel_all(x, with_y=True):
    """J0, J1, Y0, Y1 for x >= 20 (Y None without with_y).  Both orders
    share one loop and one denominator (m * 8.0) * x; the alternating
    signs are applied by adding or subtracting t, the same bits as adding
    sign * t since q + (-1.0 * t) == q - t."""
    p0, p1 = np.ones_like(x), np.ones_like(x)
    q0, q1 = np.zeros_like(x), np.zeros_like(x)
    t0, t1 = np.ones_like(x), np.ones_like(x)
    den = np.empty_like(x)
    for m in range(1, 31):
        np.multiply(m * 8.0, x, out=den)
        c = (2.0 * m - 1.0) ** 2
        t0 *= 0.0 - c            # mu - (2m - 1)^2 with mu = 4 order^2
        t0 /= den
        t1 *= 4.0 - c
        t1 /= den
        # odd m: q gets +t, -t, ...; even m: p gets -t, +t, ...
        acc0, acc1 = (q0, q1) if m % 2 else (p0, p1)
        step = np.add if m % 4 in (0, 1) else np.subtract
        step(acc0, t0, out=acc0)
        step(acc1, t1, out=acc1)
    del t0, t1, den
    amp = np.sqrt(2.0 / (math.pi * x))
    out = []
    for p, q, phase in ((p0, q0, math.pi / 4.0), (p1, q1, 3.0 * math.pi / 4.0)):
        omega = x - phase
        c, s = np.cos(omega), np.sin(omega)
        out += [amp * (p * c - q * s), amp * (p * s + q * c) if with_y else None]
    j0, y0, j1, y1 = out
    return j0, j1, y0, y1


# ---------------------------------------------------------------------------
# public evaluators


def _eval_all(x, with_y=True):
    """(J0, J1, Y0, Y1) for positive x, array in/array out; with_y=False
    returns (J0, J1) alone, skipping every Y accumulation (the J values are
    the same bits either way)."""
    out = tuple(np.empty_like(x) for _ in range(4 if with_y else 2))
    for mask, regime in ((x <= _SMALL_CUT, _series_jy),
                         ((x > _SMALL_CUT) & (x < _LARGE_CUT), _miller_jy),
                         (x >= _LARGE_CUT, _hankel_all)):
        if mask.any():
            for dest, part in zip(out, regime(x[mask], with_y)):
                dest[mask] = part
    return out


def bessel(kind: str, order: int, x):
    """Bessel function of the given kind ('J' or 'Y') and order (0 or 1);
    J takes x >= 0, Y needs x > 0."""
    if kind not in ("J", "Y"):
        raise ValueError("kind must be 'J' or 'Y'")
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    x = np.asarray(x, dtype=float)
    xf = np.atleast_1d(x)
    if kind == "Y" and np.any(xf <= 0.0):
        raise ValueError("Y requires x > 0")
    if np.any(xf < 0.0):
        raise ValueError("J requires x >= 0")
    out = _eval_all(np.maximum(xf, 1e-308), with_y=kind == "Y")[2 * (kind == "Y") + order]
    if kind == "J":
        out = np.where(xf == 0.0, 1.0 - order, out)   # J0(0) = 1, J1(0) = 0
    return float(out[0]) if x.ndim == 0 else out


def _positive(x, name):
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError(f"{name} requires x > 0")
    return np.atleast_1d(x)


def bessel_all(x):
    """All four of (J0, J1, Y0, Y1) at once; x must be positive."""
    return _eval_all(_positive(x, "bessel_all"))


def bessel_j01(x):
    """(J0, J1) at once without the Y work; x must be positive.  The values
    are bit-identical to the J0, J1 of bessel_all on the same x."""
    return _eval_all(_positive(x, "bessel_j01"), with_y=False)


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

    Ball cases take (radius, epsilon, q_boundary); annulus cases take
    (r_inner, r_outer, epsilon, q_inner, q_outer).  The Robin data enters
    through q/epsilon only.
    """

    case: DomainCase
    epsilon: float
    radius: float | None = None
    r_inner: float | None = None
    r_outer: float | None = None
    q_boundary: float = 0.0
    q_inner: float = 0.0
    q_outer: float = 0.0

    def __post_init__(self):
        if self.epsilon <= 0.0 or not math.isfinite(self.epsilon):
            raise ValueError("epsilon must be positive and finite")
        if self.case.is_annulus:
            if self.r_inner is None or self.r_outer is None:
                raise ValueError("annulus cases need r_inner and r_outer")
            if not (0.0 < self.r_inner < self.r_outer):
                raise ValueError("need 0 < r_inner < r_outer")
            for v in (self.q_inner, self.q_outer):
                if not math.isfinite(v):
                    raise ValueError("boundary coefficients must be finite")
        else:
            if self.radius is None or self.radius <= 0.0:
                raise ValueError("ball cases need radius > 0")
            if not math.isfinite(self.q_boundary):
                raise ValueError("boundary coefficients must be finite")

    # convenience quantities -------------------------------------------------

    @property
    def robin_kr(self) -> float:
        """(q_B / epsilon) * R for the ball cases."""
        return self.q_boundary / self.epsilon * self.radius

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
        if self.case.is_annulus:
            return self.q_inner == 0.0 and self.q_outer == 0.0
        return self.q_boundary == 0.0


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
        # cot poles: pass through an infinite marker rather than a value
        out = np.where(np.sin(m) == 0.0, np.inf * np.sign(np.cos(m)), out)
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
                     scan_step: float | None = None,
                     scan_limit: float | None = None) -> EigenvalueList:
    """First `count` positive roots of the characteristic equation."""
    if count < 1:
        raise ValueError("count must be >= 1")
    step = default_scan_step(problem) if scan_step is None else float(scan_step)
    g = _scan_function(problem)
    if scan_limit is None:
        if problem.case.is_annulus:
            d = problem.r_outer - problem.r_inner
            scan_limit = (count + 8) * math.pi / d * 2.0 + 16.0 * step
        else:
            scan_limit = (count + 8) * math.pi * 2.0 + 16.0 * step

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
        if grid.size == 0:
            raise InsufficientScanRangeError(
                f"found {len(lo_all)} of {count} roots below scan limit {scan_limit:g}")
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


def _bisect_batch(g, lo, hi, iters: int = 200):
    flo = g(lo)
    for _ in range(iters):
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
