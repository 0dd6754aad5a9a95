"""Free-space adhesion solution in R^n via the Gaussian-ratio formula.

The velocity is the ratio of two Gaussian-weighted integrals of the
initial potential; the density rides along backward characteristics of
that velocity field.  For radial potentials phi0 = int_0^|x| q0 the n-dim
integrals collapse to one radial integral with exact angular factors:

    q(r,t) = [int s^{n-1} q0(s) G1(a) e^{-A}] / [int s^{n-1} G0(a) e^{-A}]

with A(s) = ((r-s)^2/(2t) + int_0^s q0)/eps, a = r s/(eps t), and

    n=1: G0 = 1 + e^{-2a},        G1 = 1 - e^{-2a}        (fold of the line)
    n=2: G0 = e^{-a} I0(a),       G1 = e^{-a} I1(a)
    n=3: G0 = (1 - e^{-2a})/a,    G1 = (a(1+e^{-2a}) - (1-e^{-2a}))/a^2

Since 0 <= G1 <= G0 and all weights are positive, the quadrature inherits
the exact bound |q| <= sup|q0| up to rounding.  Exponents are evaluated
relative to their sampled minimum (log-sum-exp shift) so small eps is
safe.  Potentials given as callables take one tensor trapezoid rule in
n = 1, 2, 3, refined until two levels agree or a typed error is raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profiles import ScalarProfile
from .radial_core import gauss_panels, leggauss

__all__ = [
    "FreespaceProblem",
    "surface_measure",
    "velocity",
    "radial_velocity",
    "trace_characteristic",
    "density",
    "total_mass",
]


class ConfinementError(RuntimeError):
    """The exponent never confines the integrand: unbounded-gradient
    potential past its caustic time (or genuinely divergent data)."""


class TimeDomainError(ValueError):
    """A time outside the domain of the solution: NaN, infinite, negative,
    or zero where the formula needs t > 0."""


def _check_times(t, positive=False) -> np.ndarray:
    """t as a float array after checking every entry: finite and >= 0, or
    > 0 with positive; TimeDomainError otherwise."""
    times = np.asarray(t, dtype=float)
    ok = (times > 0.0) if positive else (times >= 0.0)
    if not (ok & (times < math.inf)).all():
        raise TimeDomainError(
            f"t must be finite and {'positive' if positive else 'non-negative'}, got {t!r}")
    return times


class QuadratureBudgetError(RuntimeError):
    """Adaptive quadrature ran out of depth or splits before a panel met
    its tolerance, or the next trapezoid level would pass its point budget."""


class CharacteristicError(RuntimeError):
    """A backward characteristic could not be traced: the step size
    underflowed or the Jacobian of x -> X0 came out non-positive."""


class MassConcentrationError(RuntimeError):
    """rho0 carries mass but the density is zero at every mass-quadrature
    node: the flow has gathered all of it into a point mass (a delta at the
    origin) that no panel rule sees."""


def surface_measure(n: int) -> float:
    """|S^{n-1}|: 2, 2*pi, 4*pi for n = 1, 2, 3."""
    return {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[n]


@dataclass
class FreespaceProblem:
    """Initial data for the free-space adhesion flow.

    Radial problems give q0 (phi0 = int_0^|x| q0) and a radial rho0
    profile (a callable rho0 is rejected).  General problems give callables
    phi0, grad_phi0 and rho0, each called at one point of R^n (a scalar for
    n = 1, else a length-n array).  rho0_support bounds the support radius
    of rho0: by default the last breakpoint of a profile rho0, else 1.
    """

    n: int
    epsilon: float
    q0: ScalarProfile | None = None
    rho0: object = None              # ScalarProfile (radial) or callable
    phi0: object = None              # callable, general case
    grad_phi0: object = None         # callable, general case
    rho0_support: float | None = None

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ValueError("n must be 1, 2 or 3")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.q0 is None and self.phi0 is None:
            raise ValueError("give either a radial q0 or a potential phi0")
        if self.q0 is not None and (self.phi0 is not None or self.grad_phi0 is not None):
            raise ValueError("give either a radial q0 or a potential phi0, not both")
        if self.phi0 is not None and self.grad_phi0 is None:
            raise ValueError("a potential phi0 needs its gradient grad_phi0")
        if self.q0 is not None and not isinstance(self.q0, ScalarProfile):
            raise TypeError("q0 must be a ScalarProfile")
        if self.phi0 is not None and not (callable(self.phi0) and callable(self.grad_phi0)):
            raise TypeError("a potential phi0 and its gradient grad_phi0 must be callable")
        if self.rho0 is not None and not (isinstance(self.rho0, ScalarProfile) if self.is_radial
                                          else callable(self.rho0)):
            raise TypeError("a radial q0 needs a ScalarProfile rho0, a potential a callable rho0")
        if self.rho0_support is None:
            self.rho0_support = (float(self.rho0.breakpoints[-1])
                                 if isinstance(self.rho0, ScalarProfile) else 1.0)

    @property
    def is_radial(self) -> bool:
        return self.q0 is not None


# ---------------------------------------------------------------------------
# quadrature helpers

def _adaptive(fn, edges, scale_fn):
    """Adaptive panel integration of a vector integrand fn(s)->(k,m), one
    refinement level at a time.

    Every level makes a single fn call: the 15-point Gauss rule on both
    halves of every pending panel.  scale_fn maps the composite rough
    estimate to per-component tolerance scales (a single-panel estimate
    can miss a narrow peak entirely and drive runaway refinement, so the
    rough pass is composite).  A panel is accepted once its halves agree
    with it to _ADAPTIVE_RTOL times those scales; one that still needs
    splitting at depth _ADAPTIVE_MAX_DEPTH, or beyond _ADAPTIVE_BUDGET
    splits in all, raises QuadratureBudgetError.  The accepted panels are
    summed in descending order of their left edge, the order of a
    depth-first pass that refines right halves first.
    """
    x, w = leggauss(15)

    def rule(a, b):
        # the rule on every panel [a_i, b_i], shape (panels, k); the stacked
        # (k, 15) @ w products are the ones a single panel makes
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        vals = fn((mid[:, None] + half[:, None] * x).ravel())
        return half[:, None] * (vals.reshape(-1, a.size, x.size).transpose(1, 0, 2) @ w)

    a, b = edges[:-1], edges[1:]
    coarse = rule(a, b)
    tol = _ADAPTIVE_RTOL * np.asarray(scale_fn(np.abs(np.sum(coarse, axis=0))))
    lefts, sums = [], []
    splits = 0
    for depth in range(_ADAPTIVE_MAX_DEPTH + 1):
        m = 0.5 * (a + b)
        halves = rule(np.concatenate([a, m]), np.concatenate([m, b]))
        left, right = halves[:a.size], halves[a.size:]
        fine = left + right
        ok = np.all(np.abs(fine - coarse) <= tol, axis=1)
        lefts.append(a[ok])
        sums.append(fine[ok])
        bad = np.flatnonzero(~ok)
        if not bad.size:
            break
        if depth >= _ADAPTIVE_MAX_DEPTH or splits + bad.size > _ADAPTIVE_BUDGET:
            i = bad[np.argmax(a[bad])]
            raise QuadratureBudgetError(
                f"panel [{a[i]:g}, {b[i]:g}] unconverged at depth {depth} after {splits} "
                f"splits (max_depth {_ADAPTIVE_MAX_DEPTH}, budget {_ADAPTIVE_BUDGET})")
        splits += bad.size
        a, b = np.concatenate([a[bad], m[bad]]), np.concatenate([m[bad], b[bad]])
        coarse = np.concatenate([left[bad], right[bad]])
    order = np.argsort(np.concatenate(lefts))[::-1]
    accepted = np.concatenate([np.zeros((1, coarse.shape[1])), np.concatenate(sums)[order]])
    return np.cumsum(accepted, axis=0)[-1]   # adds in sequence, as the depth-first pass did


def _angular_factors(n, alpha, derivs=False):
    """Angular factors (G0, G1) and, when asked, their alpha-derivatives.
    All are bounded with 0 <= G1 <= G0."""
    if n == 1:
        e = np.exp(-2.0 * alpha)
        if not derivs:
            return 1.0 + e, 1.0 - e
        return 1.0 + e, 1.0 - e, -2.0 * e, 2.0 * e
    if n == 2:
        from scipy.special import i0e, i1e
        g0 = i0e(alpha)
        g1 = i1e(alpha)
        if not derivs:
            return g0, g1
        small = alpha < 1e-5
        a = np.where(small, 1.0, alpha)
        dg0 = g1 - g0
        dg1 = np.where(small, 0.5 - alpha + (15.0 / 16.0) * alpha ** 2,
                       g0 - g1 * (1.0 + 1.0 / a))
        return g0, g1, dg0, dg1
    small = alpha < 1e-4
    a = np.where(small, 1.0, alpha)
    # floored like the batch weights: below e^_EXP_FLOOR, e is lost to
    # rounding in every factor, and exp skips its slow underflow path
    e = np.exp(np.maximum(-2.0 * a, _EXP_FLOOR))
    g0 = np.where(small, 2.0 - 2.0 * alpha + (4.0 / 3.0) * alpha ** 2,
                  (1.0 - e) / a)
    g1 = np.where(small, (2.0 / 3.0) * alpha * (1.0 - alpha),
                  (a * (1.0 + e) - (1.0 - e)) / (a * a))
    if not derivs:
        return g0, g1
    dg0 = np.where(small, -2.0 + (8.0 / 3.0) * alpha,
                   (2.0 * e * a - (1.0 - e)) / (a * a))
    dg1 = np.where(small, 2.0 / 3.0 - (4.0 / 3.0) * alpha,
                   (-a - 3.0 * a * e - 2.0 * a * a * e + 2.0 - 2.0 * e) / (a ** 3))
    return g0, g1, dg0, dg1


# ---------------------------------------------------------------------------
# radial velocity


def _with_points(grid, pts):
    """np.unique(np.concatenate([grid, pts])) for a strictly increasing grid
    and sorted points, without the sort: each point not yet present is
    inserted in its place, and a grid that gains none is returned as is."""
    pieces, prev, last = [], 0, None
    for i, p in zip(grid.searchsorted(pts).tolist(), pts):
        if p == last or (i < grid.size and grid[i] == p):
            continue
        pieces += [grid[prev:i], (p,)]
        prev, last = i, p
    if not pieces:
        return grid
    pieces.append(grid[prev:])
    return np.concatenate(pieces)


def _radial_window(problem: FreespaceProblem, r, t):
    """Confining half-width for the s-integral (provable for Lipschitz
    radial data: the well sits within t*sup|q0| of r and the Gaussian tail
    adds sqrt(2 t eps ln 1e18))."""
    L0 = problem.q0.sup_abs()
    cut = 2.0 * t * problem.epsilon * math.log(1e18)
    return t * L0 + math.sqrt(cut) * 1.05 + 1e-9


def _radial_integrand(problem, r, t, shift):
    eps, n = problem.epsilon, problem.n
    q0 = problem.q0

    def fn(s):
        s = np.maximum(s, 0.0)
        q0s, c0 = q0._value_and_cumulative(s)
        a_exp = ((r - s) ** 2 / (2.0 * t) + c0) / eps
        w = np.exp(np.minimum(shift - a_exp, 700.0))
        alpha = r * s / (eps * t)
        g0, g1 = _angular_factors(n, alpha)
        sw = s ** (n - 1) * w
        return np.stack([sw * g0, sw * g1 * q0s])

    return fn


def radial_velocity(problem: FreespaceProblem, r: float, t: float) -> float:
    """Radial velocity component q(r, t) by adaptive quadrature."""
    _check_times(t, positive=True)
    if not problem.is_radial:
        raise ValueError("radial_velocity needs a radial problem")
    if r == 0.0:
        return 0.0
    if t < 1e-12:
        return float(problem.q0(r))
    eps = problem.epsilon
    w = _radial_window(problem, r, t)
    lo, hi = max(0.0, r - w), r + w
    kinks = [k for k in problem.q0.breakpoints if lo < k < hi]
    scan = _with_points(np.linspace(lo, hi, 2049), sorted([*kinks, r]))
    a_scan = ((r - scan) ** 2 / (2.0 * t) + problem.q0.cumulative(scan)) / eps
    shift = float(a_scan.min())
    # trim to the region that matters plus a pad
    live = scan[a_scan <= shift + math.log(1e19)]
    lo = max(0.0, live.min() - (scan[1] - scan[0]))
    hi = live.max() + (scan[1] - scan[0])
    width_cap = max((hi - lo) / 512.0, min(math.sqrt(2.0 * eps * t), (hi - lo) / 12.0))
    edges = _with_points(np.linspace(lo, hi, max(13, int(math.ceil((hi - lo) / width_cap)) + 1)),
                         [k for k in kinks if lo < k < hi])
    L0 = max(problem.q0.sup_abs(), 1e-300)
    fn = _radial_integrand(problem, r, t, shift)
    den, num = _adaptive(fn, edges, scale_fn=lambda rough: [rough[0], rough[0] * L0])
    if den <= 0.0 or not math.isfinite(den):
        raise ConfinementError("velocity quadrature denominator degenerate")
    return float(num / den)


_ADAPTIVE_RTOL = 1e-11  # per-panel tolerance of _adaptive, relative to scale_fn
_ADAPTIVE_MAX_DEPTH = 16  # refinement levels of _adaptive below the first
_ADAPTIVE_BUDGET = 24000  # panel splits of one _adaptive call
_MAX_PANELS = 224     # panels of one batch grid
_EXP_FLOOR = -600.0   # e^-600 ~ 3e-261: far below rounding, still a normal number
_BLOCK_ROWS = 64      # sorted radii per row block of the batch kernel
_PANEL_POINTS = 8     # Gauss points per panel of the batch grid
_RK_RTOL = 1e-8       # relative step-error tolerance of _rk4_doubling, in every trace


def _radial_velocity_batch(problem: FreespaceProblem, r: np.ndarray, t: float):
    """Vectorized radial velocity q at many radii, one time (fixed composite
    rule per point; intended for smooth profiles inside the tracer).

    Returns (q, dq/dr); dq/dr comes from differentiating the quadrature
    (same nodes), which feeds the variational equation for the
    characteristic Jacobian without noise-amplifying differencing.  The
    radii come in non-decreasing order, as _trace_radial_batch keeps them
    (backward characteristics never cross), and a decreasing pair raises
    CharacteristicError.  One pass splits them into blocks that spread at
    most 0.7 * 224 Gaussian well widths sqrt(2 eps t), each on its own
    grid.  Only for t < 1e-12 is the result q0(r), the exact t -> 0 limit.
    """
    r = np.asarray(r, dtype=float)
    if (r[1:] < r[:-1]).any():
        raise CharacteristicError("radii out of order: characteristics crossed in a trace")
    if t < 1e-12:
        q, dq = problem.q0.with_derivatives(np.abs(r), 1)
        return np.where(r > 0, q, 0.0), dq
    reach = 0.7 * _MAX_PANELS * math.sqrt(2.0 * problem.epsilon * t)
    q, dq = np.empty_like(r), np.empty_like(r)
    start = 0
    while start < r.size:
        stop = int(np.searchsorted(r, r[start] + reach, side="right"))
        q[start:stop], dq[start:stop] = _velocity_block(problem, r[start:stop], t)
        start = stop
    return q, dq


def _velocity_block(problem, r, t):
    """(q, dq/dr) at sorted radii r on one shared grid of _PANEL_POINTS-point
    Gauss panels.

    All radii share one absolute node grid over [r[0] - w, r[-1] + w], w
    the _radial_window, so panel edges sit exactly on the profile kinks.
    The radii are summed in row blocks of _BLOCK_ROWS, each over only the
    nodes in [block start - w, block end + w]: every row's exponent minimum
    lies within t sup|q0| of its radius, so each row keeps its shift and
    its kept weights, and the nodes dropped lie outside its window.
    """
    eps, n = problem.epsilon, problem.n
    q0 = problem.q0
    r_lo, r_hi = float(r[0]), float(r[-1])
    w = _radial_window(problem, r_hi, t)
    lo = max(0.0, r_lo - w)
    hi = r_hi + w
    cap = max(0.7 * math.sqrt(2.0 * eps * t), (hi - lo) / _MAX_PANELS)
    edges = _with_points(np.linspace(lo, hi, int(math.ceil((hi - lo) / cap)) + 1),
                         [k for k in q0.breakpoints if lo < k < hi])
    s, wts = gauss_panels(edges, _PANEL_POINTS)
    # the node columns (sn, sq, sn s, sq s), sn = s^(n-1) wts and sq = sn q0
    cols = np.empty((s.size, 4))
    sn, sq = cols[:, 0], cols[:, 1]
    if n == 1:
        sn[:] = wts
    else:
        np.multiply(s ** (n - 1), wts, out=sn)
    q0s, phi = q0._value_and_cumulative(s)
    np.multiply(sn, q0s, out=sq)
    np.multiply(sn, s, out=cols[:, 2])
    np.multiply(sq, s, out=cols[:, 3])
    phi /= eps

    def block_sums(blk):
        a, b = np.searchsorted(s, [blk[0] - w, blk[-1] + w])
        return _gaussian_sums(n, blk, 1.0 / (eps * t), s[a:b], phi[a:b], cols[a:b])

    sums = np.concatenate([block_sums(r[i:i + _BLOCK_ROWS])
                           for i in range(0, r.size, _BLOCK_ROWS)])
    den, num, den_r, num_r = sums.T
    sums[~((r > 0) & (den > 0))] = (1.0, 0.0, 0.0, 0.0)   # q = dq = 0 at r = 0 or den = 0
    q = num / den
    return q, (num_r - q * den_r) / (den * (eps * t))


def _gaussian_sums(n, r, k, s, phi, cols):
    """The Gaussian-ratio sums at radii r, one row (den, num, den_r / k,
    num_r / k) per radius, with k = 1/(eps t), phi = int_0^s q0 / eps at the
    nodes s and cols the per-node vectors (sn, sn q0, sn s, sn q0 s).
    _velocity_block passes one row block of sorted radii and the slice of
    its shared grid that covers the block's windows.

    The weight w = exp(shift - A) is built once in place, and every sum is
    a matrix-vector product with a column of cols.  The r-derivative keeps
    the (w G) * (r - s) product, so no r * den - sum(s ...) cancellation
    arises.  For n = 1, G0,1 = 1 +- e^{-2 alpha} is carried by the mirror
    weight v = w e^{-2 alpha}.  Exponents are floored at _EXP_FLOOR: such
    weights sit far below rounding of the row's peak weight 1, and keeping
    them normal numbers avoids the slow underflow paths of exp and of the
    products.
    """
    d = r[:, None] - s
    wgt = d * d
    wgt *= 0.5 * k
    wgt += phi
    np.subtract(wgt.min(axis=1, keepdims=True), wgt, out=wgt)
    np.maximum(wgt, _EXP_FLOOR, out=wgt)
    out = np.empty((r.size, 4))
    if n == 1:
        v = (r * (2.0 * k))[:, None] * s
        np.subtract(wgt, v, out=v)
        np.maximum(v, _EXP_FLOOR, out=v)
        np.exp(v, out=v)
        np.exp(wgt, out=wgt)
        ws, vs = wgt @ cols[:, :2], v @ cols
        wgt *= d
        v *= d
        wd, vd = wgt @ cols[:, :2], v @ cols[:, :2]
        out[:, 0] = ws[:, 0] + vs[:, 0]
        out[:, 1] = ws[:, 1] - vs[:, 1]
        out[:, 2] = -2.0 * vs[:, 2] - wd[:, 0] - vd[:, 0]
        out[:, 3] = 2.0 * vs[:, 3] - wd[:, 1] + vd[:, 1]
        return out
    np.exp(wgt, out=wgt)
    g0, g1, dg0, dg1 = _angular_factors(n, (r * k)[:, None] * s, derivs=True)
    for g in (g0, g1, dg0, dg1):
        g *= wgt
    out[:, 0] = g0 @ cols[:, 0]
    out[:, 1] = g1 @ cols[:, 1]
    den_r, num_r = dg0 @ cols[:, 2], dg1 @ cols[:, 3]
    g0 *= d
    g1 *= d
    out[:, 2] = den_r - g0 @ cols[:, 0]
    out[:, 3] = num_r - g1 @ cols[:, 1]
    return out


# ---------------------------------------------------------------------------
# general potentials


_GENERAL_RTOL = 1e-10         # trapezoid levels agree to this share of the mean |grad phi0|
_GENERAL_BUDGET = 400_000     # grid points of one trapezoid level
_SCAN_POINTS = 33             # confinement scan points per axis
_FIRST_LEVEL_POINTS = 17      # points per axis of the first trapezoid level


def _exponent_grid(problem, x, t, lo, hi, m):
    """The exponent f(y) = |x - y|^2/2t + phi0(y) on the tensor grid of m
    points per axis on the box [lo, hi], shaped (m,) * n; the grid's points
    as the callbacks take them (scalars for n = 1); the live mask, where f
    lies within eps ln 1e18 of its minimum; and the live box: per axis, the
    extent of the live points padded by two spacings, kept in [lo, hi]."""
    n = x.size
    axes = [np.linspace(a, b, m) for a, b in zip(lo, hi)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    args = pts[:, 0] if n == 1 else pts
    f = np.array([problem.phi0(p) for p in args], dtype=float)
    if np.isnan(f).any():
        raise ValueError(f"phi0 is NaN at y = {args[np.argmax(np.isnan(f))]}")
    f = (f + ((pts - x) ** 2).sum(axis=1) / (2.0 * t)).reshape((m,) * n)
    live = f <= f.min() + problem.epsilon * math.log(1e18)
    first, last = np.array([(i.min(), i.max()) for i in np.nonzero(live)]).T
    h = (hi - lo) / (m - 1)
    return f, args, live, (np.maximum(lo + (first - 2) * h, lo),
                           np.minimum(lo + (last + 2) * h, hi))


def _general_velocity(problem: FreespaceProblem, x: np.ndarray, t: float):
    """(u, du) at x for a potential given as callables, n = 1, 2, 3, f as in
    _exponent_grid: u = int grad phi0 e^{-f/eps} / int e^{-f/eps} and
    du[i, j] = du_i/dx_j = Cov_w(d_i phi0, y_j)/(eps t) on the same nodes,
    centred on u and x so that nothing cancels at small t.

    A tensor scan around x doubles its half-width until f on its boundary
    lies more than 2 eps ln 1e18 above its minimum, else ConfinementError.
    A tensor trapezoid rule, which converges geometrically on such
    Gaussian-weighted analytic integrands, then sums the live points of
    the scan's live box (the others weigh below 1e-18 of the largest).
    Each level re-derives the box from its samples.  A box that loses
    more than half its volume restarts the levels at the first; a smaller
    loss, such as the two fine spacings of padding that each doubling
    sheds, keeps the box.  Otherwise the points per axis double until two
    levels agree to _GENERAL_RTOL of s = E_w|grad phi0| + 1e-6 E_w|y - x|/t
    in u and of s E_w|y - x| / (eps t) in du.  E_w|y - x|/t is the
    exponent's own velocity scale (by parts u = (x - E_w y)/t), so s stays
    positive where u = 0 or the weight sits on a flat part of phi0.  A
    level past _GENERAL_BUDGET points raises QuadratureBudgetError.
    """
    eps, n = problem.epsilon, x.size
    w = math.sqrt(2.0 * t * (45.0 * eps + 4.0)) + 4.0
    for _ in range(40):
        f, _, _, (lo, hi) = _exponent_grid(problem, x, t, x - w, x + w, _SCAN_POINTS)
        if min(np.moveaxis(f, k, 0)[[0, -1]].min() for k in range(n)) - f.min() \
                > 2.0 * eps * math.log(1e18):
            break
        w *= 2.0
    else:
        raise ConfinementError("potential does not confine the integrand")
    m, prev = _FIRST_LEVEL_POINTS, None
    while True:
        if m ** n > _GENERAL_BUDGET:
            raise QuadratureBudgetError(
                f"a trapezoid level of {m ** n} points exceeds the budget of {_GENERAL_BUDGET}")
        f, args, live, box = _exponent_grid(problem, x, t, lo, hi, m)
        if np.prod(box[1] - box[0]) < 0.5 * np.prod(hi - lo):
            (lo, hi), m, prev = box, _FIRST_LEVEL_POINTS, None
            continue
        wgt = np.exp((f.min() - f[live]) / eps)
        dy = np.reshape(args[live.ravel()], (-1, n)) - x
        g = np.reshape([problem.grad_phi0(p) for p in args[live.ravel()]], (-1, n))
        den = wgt.sum()
        u = (wgt @ g) / den
        du = ((g - u) * wgt[:, None]).T @ dy / (den * eps * t)
        spread = wgt @ np.linalg.norm(dy, axis=1)
        tol = _GENERAL_RTOL * ((wgt @ np.linalg.norm(g, axis=1)) / den + 1e-6 * spread / (den * t))
        tol_du = tol * spread / (den * eps * t)
        if prev is not None and np.abs(u - prev[0]).max() <= tol \
                and np.abs(du - prev[1]).max() <= tol_du:
            return u, du
        prev, m = (u, du), 2 * m - 1


# ---------------------------------------------------------------------------
# public velocity / characteristics / density / mass


def _point(problem: FreespaceProblem, x) -> np.ndarray:
    """x as a length-n float array; for n = 1 a scalar or a 1-element array."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if xv.shape != (problem.n,):
        raise ValueError(f"x must be a point of R^{problem.n}, got shape {np.shape(x)}")
    return xv


def velocity(problem: FreespaceProblem, x, t: float):
    """u(x, t) at x in R^n (for n = 1 a scalar or a 1-element array, and u
    a float); any other shape raises ValueError.  Potentials given as
    callables go through _general_velocity, which meets its tolerance or
    raises."""
    _check_times(t, positive=True)
    xv = _point(problem, x)
    if problem.is_radial:
        r = float(abs(xv[0]) if problem.n == 1 else np.linalg.norm(xv))
        u = (xv / r) * radial_velocity(problem, r, t) if r else np.zeros(problem.n)
    else:
        u = _general_velocity(problem, xv, t)[0]
    return float(u[0]) if problem.n == 1 else u


def _rk4_doubling(rhs, y0, t, walls=None):
    """Step-doubled classic RK4 with Richardson extrapolation (an embedded
    4th/5th-order pair) for a batch of backward traces run in lockstep,
    with tolerances 1e-10 absolute and _RK_RTOL relative.

    Row i of y0 is one trace, y0[i] at time t[i] >= 0 (t a scalar or one
    time per row), carried back to time 0: dy/dsigma = rhs(u, y) at
    u = t[i] - sigma for sigma from 0 to t[i].  rhs(u, y) takes one time
    per row and the rows y of any traces and stages, and returns their
    slopes row by row; no row's slope may depend on the other rows of the
    call.

    Rows are independent.  Each trace has its own span, step size, accept
    or reject decision, first stage (kept through a rejection), wall exits
    and step-size floor of 1/1500 of its span (the floor keeps quadrature
    noise in the right side from stalling the controller), so it takes
    exactly the steps it takes alone.  The step-size factors are Python
    scalars per trace: numpy's array ** rounds differently from the scalar
    pow in some cases, which would make a trace's steps depend on its
    batch.  Each round hands rhs every ready (trace, stage) row in one call
    -- the full step's and the first half step's stages together -- so an
    attempt costs 8 calls, 7 after a rejection.

    With walls=(lo, hi) each row holds two runs of m entries, the
    positions of m characteristics and then one quantity carried along
    each, and the result is (y, t_exit).  A characteristic whose position
    leaves [lo, hi] on an accepted step is frozen where the step's cubic
    Hermite interpolant meets the wall, and t_exit holds the time u of
    that crossing (NaN where it stays inside).  A trace in which none
    leaves takes the same steps as without walls.
    """
    y = np.array(y0, dtype=float)
    n_tr = y.shape[0]
    spans = np.broadcast_to(np.asarray(t, dtype=float), (n_tr,)).tolist()
    s = [0.0] * n_tr
    h = [span / 16.0 for span in spans]
    h_min = [abs(span) * (1.0 / 1500.0) for span in spans]
    tries = [0] * n_tr
    t_end = np.array(spans)
    k1 = np.empty_like(y)
    fresh = [False] * n_tr   # k1[i] = f(s[i], y[i]); a rejection leaves both as they were
    live = None   # with walls: the entries still moving
    if walls is not None:
        lo, hi = walls
        m = y.shape[1] // 2
        t_exit = np.full((n_tr, m), np.nan)
        live = np.ones(y.shape, dtype=bool)

    def rows(idx):   # the start times and moving entries of the traces idx
        return t_end[idx], None if live is None else live[idx]

    def f(at, sigma, ys):   # slopes of rows at sigma; frozen entries get 0
        out = rhs(at[0] - sigma, ys)
        return out if at[1] is None else np.where(at[1], out, 0.0)

    def stages(at, s, y, h, k1):   # one RK4 step of length h[j] per row j
        half = 0.5 * h
        s_half = s + half
        k2 = f(at, s_half, y + half[:, None] * k1)
        k3 = f(at, s_half, y + half[:, None] * k2)
        k4 = f(at, s + h, y + h[:, None] * k3)
        return y + (h / 6.0)[:, None] * (k1 + 2 * k2 + 2 * k3 + k4)

    while True:
        act = [i for i in range(n_tr) if spans[i] - s[i] > 1e-14 * spans[i]]
        if not act:
            break
        for i in act:
            tries[i] += 1
            if tries[i] > 100000:
                raise CharacteristicError("step underflow in characteristic integration "
                                          f"at s={s[i]!r}")
            if s[i] + h[i] > spans[i]:
                h[i] = spans[i] - s[i]
        need = [i for i in act if not fresh[i]]
        if need:
            k1[need] = f(rows(need), np.array([s[i] for i in need]), y[need])
            for i in need:
                fresh[i] = True
        # the full step and the first half step share their first stage and
        # run side by side, full steps first
        n_act = len(act)
        sa = [s[i] for i in act]
        ha = [h[i] for i in act]
        h2 = np.array(ha + [0.5 * v for v in ha])
        at2 = rows(act + act)
        both = stages(at2, np.array(sa + sa), y[act + act], h2, k1[act + act])
        y_full, y_mid = both[:n_act], both[n_act:]
        at = (at2[0][:n_act], None if at2[1] is None else at2[1][:n_act])
        s_mid = np.array([v + 0.5 * w for v, w in zip(sa, ha)])
        y_half = stages(at, s_mid, y_mid, h2[n_act:], f(at, s_mid, y_mid))
        errs = np.max(np.abs(y_half - y_full)
                      / (1e-10 + _RK_RTOL * np.maximum(np.abs(y_half), 1.0)), axis=1)
        y_next = y_half + (y_half - y_full) / 15.0
        done = []
        for j, i in enumerate(act):
            if errs[j] <= 15.0 or abs(h[i]) <= h_min[i]:
                done.append(j)
            else:
                h[i] *= max(0.3, 0.9 * (15.0 / errs[j]) ** 0.2)
        if walls is not None:
            hits = []
            for j in done:
                pos = y_next[j, :m]
                out = live[act[j], :m] & ((pos < lo) | (pos > hi))
                if out.any():
                    hits.append((j, np.flatnonzero(out)))
            if hits:
                idx = [act[j] for j, _ in hits]
                k_end = f(rows(idx), np.array([s[i] + h[i] for i in idx]),
                          y_next[[j for j, _ in hits]])
                for (j, out), i, k4 in zip(hits, idx, k_end):
                    cols = np.stack([out, out + m])
                    ends = (y[i][cols], h[i] * k1[i][cols], y_next[j][cols], h[i] * k4[cols])
                    pos = y_next[j, out]
                    wall = np.where(pos < lo, lo, hi)
                    theta = np.zeros(out.size)   # bisection for the fraction spent inside
                    for k in range(1, 54):
                        trial = theta + 0.5 ** k
                        inside = (_hermite(trial, *ends)[0] - wall) * (pos - wall) < 0.0
                        theta = np.where(inside, trial, theta)
                    y_next[j, out + m] = _hermite(theta, *ends)[1]
                    y_next[j, out] = wall
                    t_exit[i, out] = spans[i] - (s[i] + theta * h[i])
                    live[i][cols] = False
        for j in done:
            i = act[j]
            y[i] = y_next[j]
            s[i] = s[i] + h[i]
            fresh[i] = False
            h[i] = h[i] * min(3.0, max(0.3, 0.9 * (15.0 / max(errs[j], 1e-14)) ** 0.2))
    return y if walls is None else (y, t_exit)


def _hermite(theta, y0, dy0, y1, dy1):
    """Cubic Hermite interpolant at theta in [0, 1] from the end values and
    the end slopes scaled by the interval length."""
    t2, t3 = theta * theta, theta ** 3
    return ((2.0 * t3 - 3.0 * t2 + 1.0) * y0 + (t3 - 2.0 * t2 + theta) * dy0
            + (3.0 * t2 - 2.0 * t3) * y1 + (t3 - t2) * dy1)


def _trace_radial_batch(problem: FreespaceProblem, radii: np.ndarray, t: float):
    """Backward feet of radii |r|, clamped at 1e-12, at a common time and
    the Jacobian (foot/r)^(n-1) d(foot)/dr of x -> X0, d(foot)/dr from the
    variational equation integrated alongside.  The radii are stable-sorted
    once: backward characteristics never cross, so the feet stay in the
    order the batch kernel takes.  Both come back in the caller's order."""
    rr = np.maximum(np.abs(np.asarray(radii, dtype=float)), 1e-12)
    m = rr.size
    order = np.argsort(rr, kind="stable")

    def rhs(u, y):   # per row: the feet, then d(foot)/dr
        out = np.empty_like(y)
        for s, row, slope in zip(u.tolist(), y, out):
            q, dq = _radial_velocity_batch(problem, np.maximum(row[:m], 0.0), s)
            slope[:m] = -q
            slope[m:] = -dq * row[m:]
        return out

    state = _rk4_doubling(rhs, np.concatenate([rr[order], np.ones(m)])[None], t)[0]
    feet, dr0 = np.empty(m), np.empty(m)
    feet[order], dr0[order] = state[:m], state[m:]
    return feet, _checked_jacobian((np.maximum(feet, 1e-300) / rr) ** (problem.n - 1) * dr0)


def _checked_jacobian(jac):
    """jac once every entry is positive; CharacteristicError otherwise."""
    if np.any(jac <= 0):
        raise CharacteristicError("non-positive characteristic Jacobian")
    return jac


def trace_characteristic(problem: FreespaceProblem, x, t: float):
    """Backward characteristic foot X0 = X(x,t,0) and the Jacobian
    determinant of x -> X0, for x as `velocity` takes it (a float foot for
    n = 1); CharacteristicError if it is not positive.  Both kinds integrate
    dJ/dsigma = -du/dx J along the one trace, du/dx from the velocity's own
    quadrature: _trace_radial_batch's, as for the batch densities, or one
    `_general_velocity` call per right side at times >= 1e-12."""
    _check_times(t, positive=True)
    xv, n = _point(problem, x), problem.n
    if problem.is_radial:
        r = float(np.linalg.norm(xv))
        (foot,), (jac,) = _trace_radial_batch(problem, np.array([r]), t)
        foot = (xv / r) * foot if r else xv * 0.0
    else:
        def rhs(u, y):   # per row: the foot X, then J = dX/dx row by row
            out = np.empty_like(y)
            for s, row, slope in zip(u.tolist(), y, out):
                v, dv = _general_velocity(problem, row[:n], max(s, 1e-12))
                slope[:n] = -v
                slope[n:] = -(dv @ row[n:].reshape(n, n)).ravel()
            return out

        state = _rk4_doubling(rhs, np.concatenate([xv, np.eye(n).ravel()])[None], t)[0]
        foot, jac = state[:n], _checked_jacobian(np.linalg.det(state[n:].reshape(n, n)))
    return (foot if n > 1 else float(foot[0])), float(jac)


def _rho0(problem: FreespaceProblem):
    if problem.rho0 is None:
        raise ValueError("problem has no initial density")
    return problem.rho0


def _rho0_value(problem: FreespaceProblem, pt):
    if problem.is_radial:
        pt = float(np.linalg.norm(np.atleast_1d(pt)))
    return float(_rho0(problem)(pt))


def density(problem: FreespaceProblem, x, t: float) -> float:
    """rho(x,t) = rho0(X0) * J(X0) along the backward characteristic."""
    foot, jac = trace_characteristic(problem, x, t)
    return _rho0_value(problem, foot) * jac


_MASS_PANELS = 32    # panels of total_mass's rule (its Lagrangian rule has half)
_MASS_POINTS = 10    # Gauss points per mass panel


def _support_image_radius(problem, t):
    """Radius that holds the image of rho0's support at time t: q0's
    speed bound moves it out; a potential phi0 gives no such bound."""
    if problem.is_radial:
        L0 = problem.q0.sup_abs()
    elif t > 0.0:
        raise ValueError("a potential phi0 bounds no speed: give total_mass a radius "
                         "for its mass at t > 0")
    else:
        L0 = 0.0
    return problem.rho0_support + t * L0 + 1e-6


def _density_radial_batch(problem, radii, t):
    """rho at many radii, one time t >= 0, from one backward trace."""
    _check_times(t)
    rho0 = _rho0(problem)
    feet, jac = _trace_radial_batch(problem, radii, t)
    return rho0(feet) * jac


def total_mass(problem: FreespaceProblem, t: float, radius: float | None = None):
    """Mass m of rho(., t) over the ball of the given radius R, by default
    one containing the image of the initial support, on _MASS_PANELS Gauss
    panels of _MASS_POINTS points.  Returns (m, |m - m_L|), where m_L is
    the Lagrangian mass: the flow map is monotone, so the mass inside R at
    t is rho0's mass on the foot interval, [0, X0(R)] for a radial problem
    and [X0(-R), X0(R)] for a potential in n = 1, and m_L takes it with
    half the panels.  R is traced with the nodes, so m_L costs one foot
    and counts mass no node sees, such as a point mass at the origin; at
    t = 0 the foot interval is the interval itself.  A radial n = 1
    density is even, so both of its integrals are folded onto the half
    line with half the panels and doubled.  Raises MassConcentrationError
    when rho0 carries mass but the density at t is zero at every node,
    rather than report a total loss as (0, 0); ValueError for a potential
    phi0 at t > 0 without a radius; NotImplementedError for a potential in
    n = 2 or 3, before rho0 is called."""
    _check_times(t)
    if not (problem.is_radial or problem.n == 1):
        raise NotImplementedError("mass quadrature is radial or 1-D")
    if radius is None:
        radius = _support_image_radius(problem, t)
    rho0, n = _rho0(problem), problem.n

    def rho0_at(x):
        return rho0(x) if problem.is_radial else np.array([_rho0_value(problem, v) for v in x])

    def rule(x, w, vals):   # the panel rule; a radial problem's x are shell radii
        if problem.is_radial:
            vals = vals * surface_measure(n) * np.abs(x) ** (n - 1)
        return float(vals @ w)

    panels = _MASS_PANELS // 2 if n == 1 and problem.is_radial else _MASS_PANELS
    lo = 0.0 if problem.is_radial else -radius
    nodes, w = gauss_panels(np.linspace(lo, radius, panels + 1), _MASS_POINTS)
    if problem.is_radial:
        feet, jac = _trace_radial_batch(problem, np.append(nodes, radius), t)
        vals, ends = rho0(feet[:-1]) * jac[:-1], (lo, feet[-1])
    elif t == 0.0:
        vals, ends = rho0_at(nodes), (lo, radius)
    else:
        vals = np.array([density(problem, x, t) for x in nodes])
        ends = tuple(trace_characteristic(problem, x, t)[0] for x in (lo, radius))
    if t > 0.0 and not np.any(vals) and np.any(rho0_at(nodes)):
        raise MassConcentrationError(
            f"density vanishes at every mass node at t = {t:g}, but rho0 does not")
    m = rule(nodes, w, vals)
    feet_nodes, feet_w = gauss_panels(np.linspace(*ends, panels // 2 + 1), _MASS_POINTS)
    return m, abs(m - rule(feet_nodes, feet_w, rho0_at(feet_nodes)))
