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
    pass


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
    if t <= 0:
        raise TimeDomainError("t must be positive")
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
    if t <= 0:
        raise TimeDomainError("t must be positive")
    xv = _point(problem, x)
    if problem.is_radial:
        r = float(abs(xv[0]) if problem.n == 1 else np.linalg.norm(xv))
        u = (xv / r) * radial_velocity(problem, r, t) if r else np.zeros(problem.n)
    else:
        u = _general_velocity(problem, xv, t)[0]
    return float(u[0]) if problem.n == 1 else u


def _rk4_doubling(rhs, y0, s0, s1, walls=None):
    """Step-doubled classic RK4 with Richardson extrapolation (an embedded
    4th/5th-order pair); vectorized over the state, with tolerances 1e-10
    absolute and _RK_RTOL relative.  A step-size floor of 1/1500 of the
    span keeps quadrature noise in the right side from stalling the
    controller.

    With walls=(lo, hi) the state is two rows of m entries, the positions
    of m traces and then one quantity carried along each, and the result
    is (y, s_exit).  A trace whose position leaves [lo, hi] on an accepted
    step is frozen where the step's cubic Hermite interpolant meets the
    wall, and s_exit holds that crossing (NaN for traces that stay inside).
    A batch in which no trace leaves takes the same steps as without walls.
    """
    y = np.asarray(y0, dtype=float).copy()
    s = s0
    span = s1 - s0
    h = span / 16.0
    h_min = abs(span) * (1.0 / 1500.0)
    f = rhs
    if walls is not None:
        m = y.size // 2
        s_exit = np.full(m, np.nan)
        live = np.ones(y.size, dtype=bool)

        def frozen_rhs(s, y):   # the right side once some trace is frozen
            return np.where(live, rhs(s, y), 0.0)

    def step(y, s, h, k1):
        k2 = f(s + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(s + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(s + h, y + h * k3)
        return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    guard = 0
    k1 = None   # f(s, y); a rejected attempt leaves s, y and f as they were
    while (s1 - s) * np.sign(span) > 1e-14 * abs(span):
        guard += 1
        if guard > 100000:
            raise CharacteristicError("step underflow in characteristic integration "
                                      f"at s={s!r}")
        if (s + h - s1) * np.sign(span) > 0:
            h = s1 - s
        # the full step and the first half step share their first stage
        if k1 is None:
            k1 = f(s, y)
        y_full = step(y, s, h, k1)
        y_mid = step(y, s, 0.5 * h, k1)
        y_half = step(y_mid, s + 0.5 * h, 0.5 * h, f(s + 0.5 * h, y_mid))
        err = np.max(np.abs(y_half - y_full)
                     / (1e-10 + _RK_RTOL * np.maximum(np.abs(y_half), 1.0)))
        if err <= 15.0 or abs(h) <= h_min:
            y_next = y_half + (y_half - y_full) / 15.0
            if walls is not None:
                pos = y_next[:m]
                out = np.flatnonzero(live[:m] & ((pos < walls[0]) | (pos > walls[1])))
                if out.size:
                    cols = np.stack([out, out + m])
                    ends = (y[cols], h * k1[cols], y_next[cols], h * f(s + h, y_next)[cols])
                    wall = np.where(pos[out] < walls[0], walls[0], walls[1])
                    theta = np.zeros(out.size)   # bisection for the fraction spent inside
                    for k in range(1, 54):
                        trial = theta + 0.5 ** k
                        inside = (_hermite(trial, *ends)[0] - wall) * (pos[out] - wall) < 0.0
                        theta = np.where(inside, trial, theta)
                    y_next[out + m] = _hermite(theta, *ends)[1]
                    y_next[out] = wall
                    s_exit[out] = s + theta * h
                    live[cols] = False
                    f = frozen_rhs
            y = y_next
            s = s + h
            k1 = None
            h = h * min(3.0, max(0.3, 0.9 * (15.0 / max(err, 1e-14)) ** 0.2))
        else:
            h *= max(0.3, 0.9 * (15.0 / err) ** 0.2)
    return y if walls is None else (y, s_exit)


def _hermite(theta, y0, dy0, y1, dy1):
    """Cubic Hermite interpolant at theta in [0, 1] from the end values and
    the end slopes scaled by the interval length."""
    t2, t3 = theta * theta, theta ** 3
    return ((2.0 * t3 - 3.0 * t2 + 1.0) * y0 + (t3 - 2.0 * t2 + theta) * dy0
            + (3.0 * t2 - 2.0 * t3) * y1 + (t3 - t2) * dy1)


def _trace_radial_batch(problem: FreespaceProblem, radii: np.ndarray, t: float):
    """Backward feet for a batch of radii at a common time and d(foot)/dr
    via the variational equation integrated alongside.  The radii are
    stable-sorted once: backward characteristics never cross, so the feet
    stay in the order the batch kernel takes.  Feet and d(foot)/dr come
    back in the caller's order."""
    radii = np.asarray(radii, dtype=float)
    m = radii.size
    order = np.argsort(radii, kind="stable")

    def rhs(sigma, state):
        s = t - sigma
        beta, w = state[:m], state[m:]
        q, dq = _radial_velocity_batch(problem, np.maximum(beta, 0.0), s)
        return np.concatenate([-q, -dq * w])

    state = _rk4_doubling(rhs, np.concatenate([radii[order], np.ones(m)]), 0.0, t)
    feet, dr0 = np.empty(m), np.empty(m)
    feet[order], dr0[order] = state[:m], state[m:]
    return feet, dr0


def trace_characteristic(problem: FreespaceProblem, x, t: float):
    """Backward characteristic foot X0 = X(x,t,0) and the Jacobian
    determinant of x -> X0, for x as `velocity` takes it (a float foot for
    n = 1).  Both kinds integrate dJ/dsigma = -du/dx J along the one trace,
    du/dx from the velocity's own quadrature: the radial batch kernel's dq,
    or one `_general_velocity` call per right side at times >= 1e-12.
    """
    if t <= 0:
        raise TimeDomainError("t must be positive")
    xv, n = _point(problem, x), problem.n
    if problem.is_radial:
        r = float(np.linalg.norm(xv))
        if r == 0.0:
            return (xv * 0.0, 1.0) if n > 1 else (0.0, 1.0)
        feet, dr0 = _trace_radial_batch(problem, np.array([r]), t)
        foot = (xv / r) * feet[0]
        jac = float((max(feet[0], 1e-300) / r) ** (n - 1) * dr0[0])
    else:
        def rhs(sigma, state):   # the foot X, then J = dX/dx row by row
            u, du = _general_velocity(problem, state[:n], max(t - sigma, 1e-12))
            return -np.concatenate([u, (du @ state[n:].reshape(n, n)).ravel()])

        state = _rk4_doubling(rhs, np.concatenate([xv, np.eye(n).ravel()]), 0.0, t)
        foot, jac = state[:n], float(np.linalg.det(state[n:].reshape(n, n)))
    return (foot if n > 1 else float(foot[0])), jac


def _rho0_value(problem: FreespaceProblem, pt):
    if isinstance(problem.rho0, ScalarProfile):
        r = float(np.linalg.norm(np.atleast_1d(pt)))
        return float(problem.rho0(r))
    if callable(problem.rho0):
        return float(problem.rho0(pt))
    raise ValueError("problem has no initial density")


def density(problem: FreespaceProblem, x, t: float) -> float:
    """rho(x,t) = rho0(X0) * J(X0) along the backward characteristic."""
    foot, jac = trace_characteristic(problem, x, t)
    if jac <= 0:
        raise CharacteristicError("non-positive characteristic Jacobian")
    return _rho0_value(problem, foot) * jac


_MASS_PANELS = 32    # panels of total_mass's fine grid (the coarse one has half)
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
    """rho at many radii, one time; one backward trace for the whole batch."""
    rr = np.maximum(np.abs(np.asarray(radii, dtype=float)), 1e-12)
    feet, dr0 = _trace_radial_batch(problem, rr, t)
    jac = (np.maximum(feet, 1e-300) / rr) ** (problem.n - 1) * dr0
    if np.any(jac <= 0):
        raise CharacteristicError("non-positive characteristic Jacobian in mass grid")
    return problem.rho0(feet) * jac


def total_mass(problem: FreespaceProblem, t: float, radius: float | None = None):
    """Mass of rho(., t) over the ball of the given radius, by default one
    containing the image of the initial support, on _MASS_PANELS Gauss
    panels of _MASS_POINTS points.  Returns (mass, error estimate) where
    the estimate compares against half the panel count (the two node sets
    share one backward trace).  A radial n = 1 density is even, so its line
    integral is folded onto [0, R] with half the panels of each grid and
    doubled.  Raises MassConcentrationError when rho0 carries mass but the
    density at t is zero at every node, rather than report a total loss as
    (0, 0), and ValueError for a potential phi0 at t > 0 without a radius."""
    if radius is None:
        radius = _support_image_radius(problem, t)
    fold = problem.n == 1 and problem.is_radial
    half_line = problem.n > 1 or fold
    fine, coarse = _MASS_PANELS, _MASS_PANELS // 2
    if fold:
        fine, coarse = fine // 2, coarse // 2
    lo = 0.0 if half_line else -radius
    n1, w1 = gauss_panels(np.linspace(lo, radius, fine + 1), _MASS_POINTS)
    n2, w2 = gauss_panels(np.linspace(lo, radius, coarse + 1), _MASS_POINTS)
    nodes = np.concatenate([n1, n2])
    if t == 0.0 and isinstance(problem.rho0, ScalarProfile):
        vals = problem.rho0(nodes)   # radial: the nodes are radii
    elif t == 0.0:
        vals = np.array([_rho0_value(problem, r) for r in nodes])
    elif problem.is_radial:
        vals = _density_radial_batch(problem, nodes, t)
    elif problem.n == 1:
        vals = np.array([density(problem, r, t) for r in nodes])
    else:
        raise NotImplementedError("mass quadrature is radial or 1-D")
    if t > 0.0 and not np.any(vals) and any(_rho0_value(problem, r) for r in nodes):
        raise MassConcentrationError(
            f"density vanishes at every mass node at t = {t:g}, but rho0 does not")
    if half_line:
        vals = vals * surface_measure(problem.n) * np.abs(nodes) ** (problem.n - 1)
    m1 = float(vals[: n1.size] @ w1)
    m2 = float(vals[n1.size:] @ w2)
    return m1, abs(m1 - m2)
