"""Finite-difference residuals of the radial adhesion system and of its
linearizing heat equation: the tests' reference checks on sampled fields.

Derivatives are 4th order in r and 2nd order in t, so a residual that
falls at those rates under refinement shows the sampled field solves the
equation.  `sample` turns a bounded series state into a HopfColeState.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from zpgd.radial_core import RadialField, _check_grid


class PositivityError(ValueError):
    """Hopf-Cole variable must stay positive."""


# ---------------------------------------------------------------------------
# finite-difference weights (Fornberg recursion)


def fd_weights(nodes, x0: float, deriv: int) -> np.ndarray:
    """Weights w with sum w[i] f(nodes[i]) ~ f^(deriv)(x0)."""
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.size
    c = np.zeros((n, deriv + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = nodes[0] - x0
    for i in range(1, n):
        mn = min(i, deriv)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, deriv]


def fd_derivative(values: np.ndarray, grid: np.ndarray, deriv: int,
                  axis: int, width: int) -> np.ndarray:
    """Derivative along `axis` with `width`-point stencils (centered in the
    interior, shifted one-sided windows at the edges)."""
    grid = np.asarray(grid, dtype=float)
    n = grid.size
    if n < width:
        raise ValueError(f"need at least {width} points along the axis")
    vals = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    out = np.zeros_like(vals)
    half = width // 2
    for i in range(n):
        s = min(max(i - half, 0), n - width)
        w = fd_weights(grid[s:s + width], grid[i], deriv)
        out[i] = np.tensordot(w, vals[s:s + width], axes=(0, 0))
    return np.moveaxis(out, 0, axis)


# ---------------------------------------------------------------------------
# sampled linearizing variable


@dataclass
class HopfColeState:
    """Positive samples of the linearizing variable a on an (r, t) grid."""

    grid_r: np.ndarray
    grid_t: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        self.grid_r = _check_grid(self.grid_r, "grid_r", positive=True)
        self.grid_t = _check_grid(self.grid_t, "grid_t")
        self.a = np.asarray(self.a, dtype=float)
        if self.a.shape != (self.grid_t.size, self.grid_r.size):
            raise ValueError("a must be (len(t), len(r))")
        if np.any(~(self.a > 0.0)):
            raise PositivityError("Hopf-Cole variable must be positive")


def sample(state, grid_r, grid_t) -> HopfColeState:
    """HopfColeState of a bounded series state (`BoundedHopfCole`) on a grid
    (true time scaling)."""
    vals = np.empty((len(grid_t), len(grid_r)))
    for i, tt in enumerate(grid_t):
        vals[i] = state.evaluate(grid_r, float(tt))
    return HopfColeState(np.asarray(grid_r, float), np.asarray(grid_t, float), vals)


# ---------------------------------------------------------------------------
# residuals


def velocity_from_hopf_cole(state: HopfColeState, epsilon: float) -> np.ndarray:
    """q = -eps a_r / a on the state's grid."""
    a_r = fd_derivative(state.a, state.grid_r, 1, axis=1, width=5)
    return -epsilon * a_r / state.a


def viscous_residual(field: RadialField):
    """Pointwise residuals of the radial adhesion system

        q_t + q q_r - (eps/2)[q_rr + (n-1)/r q_r - (n-1)/r^2 q]
        p_t + (p q)_r

    For eps = 0 the first line is the inviscid residual away from any
    flagged discontinuity columns.
    """
    if field.grid_r.size < 5 or field.grid_t.size < 3:
        raise ValueError("need >= 5 radii and >= 3 times for the stencils")
    r = field.grid_r[None, :]
    nm1 = field.n - 1
    q_t = fd_derivative(field.q, field.grid_t, 1, axis=0, width=3)
    q_r = fd_derivative(field.q, field.grid_r, 1, axis=1, width=5)
    res_q = q_t + field.q * q_r
    if field.epsilon != 0.0:
        q_rr = fd_derivative(field.q, field.grid_r, 2, axis=1, width=6)
        res_q -= 0.5 * field.epsilon * (q_rr + nm1 / r * q_r - nm1 / r ** 2 * field.q)
    p_t = fd_derivative(field.p, field.grid_t, 1, axis=0, width=3)
    pq_r = fd_derivative(field.p * field.q, field.grid_r, 1, axis=1, width=5)
    res_p = p_t + pq_r
    return res_q, res_p


def heat_residual(state: HopfColeState, epsilon: float, n: int) -> np.ndarray:
    """Residual of a_t = (eps/2)[a_rr + (n-1)/r a_r] on the state's grid."""
    if state.grid_r.size < 6 or state.grid_t.size < 3:
        raise ValueError("need >= 6 radii and >= 3 times for the stencils")
    r = state.grid_r[None, :]
    a_t = fd_derivative(state.a, state.grid_t, 1, axis=0, width=3)
    a_r = fd_derivative(state.a, state.grid_r, 1, axis=1, width=5)
    a_rr = fd_derivative(state.a, state.grid_r, 2, axis=1, width=6)
    return a_t - 0.5 * epsilon * (a_rr + (n - 1) / r * a_r)
