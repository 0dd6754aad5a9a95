"""Radial reduction of the adhesion system and its Hopf-Cole link.

The multi-dimensional fields are carried by their radial components:
u = (x/r) q(r,t) and rho = r^-(n-1) p(r,t).  This module holds the sampled
containers for (q, p) and for the linearizing variable a with
q = -eps a_r / a, the residual evaluators every other module's tests lean
on (4th order in r, 2nd order in t), the CSV round trip, and `write_csv`,
the one writer every CSV artifact goes through.
"""

from __future__ import annotations

import itertools
import os
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "RadialField",
    "HopfColeState",
    "fd_weights",
    "fd_derivative",
    "gauss_panels",
    "leggauss",
    "lift_to_vector",
    "velocity_from_hopf_cole",
    "viscous_residual",
    "heat_residual",
    "write_csv",
    "write_radial_csv",
    "read_radial_csv",
]

FLOAT_FMT = "%.17g"


class OriginError(ValueError):
    """Radial lift requested at x = 0 where the direction is undefined."""


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
# composite Gauss-Legendre panels


@lru_cache(maxsize=None)
def leggauss(npts: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per npts."""
    return np.polynomial.legendre.leggauss(npts)


def gauss_panels(edges, npts: int):
    """Nodes and weights of the npts-point Gauss rule on every panel
    [edges[i], edges[i+1]], flattened panel by panel."""
    x, w = leggauss(npts)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * np.diff(edges)
    nodes = (mids[:, None] + halves[:, None] * x[None, :]).ravel()
    weights = (halves[:, None] * w[None, :]).ravel()
    return nodes, weights


# ---------------------------------------------------------------------------
# sampled containers


def _check_grid(g, name, positive=False):
    g = np.asarray(g, dtype=float)
    if g.ndim != 1 or g.size < 2 or np.any(np.diff(g) <= 0):
        raise ValueError(f"{name} must be 1-D strictly increasing")
    if positive and g[0] <= 0:
        raise ValueError(f"{name} must start above 0")
    return g


@dataclass
class RadialField:
    """Sampled (q, p) on an (r, t) grid.  Arrays are (len(t), len(r))."""

    n: int
    epsilon: float
    grid_r: np.ndarray
    grid_t: np.ndarray
    q: np.ndarray
    p: np.ndarray
    delta_flags: np.ndarray | None = None  # True at flagged shock columns

    def __post_init__(self):
        # 1-D fields may live on a line truncation crossing zero; for n >= 2
        # the (n-1)/r terms demand positive radii
        self.grid_r = _check_grid(self.grid_r, "grid_r", positive=self.n >= 2)
        self.grid_t = _check_grid(self.grid_t, "grid_t")
        shape = (self.grid_t.size, self.grid_r.size)
        for name in ("q", "p"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
            setattr(self, name, arr)
        if not np.all(np.isfinite(self.q)):
            raise ValueError("q must be finite everywhere")
        mask = None if self.delta_flags is None else np.asarray(self.delta_flags, bool)
        bad = ~np.isfinite(self.p)
        if mask is not None:
            bad = bad & ~mask
        if np.any(bad):
            raise ValueError("p must be finite away from flagged shock columns")

    @property
    def rho(self) -> np.ndarray:
        return self.p / self.grid_r[None, :] ** (self.n - 1)


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


# ---------------------------------------------------------------------------
# operations


def _interp_bilinear(grid_r, grid_t, arr, r, t):
    i = np.clip(np.searchsorted(grid_t, t) - 1, 0, grid_t.size - 2)
    j = np.clip(np.searchsorted(grid_r, r) - 1, 0, grid_r.size - 2)
    wt = (t - grid_t[i]) / (grid_t[i + 1] - grid_t[i])
    wr = (r - grid_r[j]) / (grid_r[j + 1] - grid_r[j])
    return ((1 - wt) * (1 - wr) * arr[i, j] + (1 - wt) * wr * arr[i, j + 1]
            + wt * (1 - wr) * arr[i + 1, j] + wt * wr * arr[i + 1, j + 1])


def lift_to_vector(field: RadialField, x, t: float):
    """(u, rho) at a Cartesian point from the radial samples."""
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r == 0.0:
        raise OriginError("radial direction undefined at the origin")
    if not (field.grid_r[0] <= r <= field.grid_r[-1]):
        raise ValueError("|x| outside the sampled radial range")
    if not (field.grid_t[0] <= t <= field.grid_t[-1]):
        raise ValueError("t outside the sampled time range")
    qv = _interp_bilinear(field.grid_r, field.grid_t, field.q, r, t)
    pv = _interp_bilinear(field.grid_r, field.grid_t, field.p, r, t)
    u = (x / r) * qv
    rho = pv / r ** (field.n - 1)
    return u, float(rho)


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


# ---------------------------------------------------------------------------
# CSV round trip


def _opened(path_or_buf, mode: str):
    """A path (str, bytes or os.PathLike) opened in `mode` and closed on
    exit; any other object is taken as an open text buffer and left open."""
    if isinstance(path_or_buf, (str, bytes, os.PathLike)):
        return open(path_or_buf, mode)
    return nullcontext(path_or_buf)


def write_csv(path_or_buf, names, rows, comment: str | None = None):
    """Write an optional '# comment' line, the header `names` and one line
    per row.  Strings pass through unchanged; every other value (float,
    int, bool, NaN) prints as FLOAT_FMT.  The first row fixes which columns
    are strings, through one format string for the whole table."""
    with _opened(path_or_buf, "w") as buf:
        if comment is not None:
            buf.write(f"# {comment}\n")
        buf.write(",".join(names) + "\n")
        rows = iter(rows)
        first = next(rows, None)
        if first is None:
            return
        if len(first) != len(names):
            raise ValueError(f"row has {len(first)} values for {len(names)} columns")
        fmt = ",".join("%s" if isinstance(v, str) else FLOAT_FMT for v in first) + "\n"
        buf.write(fmt % tuple(first))
        buf.writelines(fmt % tuple(row) for row in rows)


def write_radial_csv(field: RadialField, path_or_buf, extra_columns: dict | None = None):
    """Columns r,t,q,p,rho (t-major), one metadata header line with n and
    epsilon.  extra_columns maps name -> (len(t), len(r)) array of strings
    or numbers appended after rho."""
    extra = {name: np.asarray(col) for name, col in (extra_columns or {}).items()}
    arrays = (field.q, field.p, field.rho, *extra.values())
    r = field.grid_r.tolist()
    # one time slice at a time: Python floats format fastest, and only one
    # slice of them is alive at once
    rows = (row for i, t in enumerate(field.grid_t.tolist())
            for row in zip(r, itertools.repeat(t), *(a[i].tolist() for a in arrays)))
    write_csv(path_or_buf, ["r", "t", "q", "p", "rho", *extra], rows,
              comment=f"n={field.n} epsilon={FLOAT_FMT % field.epsilon}")


def read_radial_csv(path_or_buf) -> RadialField:
    with _opened(path_or_buf, "r") as buf:
        header = buf.readline().strip()
        if not header.startswith("#"):
            raise ValueError("missing metadata header line")
        meta = dict(tok.split("=") for tok in header[1:].split())
        n = int(meta["n"])
        epsilon = float(meta["epsilon"])
        cols = buf.readline().strip().split(",")
        idx = {c: k for k, c in enumerate(cols)}
        data = [line.strip().split(",") for line in buf if line.strip()]
    rs = sorted({float(row[idx["r"]]) for row in data})
    ts = sorted({float(row[idx["t"]]) for row in data})
    grid_r = np.array(rs)
    grid_t = np.array(ts)
    q = np.full((grid_t.size, grid_r.size), np.nan)
    p = np.full_like(q, np.nan)
    for row in data:
        i = np.searchsorted(grid_t, float(row[idx["t"]]))
        j = np.searchsorted(grid_r, float(row[idx["r"]]))
        q[i, j] = float(row[idx["q"]])
        p[i, j] = float(row[idx["p"]])
    return RadialField(n, epsilon, grid_r, grid_t, q, p)
