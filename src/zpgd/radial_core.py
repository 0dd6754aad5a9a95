"""Radial reduction of the adhesion system.

The multi-dimensional fields are carried by their radial components:
u = (x/r) q(r,t) and rho = r^-(n-1) p(r,t); the solvers reach q through
the linearizing variable a with q = -eps a_r / a.  This module holds the
sampled container for (q, p), the composite Gauss-Legendre panels, and
`write_csv`, the one writer every CSV artifact goes through.
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
    "gauss_panels",
    "leggauss",
    "write_csv",
    "write_radial_csv",
]

FLOAT_FMT = "%.17g"


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
# sampled (q, p) container


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


# ---------------------------------------------------------------------------
# CSV output


def _opened(path_or_buf):
    """A path (str, bytes or os.PathLike) opened for writing and closed on
    exit; any other object is taken as an open text buffer and left open."""
    if isinstance(path_or_buf, (str, bytes, os.PathLike)):
        return open(path_or_buf, "w")
    return nullcontext(path_or_buf)


def write_csv(path_or_buf, names, rows, comment: str | None = None):
    """Write an optional '# comment' line, the header `names` and one line
    per row.  Strings pass through unchanged; every other value (float,
    int, bool, NaN) prints as FLOAT_FMT.  The first row fixes which columns
    are strings, through one format string for the whole table."""
    with _opened(path_or_buf) as buf:
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

