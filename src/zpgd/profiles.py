"""Piecewise-polynomial scalar profiles.

A ScalarProfile is a function of one nonnegative variable (a radius or a
time) given by polynomial pieces on consecutive intervals.  It is the
common carrier for initial data q0, p0, rho0 and boundary data q_B, p_B,
rho_B.  Outside its breakpoint range the profile is extended by its end
values (clamped), so constants and compactly supported data are both easy
to express.  Integrals, positive parts and squares are exact, which the
path functionals downstream rely on.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

__all__ = ["ScalarProfile"]


def _as_coeff_matrix(coeffs):
    """Pad a ragged list of local coefficient lists into one 2-D array."""
    deg = max(len(c) for c in coeffs)
    out = np.zeros((len(coeffs), deg))
    for i, c in enumerate(coeffs):
        out[i, : len(c)] = np.asarray(c, dtype=float)
    return out


@dataclass(frozen=True)
class ScalarProfile:
    """Piecewise polynomial with clamped extension beyond the breakpoints.

    breakpoints : (m+1,) strictly increasing
    coeffs      : (m, d) local coefficients; piece i evaluates
                  sum_k coeffs[i, k] * (x - breakpoints[i])**k
    """

    breakpoints: np.ndarray
    coeffs: np.ndarray
    _widths: np.ndarray = field(init=False, repr=False, compare=False)
    _inner: np.ndarray = field(init=False, repr=False, compare=False)
    _int_cols: np.ndarray = field(init=False, repr=False, compare=False)
    _cum: np.ndarray = field(init=False, repr=False, compare=False)
    # Python-list copies of the tables for the scalar path (see _scalar_eval)
    _bp_list: list = field(init=False, repr=False, compare=False)
    _width_list: list = field(init=False, repr=False, compare=False)
    _coeff_rows: list = field(init=False, repr=False, compare=False)
    _int_rows: list = field(init=False, repr=False, compare=False)
    _cum_list: list = field(init=False, repr=False, compare=False)
    # (f(breakpoints[0]), f(breakpoints[-1])), the clamped end values
    _end_vals: tuple = field(init=False, repr=False, compare=False)
    # sup_abs() over the whole line, filled on first use
    _sup_whole: float | None = field(init=False, repr=False, compare=False)
    # coefficient tables of f, f', f'', ..., extended on first use; each is
    # stored as contiguous per-power columns, (d, m), for the array path
    _deriv_cols: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        cf = np.asarray(self.coeffs, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("need at least two breakpoints")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if cf.ndim != 2 or cf.shape[0] != bp.size - 1:
            raise ValueError("coefficient rows must match interval count")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "coeffs", cf)
        # Exact integral of each piece over its interval, for cumulative().
        widths = np.diff(bp)
        ks = np.arange(1, cf.shape[1] + 1)
        int_cf = cf / ks
        piece = int_cf * widths[:, None] ** ks
        object.__setattr__(self, "_widths", widths)
        object.__setattr__(self, "_inner", bp[1:-1].copy())
        object.__setattr__(self, "_int_cols", np.ascontiguousarray(int_cf.T))
        object.__setattr__(self, "_cum",
                           np.concatenate([[0.0], np.cumsum(piece.sum(axis=1))]))
        # Rows are stored highest coefficient first, in Horner order.
        object.__setattr__(self, "_bp_list", bp.tolist())
        object.__setattr__(self, "_width_list", widths.tolist())
        object.__setattr__(self, "_coeff_rows", cf[:, ::-1].tolist())
        object.__setattr__(self, "_int_rows", int_cf[:, ::-1].tolist())
        object.__setattr__(self, "_cum_list", self._cum.tolist())
        object.__setattr__(self, "_end_vals",
                           tuple(self._scalar_eval(self._coeff_rows, x)[2]
                                 for x in (self._bp_list[0], self._bp_list[-1])))
        object.__setattr__(self, "_sup_whole", None)
        object.__setattr__(self, "_deriv_cols", [np.ascontiguousarray(cf.T)])

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def constant(cls, value: float) -> "ScalarProfile":
        return cls(np.array([0.0, 1.0]), np.array([[float(value)]]))

    @classmethod
    def piecewise_linear(cls, points, values) -> "ScalarProfile":
        """Linear interpolation through (points, values), clamped outside."""
        x = np.asarray(points, dtype=float)
        y = np.asarray(values, dtype=float)
        if x.size != y.size or x.size < 2:
            raise ValueError("need matching points/values, at least two")
        slopes = np.diff(y) / np.diff(x)
        coeffs = np.column_stack([y[:-1], slopes])
        return cls(x, coeffs)

    @classmethod
    def from_pieces(cls, breakpoints, coeff_rows) -> "ScalarProfile":
        return cls(np.asarray(breakpoints, dtype=float), _as_coeff_matrix(coeff_rows))

    @classmethod
    def zero(cls) -> "ScalarProfile":
        return cls.constant(0.0)

    # ------------------------------------------------------------------
    # evaluation

    def _locate(self, x):
        """Piece index and clamped offset of each point of the array x.

        Counting the interior breakpoints <= x gives the piece with the
        index already clamped to [0, m-1] (NaN sorts last, into the last
        piece).  The offset is frozen at [0, width] so out-of-range queries
        see end values.  NaN passes through both bounds, and -0.0 becomes
        +0.0: np.maximum returns its second operand on a tie of zeros."""
        idx = np.searchsorted(self._inner, x, side="right")
        dx = x - self.breakpoints.take(idx)
        np.maximum(dx, 0.0, out=dx)
        np.minimum(dx, self._widths.take(idx), out=dx)
        return idx, dx

    @staticmethod
    def _horner(cols, idx, dx):
        """sum_k cols[k, idx] * dx**k by Horner, from one gather of every
        power's column."""
        rows = cols.take(idx, axis=1)
        acc = rows[-1].copy()
        for row in rows[-2::-1]:
            acc *= dx
            acc += row
        return acc

    def _scalar_eval(self, rows, x):
        """One-point _locate and _horner on Python floats.

        The IEEE operations and their order are those of the array path, so
        the results are bit-identical; returns (piece, clamped dx, value)."""
        bp = self._bp_list
        i = bisect_right(bp, x) - 1
        if i < 0:
            i = 0
        elif i > len(bp) - 2:
            i = len(bp) - 2
        dx = x - bp[i]
        # the clamp of _locate: -0.0 becomes +0.0, NaN passes through
        if dx <= 0.0:
            dx = 0.0
        elif dx >= self._width_list[i]:
            dx = self._width_list[i]
        row = rows[i]
        acc = row[0]
        for c in row[1:]:
            acc = acc * dx + c
        return i, dx, acc

    def __call__(self, x):
        if isinstance(x, float):           # includes np.float64
            return self._scalar_eval(self._coeff_rows, float(x))[2]
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xf = np.atleast_1d(x)
        idx, dx = self._locate(xf)
        val = self._horner(self._deriv_cols[0], idx, dx)
        return float(val[0]) if scalar else val

    def with_derivatives(self, x, k: int):
        """(f, f', ..., f^(k)) at the points x from one _locate.

        Each entry is an array of x's shape, bit-identical to evaluating
        the profile ScalarProfile(breakpoints, _derivative_cols(j).T) (same
        table, same Horner pass on the same piece and clamped offset);
        beyond the degree the rows are zero."""
        x = np.asarray(x, dtype=float)
        idx, dx = self._locate(np.atleast_1d(x))
        return tuple(self._horner(self._derivative_cols(j), idx, dx).reshape(x.shape)
                     for j in range(k + 1))

    def cumulative(self, x):
        """Exact integral from breakpoints[0] to x (clamped pieces extend
        linearly with the end values outside the breakpoint range).  A tail
        with a zero end value adds the signed zero that (x - end) * 0.0
        gives at finite x, also at x = -inf or +inf, where that product
        would be NaN."""
        if isinstance(x, float):           # includes np.float64
            x = float(x)
            bp = self._bp_list
            if x < bp[0]:
                v = self._end_vals[0]
                return (x - bp[0] if v else -1.0) * v
            if x > bp[-1]:
                v = self._end_vals[1]
                return self._cum_list[-1] + (x - bp[-1] if v else 1.0) * v
            i, dx, acc = self._scalar_eval(self._int_rows, x)
            return self._cum_list[i] + acc * dx
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xf = np.atleast_1d(x)
        out = self._cumulative_at(xf, *self._locate(xf))
        return float(out[0]) if scalar else out

    def _cumulative_at(self, x, idx, dx):
        """cumulative at the points of the array x, given their _locate."""
        bp = self.breakpoints
        out = self._horner(self._int_cols, idx, dx)
        out *= dx
        out += self._cum.take(idx)
        below = x < bp[0]
        above = x > bp[-1]
        lo_v, hi_v = self._end_vals
        if below.any():
            out = np.where(below, (x - bp[0] if lo_v else -1.0) * lo_v, out)
        if above.any():
            out = np.where(above, self._cum[-1] + (x - bp[-1] if hi_v else 1.0) * hi_v, out)
        return out

    def _value_and_cumulative(self, x):
        """(f(x), cumulative(x)) at the points of the 1-D float array x from
        one _locate, bit-identical to __call__ and cumulative."""
        idx, dx = self._locate(x)
        return self._horner(self._deriv_cols[0], idx, dx), self._cumulative_at(x, idx, dx)

    def _cumulative_on_piece(self, lo: float, hi: float):
        """One-point cumulative for x in the closed bracket [lo, hi].

        When the bracket lies in one piece of the breakpoint range, the
        returned function evaluates that piece's row of the cumulative
        tables with the clamp and Horner order of _scalar_eval, so its
        results are the bits of cumulative(x) without the piece search.
        Otherwise (a breakpoint inside the bracket, or a bracket reaching
        past either end) it is cumulative itself."""
        bp = self._bp_list
        if not (bp[0] <= lo <= hi <= bp[-1]):
            return self.cumulative
        last = len(bp) - 2
        i = min(bisect_right(bp, lo) - 1, last)
        if i != min(bisect_right(bp, hi) - 1, last):
            return self.cumulative
        base, width, cum = bp[i], self._width_list[i], self._cum_list[i]
        head, *tail = self._int_rows[i]

        def on_piece(x):
            dx = x - base
            if dx <= 0.0:
                dx = 0.0
            elif dx >= width:
                dx = width
            acc = head
            for c in tail:
                acc = acc * dx + c
            return cum + acc * dx
        return on_piece

    def tail_integral(self, r) -> float:
        """Integral from r to infinity; requires the clamped right end value
        to vanish (compactly supported data)."""
        if abs(self(self.breakpoints[-1])) > 0.0:
            raise ValueError("tail integral requires a vanishing end value")
        total = self.cumulative(self.breakpoints[-1])
        return total - self.cumulative(np.minimum(r, self.breakpoints[-1]))

    # ------------------------------------------------------------------
    # structure

    @property
    def degree(self) -> int:
        return self.coeffs.shape[1] - 1

    def sup_abs(self, lo: float | None = None, hi: float | None = None) -> float:
        """Sup of |f| over [lo, hi] (defaults to the whole real line, where
        the clamped extension makes it the sup over the breakpoint range).
        Exact for degree <= 2; higher degrees add dense sampling.  The
        whole-line value is computed once per profile.

        A breakpoint b is read on both sides: f(b) on the piece to its
        right, and for lo < b <= hi also the left limit, the value of the
        piece that ends at b.  So q0 = x on [0, 1), 0 after, gives 1.0
        over the whole line, and 0.0 over [1, 2]."""
        whole = lo is None and hi is None
        if whole and self._sup_whole is not None:
            return self._sup_whole
        lo = self.breakpoints[0] if lo is None else max(lo, self.breakpoints[0])
        hi = self.breakpoints[-1] if hi is None else min(hi, self.breakpoints[-1])
        if hi < lo:
            lo = hi = min(max(lo, self.breakpoints[0]), self.breakpoints[-1])
        cand = [lo, hi]
        cand.extend(b for b in self.breakpoints if lo <= b <= hi)
        if self.degree >= 2:
            for i in range(len(self.breakpoints) - 1):
                c = self.coeffs[i]
                dcf = c[1:] * np.arange(1, len(c))
                roots = np.roots(dcf[::-1]) if len(dcf) > 1 else []
                for rt in np.atleast_1d(roots):
                    if abs(np.imag(rt)) < 1e-12:
                        x = self.breakpoints[i] + float(np.real(rt))
                        if lo <= x <= hi:
                            cand.append(x)
            if self.degree > 2:
                cand.extend(np.linspace(lo, hi, 4097))
        # one Horner pass: the candidates, then each piece ending in (lo, hi] at its width
        idx, dx = self._locate(np.asarray(cand, dtype=float))
        ends = np.flatnonzero((self.breakpoints[1:] > lo) & (self.breakpoints[1:] <= hi))
        vals = self._horner(self._deriv_cols[0], np.concatenate([idx, ends]),
                            np.concatenate([dx, self._widths[ends]]))
        out = float(np.max(np.abs(vals)))
        if whole:
            object.__setattr__(self, "_sup_whole", out)
        return out

    def _split_at(self, new_points) -> "ScalarProfile":
        """Insert breakpoints (values unchanged)."""
        pts = np.unique(np.concatenate([self.breakpoints, np.asarray(new_points)]))
        pts = pts[(pts >= self.breakpoints[0]) & (pts <= self.breakpoints[-1])]
        rows = []
        for i in range(len(pts) - 1):
            j = np.searchsorted(self.breakpoints, pts[i], side="right") - 1
            j = min(j, len(self.breakpoints) - 2)
            shift = pts[i] - self.breakpoints[j]
            rows.append(_shift_poly(self.coeffs[j], shift))
        return ScalarProfile(pts, _as_coeff_matrix(rows))

    def positive_part(self) -> "ScalarProfile":
        """max(f, 0) as a new profile (pieces split at real sign changes)."""
        roots = []
        for i in range(len(self.breakpoints) - 1):
            c = self.coeffs[i]
            nz = np.nonzero(np.abs(c) > 0)[0]
            if len(nz) == 0:
                continue
            rts = np.roots(c[: nz[-1] + 1][::-1]) if nz[-1] > 0 else []
            for rt in np.atleast_1d(rts):
                if abs(np.imag(rt)) < 1e-13:
                    x = self.breakpoints[i] + float(np.real(rt))
                    if self.breakpoints[i] < x < self.breakpoints[i + 1]:
                        roots.append(x)
        split = self._split_at(roots) if roots else self
        mids = 0.5 * (split.breakpoints[:-1] + split.breakpoints[1:])
        keep = split(mids) > 0
        coeffs = np.where(keep[:, None], split.coeffs, 0.0)
        return ScalarProfile(split.breakpoints, coeffs)

    def squared(self) -> "ScalarProfile":
        rows = [np.convolve(c, c) for c in self.coeffs]
        return ScalarProfile(self.breakpoints, _as_coeff_matrix(rows))

    def scaled(self, factor: float) -> "ScalarProfile":
        return ScalarProfile(self.breakpoints, self.coeffs * float(factor))

    def _derivative_cols(self, k: int) -> np.ndarray:
        """Per-power columns of the k-th derivative's local coefficient
        table (kept once built)."""
        tables = self._deriv_cols
        while len(tables) <= k:
            cols = tables[-1]
            dcols = cols[1:] * np.arange(1, cols.shape[0])[:, None]
            if dcols.shape[0] == 0:
                dcols = np.zeros((1, cols.shape[1]))
            tables.append(dcols)
        return tables[k]

    def times_monomial(self, k: int) -> "ScalarProfile":
        """Profile multiplied by x**k (exact, piecewise)."""
        if k == 0:
            return self
        rows = []
        for i in range(len(self.breakpoints) - 1):
            b = self.breakpoints[i]
            # x^k = sum_j C(k,j) b^(k-j) u^j in the local variable u
            mono = np.array([math.comb(k, j) * b ** (k - j) for j in range(k + 1)])
            rows.append(np.convolve(self.coeffs[i], mono))
        return ScalarProfile(self.breakpoints, _as_coeff_matrix(rows))


def _shift_poly(c, s):
    """Re-expand sum c_k x^k around x = s (binomial shift)."""
    c = np.asarray(c, dtype=float)
    d = len(c)
    out = np.zeros(d)
    for k in range(d):
        for j in range(k + 1):
            out[j] += c[k] * math.comb(k, j) * s ** (k - j)
    return out
