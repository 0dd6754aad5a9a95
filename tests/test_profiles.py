import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from helpers import derivative_profile
from zpgd.profiles import ScalarProfile


def test_constant_and_clamp():
    p = ScalarProfile.constant(2.5)
    assert p(0.0) == 2.5
    assert p(17.0) == 2.5
    assert p(-3.0) == 2.5


def test_piecewise_linear_eval():
    p = ScalarProfile.piecewise_linear([0.0, 1.0, 3.0], [0.0, 2.0, 0.0])
    assert p(0.5) == pytest.approx(1.0)
    assert p(2.0) == pytest.approx(1.0)
    assert p(5.0) == 0.0          # clamped at the end value
    vals = p(np.array([0.25, 1.0, 2.5]))
    assert vals == pytest.approx([0.5, 2.0, 0.5])


def test_cumulative_matches_numeric_integral():
    rng = np.random.default_rng(3)
    bps = np.sort(rng.uniform(0.0, 3.0, 5))
    bps[0] = 0.0
    rows = [list(rng.uniform(-1, 1, 3)) for _ in range(4)]
    # make the profile continuous so the trapezoid oracle converges fast
    for i in range(1, 4):
        left_end = np.polynomial.polynomial.polyval(bps[i] - bps[i - 1], rows[i - 1])
        rows[i][0] = left_end
    p = ScalarProfile.from_pieces(bps, rows)
    for x in rng.uniform(0.0, 3.5, 12):
        grid = np.linspace(bps[0], x, 20001)
        numeric = np.trapezoid(p(grid), grid)
        assert p.cumulative(x) == pytest.approx(numeric, abs=2e-7)


def test_cumulative_outside_range_is_linear():
    p = ScalarProfile.piecewise_linear([0.0, 1.0], [1.0, 3.0])
    assert p.cumulative(2.0) == pytest.approx(2.0 + 3.0)  # area + clamp tail
    assert p.cumulative(-1.0) == pytest.approx(-1.0)      # left clamp value 1


def test_tail_integral_requires_vanishing_end():
    p = ScalarProfile.piecewise_linear([0.0, 1.0, 2.0], [1.0, 1.0, 0.0])
    assert p.tail_integral(0.0) == pytest.approx(1.5)
    assert p.tail_integral(1.0) == pytest.approx(0.5)
    assert p.tail_integral(5.0) == 0.0
    bad = ScalarProfile.constant(1.0)
    with pytest.raises(ValueError):
        bad.tail_integral(0.0)


def test_positive_part_and_squared():
    p = ScalarProfile.piecewise_linear([0.0, 1.0, 2.0], [1.0, -1.0, 1.0])
    plus = p.positive_part()
    xs = np.linspace(0, 2, 501)
    assert plus(xs) == pytest.approx(np.maximum(p(xs), 0.0), abs=1e-12)
    sq = p.squared()
    assert sq(xs) == pytest.approx(p(xs) ** 2, abs=1e-12)


def _acceptance_bump():
    # the smooth bump q0 of the acceptance suite: x (1 - x^2/4)^4 / 2 on [0, 2]
    coeffs = 0.5 * P.polymul([0.0, 1.0], P.polypow([1.0, 0.0, -0.25], 4))
    return ScalarProfile.from_pieces([0.0, 2.0, 3.0], [list(coeffs), [0.0]])


@pytest.mark.parametrize("prof", [
    ScalarProfile.constant(2.5),
    ScalarProfile.from_pieces([0.0, 1.0, 2.0], [[1.0], [0.0]]),
    ScalarProfile.piecewise_linear([0.0, 0.8, 1.6, 2.6], [0.9, 0.3, -0.6, 0.4]),
    ScalarProfile.piecewise_linear([0.5, 1.0, 3.0], [-1.0, 2.0, 0.25]),
    derivative_profile(_acceptance_bump()),
    _acceptance_bump(),
    # a -0.0 constant term: the value at x = -0.0 is +0.0 only if the clamp
    # maps the offset -0.0 to +0.0 (1.0 * -0.0 + -0.0 would be -0.0)
    ScalarProfile.from_pieces([0.0, 1.0], [[-0.0, 1.0]]),
], ids=["deg0-const", "deg0-step", "deg1", "deg1-offset", "deg8", "deg9-bump",
        "deg1-signed-zero"])
def test_scalar_path_is_bit_identical_to_array_path(prof):
    bp = prof.breakpoints
    xs = [*bp, *(bp[:-1] + 0.5 * prof._widths), *(bp[:-1] + 0.3 * prof._widths),
          bp[0] - 0.7, bp[-1] + 1.3, -0.0]
    for x in xs:
        for f in (prof, prof.cumulative):
            ref = f(np.array([x]))[0]
            for arg in (float(x), np.float64(x), np.array(x)):
                got = f(arg)
                assert type(got) is float
                assert got == ref
                assert math.copysign(1.0, got) == math.copysign(1.0, ref)


def _bundled_profiles():
    from zpgd import cli

    out = []
    for name, _ in cli.bundled_scenarios():
        problem = cli.parse_config(cli.resolve_config(name)).get("problem", {})
        out += [(f"{name}.{key}", cli.profile_from_config(sec, key))
                for key, sec in problem.items() if isinstance(sec, dict)]
    return out


def test_cumulative_at_infinity_is_the_zero_extension_integral():
    # a tail with a zero end value adds a zero, not inf * 0 = NaN; a
    # nonzero end value gives the infinity of its sign, on both paths
    profiles = _bundled_profiles()
    assert len(profiles) == 30
    zero_ends = 0
    for name, prof in profiles:
        for x, end, total in ((-math.inf, prof(prof.breakpoints[0]), 0.0),
                              (math.inf, prof(prof.breakpoints[-1]), prof._cum[-1])):
            ref = prof.cumulative(np.array([x]))[0]
            got = prof.cumulative(x)
            assert type(got) is float
            assert got == ref and math.copysign(1.0, got) == math.copysign(1.0, ref), name
            if end == 0.0:
                zero_ends += 1
                assert got == total, name
            else:
                assert got == math.copysign(math.inf, x * end), name
    assert zero_ends >= 10


def test_sup_abs_quadratic_interior_extremum():
    # f = x(2-x) on [0,2]: max 1 at the interior vertex
    p = ScalarProfile.from_pieces([0.0, 2.0], [[0.0, 2.0, -1.0]])
    assert p.sup_abs() == pytest.approx(1.0, abs=1e-12)


def test_times_monomial():
    p = ScalarProfile.piecewise_linear([0.0, 1.0, 2.0], [1.0, 2.0, 0.0])
    q = p.times_monomial(2)
    xs = np.linspace(0, 2, 301)
    assert q(xs) == pytest.approx(p(xs) * xs ** 2, abs=1e-12)


def test_derivative_profile():
    p = ScalarProfile.from_pieces([0.0, 2.0], [[1.0, 3.0, -1.0]])
    d = derivative_profile(p)
    assert d(0.5) == pytest.approx(3.0 - 1.0)


@st.composite
def _piecewise_polynomial(draw):
    degree = draw(st.integers(0, 7))
    gaps = draw(st.lists(st.floats(0.05, 2.0), min_size=1, max_size=5))
    start = draw(st.floats(-2.0, 2.0))
    coeff = st.floats(-10.0, 10.0)
    rows = [draw(st.lists(coeff, min_size=degree + 1, max_size=degree + 1))
            for _ in gaps]
    return ScalarProfile.from_pieces(start + np.concatenate([[0.0], np.cumsum(gaps)]),
                                     rows)


@settings(max_examples=200, deadline=None)
@given(prof=_piecewise_polynomial(), fractions=st.lists(st.floats(0.0, 1.0), max_size=8),
       data=st.data())
def test_with_derivatives_matches_repeated_derivative_profile(prof, fractions, data):
    bp = prof.breakpoints
    lo, hi = bp[0], bp[-1]
    # inside the range, on every breakpoint and beyond both clamped ends
    x = np.array([*bp, *(lo + np.asarray(fractions) * (hi - lo)),
                  lo - 0.7, hi + 1.3, lo - 1e-300, hi + 1e-9])
    k = data.draw(st.integers(0, prof.degree + 1), label="k")
    rows = prof.with_derivatives(x, k)
    assert len(rows) == k + 1
    d = prof
    for j, row in enumerate(rows):
        ref = d(x)
        assert row.shape == x.shape
        assert np.array_equal(row.view(np.int64), ref.view(np.int64)), j
        nxt = derivative_profile(d)
        # the table differentiated term by term, one power at a time
        dcf = d.coeffs[:, 1:] * np.arange(1, d.coeffs.shape[1])
        assert np.array_equal(nxt.coeffs, dcf if dcf.size else np.zeros((len(dcf), 1)))
        d = nxt
    if k == prof.degree + 1:
        assert not np.any(rows[-1])


def _reference_locate(bp, x):
    """Piece and clamped offset as the array kernel found them before: a
    clipped searchsorted index and np.clip with per-point upper bounds."""
    idx = np.clip(np.searchsorted(bp, x, side="right") - 1, 0, len(bp) - 2)
    return idx, np.clip(x - bp[idx], 0.0, np.diff(bp)[idx])


def _reference_horner(cf, idx, dx):
    """Horner with one 2-D gather per coefficient."""
    d = cf.shape[1]
    acc = cf[idx, d - 1]
    for k in range(d - 2, -1, -1):
        acc = acc * dx + cf[idx, k]
    return acc


def _reference_cumulative(prof, x):
    bp, cf = prof.breakpoints, prof.coeffs
    ks = np.arange(1, cf.shape[1] + 1)
    cum = np.concatenate([[0.0], np.cumsum(((cf / ks) * np.diff(bp)[:, None] ** ks).sum(axis=1))])
    idx, dx = _reference_locate(bp, x)
    out = cum[idx] + _reference_horner(cf / ks, idx, dx) * dx
    ends = _reference_horner(cf, *_reference_locate(bp, bp[[0, -1]]))
    out = np.where(x < bp[0], (x - bp[0]) * ends[0], out)
    return np.where(x > bp[-1], cum[-1] + (x - bp[-1]) * ends[1], out)


def _same_bits(got, want):
    return (got.shape == want.shape
            and np.array_equal(got.view(np.int64), want.view(np.int64)))


@settings(max_examples=200, deadline=None)
@given(prof=_piecewise_polynomial(), fractions=st.lists(st.floats(0.0, 1.0), max_size=8),
       rnd=st.randoms(use_true_random=False))
# x = -0.0 against a breakpoint at +0.0 and a -0.0 constant term
@example(prof=ScalarProfile.from_pieces([0.0, 1.0], [[-0.0, 1.0]]), fractions=[],
         rnd=random.Random(0))
def test_array_kernel_matches_gather_and_clip_formula_bit_for_bit(prof, fractions, rnd):
    bp = prof.breakpoints
    lo, hi = bp[0], bp[-1]
    pts = [*bp, *(lo + np.asarray(fractions) * (hi - lo)), lo - 0.7, hi + 1.3,
           lo - 1e-300, hi + 1e-9, math.nan, 0.0, -0.0]
    # unsorted, with repeats
    pts += pts[: len(pts) // 2]
    rnd.shuffle(pts)
    x = np.array(pts + pts[:1] if len(pts) % 2 else pts)
    for xs in (x, x.reshape(2, -1)):
        idx, dx = _reference_locate(bp, xs)
        assert _same_bits(prof(xs), _reference_horner(prof.coeffs, idx, dx))
        assert _same_bits(prof.cumulative(xs), _reference_cumulative(prof, xs))
        cf = prof.coeffs
        for row in prof.with_derivatives(xs, prof.degree + 1):
            assert _same_bits(row, _reference_horner(cf, idx, dx))
            cf = cf[:, 1:] * np.arange(1, cf.shape[1])
            if cf.shape[1] == 0:
                cf = np.zeros((cf.shape[0], 1))


@settings(max_examples=200, deadline=None)
@given(prof=_piecewise_polynomial(), fractions=st.lists(st.floats(0.0, 1.0), max_size=8),
       zero_ends=st.booleans())
@example(prof=ScalarProfile.from_pieces([0.0, 1.0], [[-0.0, 1.0]]), fractions=[],
         zero_ends=False)
def test_value_and_cumulative_is_call_and_cumulative_bit_for_bit(prof, fractions, zero_ends):
    if zero_ends:
        # zero pieces at both ends: zero end values, whose clamped tails add
        # signed zeros (also at -inf and +inf, where (x - end) * 0.0 is NaN)
        bp, zero = prof.breakpoints, np.zeros((1, prof.coeffs.shape[1]))
        prof = ScalarProfile(np.concatenate([[bp[0] - 1.0], bp, [bp[-1] + 1.0]]),
                             np.vstack([zero, prof.coeffs, zero]))
    bp = prof.breakpoints
    lo, hi = bp[0], bp[-1]
    # below, on and above every breakpoint, inside the pieces, beyond both ends
    x = np.array([*bp, *np.nextafter(bp, -math.inf), *np.nextafter(bp, math.inf),
                  *(lo + np.asarray(fractions) * (hi - lo)), lo - 0.7, hi + 1.3,
                  0.0, -0.0, math.nan, math.inf, -math.inf])
    value, integral = prof._value_and_cumulative(x)
    assert _same_bits(value, prof(x))
    assert _same_bits(integral, prof.cumulative(x))


def _bits(v):
    return np.float64(v).tobytes()


@settings(max_examples=200, deadline=None)
@given(prof=_piecewise_polynomial(), fractions=st.lists(st.floats(0.0, 1.0), max_size=6))
# rows of -0.0 coefficients and Horner products that are -0.0: at x = 1
# the piece-1 value is cum[1] + (-1.0 * 0.0)
@example(prof=ScalarProfile.from_pieces([0.0, 1.0, 2.0], [[-0.0], [-1.0, -0.0]]),
         fractions=[0.0, 1.0])
@example(prof=ScalarProfile.from_pieces([0.0, 1.0], [[-0.0, 1.0]]), fractions=[])
def test_cumulative_on_piece_is_cumulative_bit_for_bit(prof, fractions):
    bp = prof.breakpoints.tolist()
    m = len(bp) - 1
    for i in range(m):
        # closed brackets inside piece i: from its breakpoint to one ulp
        # below the next one (to the last breakpoint itself on the last piece)
        top = bp[i + 1] if i == m - 1 else math.nextafter(bp[i + 1], -math.inf)
        mid = bp[i] + 0.5 * (top - bp[i])
        for lo, hi in ((bp[i], top), (bp[i], mid), (mid, top), (mid, mid)):
            f = prof._cumulative_on_piece(lo, hi)
            assert f != prof.cumulative
            # lo + q * (hi - lo) can round past hi
            xs = [lo, hi, *(min(lo + q * (hi - lo), hi) for q in fractions)]
            if lo == 0.0:
                xs.append(-0.0)
            for x in xs:
                assert _bits(f(x)) == _bits(prof.cumulative(x)), (i, lo, hi, x)
        # a breakpoint inside the bracket, or a bracket reaching past an end
        if i < m - 1:
            assert prof._cumulative_on_piece(bp[i], bp[i + 1]) == prof.cumulative
            assert prof._cumulative_on_piece(mid, bp[i + 2]) == prof.cumulative
    assert prof._cumulative_on_piece(bp[-1], bp[-1] + 1.0) == prof.cumulative
    assert prof._cumulative_on_piece(bp[0] - 1.0, bp[0]) == prof.cumulative
    assert prof._cumulative_on_piece(bp[-1] + 1.0, bp[-1] + 2.0) == prof.cumulative
    assert prof._cumulative_on_piece(bp[1], bp[0]) == prof.cumulative
    assert prof._cumulative_on_piece(math.nan, bp[0]) == prof.cumulative


def test_validation():
    with pytest.raises(ValueError):
        ScalarProfile(np.array([1.0, 0.5]), np.array([[1.0]]))
    with pytest.raises(ValueError):
        ScalarProfile.piecewise_linear([0.0], [1.0])
