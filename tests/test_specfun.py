import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from zpgd.specfun import (DomainCase, EigenProblem,
                          InsufficientScanRangeError, bessel_all, bessel_j01,
                          characteristic_value, find_eigenvalues)

# Frozen oracle values: bisection on the ascending power series at 40
# decimal digits (mpmath), run before the evaluators were written; see
# _regenerate_frozen_values below.
J0_FIRST_ZERO = 2.4048255576957727686
J1_ZEROS = [3.8317059702075123156, 7.0155866698156187535,
            10.173468135062722077, 13.323691936314223032,
            16.470630050877632813, 19.615858510468242021,
            22.760084380592771898, 25.903672087618382625]
TAN_MU_EQ_MU = 4.4934094579090641753   # first root of mu cos mu - sin mu


def _regenerate_frozen_values():  # pragma: no cover - manual tool
    """High-precision bisection oracle behind the frozen literals above."""
    import mpmath as mp

    mp.mp.dps = 40

    def j_series(order, x):
        z = x * x / 4
        term = (x / 2) ** order / mp.factorial(order)
        total = term
        k = 1
        while abs(term) > mp.mpf(10) ** (-50) * max(abs(total), 1):
            term = term * (-z) / (k * (k + order))
            total += term
            k += 1
        return total

    def bisect(f, a, b):
        a, b = mp.mpf(a), mp.mpf(b)
        fa = f(a)
        for _ in range(200):
            m = (a + b) / 2
            if fa * f(m) <= 0:
                b = m
            else:
                a, fa = m, f(m)
        return (a + b) / 2

    out = {"j0_first": bisect(lambda x: j_series(0, x), 2, 3)}
    brackets = [(3.8, 3.9), (7.0, 7.1), (10.1, 10.2), (13.3, 13.4),
                (16.4, 16.5), (19.6, 19.7), (22.7, 22.8), (25.9, 26.0)]
    out["j1_zeros"] = [bisect(lambda x: j_series(1, x), lo, hi)
                       for lo, hi in brackets]
    out["tan_mu"] = bisect(lambda x: x * mp.cos(x) - mp.sin(x), 4.4, 4.6)
    return out


def test_bessel_domain_errors():
    for fn in (bessel_all, bessel_j01):
        for bad in (0.0, -1.0, np.array([0.5, -0.5])):
            with pytest.raises(ValueError, match=f"{fn.__name__} requires x > 0"):
                fn(bad)
    # NaN passes the domain check and comes back as NaN
    assert np.isnan(bessel_j01(np.array([1.0, np.nan]))[0][1])


def test_bessel_first_j0_zero_against_frozen_oracle():
    # bisection with our own evaluator must land on the frozen series value
    lo, hi = 2.0, 3.0
    f = lambda x: float(bessel_j01(x)[0][0])
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    assert 0.5 * (lo + hi) == pytest.approx(J0_FIRST_ZERO, abs=1e-12)


def test_bessel_against_mpmath_across_ranges():
    import mpmath as mp

    # about 200 points in each of x <= 8, 8 < x < 20 and x >= 20
    x = np.concatenate([np.linspace(1e-6, 8, 200),
                        np.linspace(8.001, 19.999, 200),
                        np.linspace(20, 400, 200)])
    j0, j1, y0, y1 = bessel_all(x)
    j0_only, j1_only = bessel_j01(x)
    assert np.array_equal(j0_only, j0) and np.array_equal(j1_only, j1)
    with mp.workdps(30):
        refs = [np.array([float(f(order, mp.mpf(float(v)))) for v in x])
                for f, order in ((mp.besselj, 0), (mp.besselj, 1),
                                 (mp.bessely, 0), (mp.bessely, 1))]
    for mine, ref in zip((j0, j1, y0, y1), refs):
        env = np.minimum(np.sqrt(2.0 / (np.pi * x)), 1.0)
        away = np.abs(ref) > 0.05 * env
        rel = np.abs(mine[away] - ref[away]) / np.abs(ref[away])
        assert rel.max() < 1e-12
        assert np.abs(mine - ref).max() < 1e-13 * max(1.0, np.abs(ref).max() * 10)


def test_bessel_wronskian_property():
    # J1 Y0 - J0 Y1 = 2/(pi x) for random arguments in all regimes
    rng = np.random.default_rng(11)
    x = np.concatenate([rng.uniform(0.05, 8, 80), rng.uniform(8, 20, 80),
                        rng.uniform(20, 900, 80)])
    j0, j1, y0, y1 = bessel_all(x)
    w = j1 * y0 - j0 * y1
    assert np.abs(w - 2.0 / (np.pi * x)).max() < 2e-14


def _ball2d(kr=0.0, radius=1.0, eps=1.0):
    return EigenProblem(DomainCase.BALL_2D, epsilon=eps, radius=radius,
                        q_boundary=kr * eps / radius)


def test_characteristic_value_examples():
    # Ball2D with q_B = 0 at the first J1 zero -> 0
    p = _ball2d(0.0)
    assert characteristic_value(p, J1_ZEROS[0]) == pytest.approx(0.0, abs=1e-12)
    # Ball3D with (q_B/eps) R = 1 at pi/2 -> 0 (cot(pi/2) = 0)
    p3 = EigenProblem(DomainCase.BALL_3D, epsilon=1.0, radius=1.0, q_boundary=1.0)
    assert characteristic_value(p3, math.pi / 2) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        characteristic_value(p3, -1.0)


def test_annulus3d_degenerate_roots_are_trig_ladder():
    # b1 = b2 = 0 (q1/eps = 1/R1, q2/eps = 1/R2): roots k pi / (R2 - R1)
    R1, R2, eps = 1.0, 2.5, 0.7
    p = EigenProblem(DomainCase.ANNULUS_3D, epsilon=eps, r_inner=R1, r_outer=R2,
                     q_inner=eps / R1, q_outer=eps / R2)
    lam = np.arange(1, 6) * math.pi / (R2 - R1)
    assert np.abs(characteristic_value(p, lam)).max() < 1e-9
    eigs = find_eigenvalues(p, 5)
    assert np.abs(eigs.values - lam).max() < 1e-11


def test_find_eigenvalues_ball_ladders():
    eigs = find_eigenvalues(_ball2d(0.0), 8)
    assert np.abs(eigs.values - np.array(J1_ZEROS)).max() < 1e-10
    p3 = EigenProblem(DomainCase.BALL_3D, epsilon=1.0, radius=1.0, q_boundary=0.0)
    e3 = find_eigenvalues(p3, 3)
    assert e3.values[0] == pytest.approx(TAN_MU_EQ_MU, abs=1e-12)


def test_residuals_scaled_and_sign_changes():
    for prob in (_ball2d(0.7),
                 EigenProblem(DomainCase.BALL_3D, epsilon=0.5, radius=1.3,
                              q_boundary=0.4),
                 EigenProblem(DomainCase.ANNULUS_2D, epsilon=0.8, r_inner=1.0,
                              r_outer=2.5, q_inner=0.5, q_outer=0.9),
                 EigenProblem(DomainCase.ANNULUS_3D, epsilon=0.8, r_inner=1.0,
                              r_outer=2.5, q_inner=0.5, q_outer=0.9)):
        eigs = find_eigenvalues(prob, 6)
        scaled = np.abs(eigs.residuals) / np.maximum(1.0, eigs.values)
        assert scaled.max() < 1e-10
        # simple roots: the scan function changes sign across each root
        from zpgd.specfun import _scan_function

        g = _scan_function(prob)
        d = 1e-6
        signs = g(eigs.values - d) * g(eigs.values + d)
        assert np.all(signs < 0)


def test_monotone_refinement_scan_halving():
    for prob in (_ball2d(0.3),
                 EigenProblem(DomainCase.ANNULUS_3D, epsilon=0.8, r_inner=1.0,
                              r_outer=2.5, q_inner=-0.2, q_outer=0.9)):
        base = find_eigenvalues(prob, 6)
        half = find_eigenvalues(prob, 6, scan_step=base.scan_step / 2)
        assert np.abs(base.values - half.values).max() < 1e-10


def test_eigenvalues_against_shooting_oracle():
    # brute-force two-point boundary oracle: integrate the radial ODE from
    # the inner Robin condition and bisect the outer one
    R1, R2, eps, q1, q2 = 1.0, 2.5, 0.8, 0.5, 0.9

    def shoot(lam, n_dim):
        def rhs(r, y):
            return [y[1], -(n_dim - 1) / r * y[1] - lam ** 2 * y[0]]

        sol = solve_ivp(rhs, (R1, R2), [1.0, -q1 / eps], rtol=1e-12, atol=1e-13)
        return eps * sol.y[1, -1] + q2 * sol.y[0, -1]

    for case, nd in ((DomainCase.ANNULUS_2D, 2), (DomainCase.ANNULUS_3D, 3)):
        prob = EigenProblem(case, epsilon=eps, r_inner=R1, r_outer=R2,
                            q_inner=q1, q_outer=q2)
        mine = find_eigenvalues(prob, 4).values
        for v in mine:
            ref = brentq(lambda lam: shoot(lam, nd), v - 0.05, v + 0.05, xtol=1e-12)
            assert v == pytest.approx(ref, abs=5e-12)


def test_scan_range_error(monkeypatch):
    # a scan function with no sign change finds no root below the limit
    monkeypatch.setattr("zpgd.specfun._scan_function", lambda problem: np.ones_like)
    with pytest.raises(InsufficientScanRangeError, match="found 0 of 5 roots"):
        find_eigenvalues(_ball2d(0.0), 5)


def test_count_validation():
    with pytest.raises(ValueError):
        find_eigenvalues(_ball2d(0.0), 0)


def _continued_characteristic(prob, kappa):
    """The characteristic function at mu = i kappa, up to a positive factor
    (so with its sign): -k I1 - kR I0 and k coth k + kR - 1 for the balls,
    (b1 b2 + R1 R2 k^2) sinh(k d) + k (R1 b2 + R2 b1) cosh(k d) for the
    shell, and for the planar annulus the I0/K0 Robin determinant
    exp(-2 k d) P1 - P2 in the scaled ive/kve."""
    from scipy.special import ive, kve

    k = kappa
    if prob.case == DomainCase.BALL_2D:
        return -k * ive(1, k) - prob.robin_kr * ive(0, k)
    if prob.case == DomainCase.BALL_3D:
        return k / np.tanh(k) + prob.robin_kr - 1.0
    r1, r2 = prob.r_inner, prob.r_outer
    d = r2 - r1
    if prob.case == DomainCase.ANNULUS_3D:
        b1, b2 = prob.b1, prob.b2
        return (b1 * b2 + r1 * r2 * k * k) * np.sinh(k * d) \
            + k * (r1 * b2 + r2 * b1) * np.cosh(k * d)
    a1, a2 = prob.q_inner / prob.epsilon, prob.q_outer / prob.epsilon
    p1 = (a1 * ive(0, k * r1) + k * ive(1, k * r1)) * (a2 * kve(0, k * r2) - k * kve(1, k * r2))
    p2 = (a2 * ive(0, k * r2) + k * ive(1, k * r2)) * (a1 * kve(0, k * r1) - k * kve(1, k * r1))
    return np.exp(-2.0 * k * d) * p1 - p2


def test_growing_mode_rule_matches_continued_characteristic_function():
    # the closed-form rule against a sign change of the characteristic
    # function on the imaginary axis, on a dense geometric kappa grid
    rng = np.random.default_rng(11)
    kappa = np.geomspace(1e-5, 60.0, 4001)
    growing = {case: 0 for case in DomainCase}
    for _ in range(60):
        for case in DomainCase:
            eps = float(rng.uniform(0.2, 1.0))
            r1 = float(rng.uniform(0.3, 1.5))
            r2 = r1 + float(rng.uniform(0.3, 1.5))
            q1, q2 = rng.uniform(-1.5, 1.5, 2)
            prob = EigenProblem(case, epsilon=eps, radius=r2, q_boundary=q2) \
                if not case.is_annulus else \
                EigenProblem(case, epsilon=eps, r_inner=r1, r_outer=r2,
                             q_inner=q1, q_outer=q2)
            v = _continued_characteristic(prob, kappa)
            flips = bool(np.any(np.sign(v[:-1]) * np.sign(v[1:]) < 0))
            assert prob.has_growing_mode == flips, prob
            growing[case] += flips
    # both outcomes occur in every case
    assert all(0 < g < 60 for g in growing.values())
    # the shell of the bounded tests: q_inner 0.45 has no growing mode, 0.5 one
    for q_inner, expect in ((0.45, False), (0.5, True)):
        prob = EigenProblem(DomainCase.ANNULUS_3D, epsilon=0.6, r_inner=1.0,
                            r_outer=2.0, q_inner=q_inner, q_outer=0.2)
        assert prob.has_growing_mode is expect
