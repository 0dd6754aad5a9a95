import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from zpgd.specfun import (_EULER_GAMMA, DomainCase, EigenProblem,
                          InsufficientScanRangeError, bessel, bessel_all, bessel_j01,
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


def test_bessel_series_values_at_origin():
    assert bessel("J", 0, 0.0) == 1.0
    assert bessel("J", 1, 0.0) == 0.0


def test_bessel_domain_errors():
    with pytest.raises(ValueError):
        bessel("Y", 0, 0.0)
    with pytest.raises(ValueError):
        bessel("Y", 1, -1.0)
    with pytest.raises(ValueError):
        bessel("J", 0, -0.5)
    with pytest.raises(ValueError):
        bessel("K", 0, 1.0)
    with pytest.raises(ValueError):
        bessel("J", 2, 1.0)


def test_bessel_first_j0_zero_against_frozen_oracle():
    # bisection with our own evaluator must land on the frozen series value
    lo, hi = 2.0, 3.0
    f = lambda x: bessel("J", 0, x)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    assert 0.5 * (lo + hi) == pytest.approx(J0_FIRST_ZERO, abs=1e-12)


def test_bessel_against_scipy_across_ranges():
    from scipy import special

    x = np.concatenate([np.linspace(1e-6, 8, 1500),
                        np.linspace(8.001, 19.999, 1500),
                        np.linspace(20, 400, 1500)])
    j0, j1, y0, y1 = bessel_all(x)
    # the J-only path skips the Y sums but must return the same bits
    j0_only, j1_only = bessel_j01(x)
    assert np.array_equal(j0_only, j0) and np.array_equal(j1_only, j1)
    for mine, ref in ((j0, special.j0(x)), (j1, special.j1(x)),
                      (y0, special.y0(x)), (y1, special.y1(x))):
        env = np.minimum(np.sqrt(2.0 / (np.pi * x)), 1.0)
        away = np.abs(ref) > 0.05 * env
        rel = np.abs(mine[away] - ref[away]) / np.abs(ref[away])
        assert rel.max() < 1e-12
        assert np.abs(mine - ref).max() < 1e-13 * max(1.0, np.abs(ref).max() * 10)


def test_bessel_values_do_not_depend_on_the_batch():
    # a point's bits on the Miller range must not depend on which other
    # arguments share the call
    x = np.random.default_rng(5).uniform(8.0, 20.0, 2000)
    batched = bessel_all(x)
    single = np.array([[f[0] for f in bessel_all(np.array([v]))] for v in x]).T
    for name, one, many in zip(("J0", "J1", "Y0", "Y1"), single, batched):
        assert np.count_nonzero(one != many) == 0, name


def _fresh_series(x):
    # the fresh-array ascending series: u = u * (-z) / (k * k), ...
    z = 0.25 * x * x
    u, v = np.ones_like(x), np.full_like(x, 0.5)
    j0, j1x = np.ones_like(x), np.full_like(x, 0.5)
    s0, s1 = np.zeros_like(x), np.full_like(x, 0.5)
    hk, hk1 = 0.0, 1.0
    for k in range(1, 48):
        u = u * (-z) / (k * k)
        v = v * (-z) / (k * (k + 1.0))
        j0 = j0 + u
        j1x = j1x + v
        hk += 1.0 / k
        hk1 += 1.0 / (k + 1.0)
        s0 = s0 - hk * u
        s1 = s1 + (hk + hk1) * v
    with np.errstate(divide="ignore", invalid="ignore"):
        lg = np.log(0.5 * x) + _EULER_GAMMA
        y0 = (2.0 / math.pi) * (lg * j0 + s0)
        y1 = (2.0 / math.pi) * ((lg - _EULER_GAMMA) * (x * j1x) - 1.0 / x) \
            - (x / math.pi) * (s1 - 2.0 * _EULER_GAMMA * j1x)
    return j0, x * j1x, y0, y1


def _fresh_miller(x):
    # the fresh-row Miller recurrence with sign * t Neumann sums
    n, m_top = x.shape[0], 80
    table = np.zeros((m_top + 2, n))
    table[m_top] = 1.0
    for m in range(m_top, 0, -1):
        table[m - 1] = (2.0 * m / x) * table[m] - table[m + 1]
    even = np.zeros(n)
    for row in table[2:m_top:2]:
        even = even + row
    table = table / (table[0] + 2.0 * even)
    j0, j1 = table[0], table[1]
    lg = np.log(0.5 * x) + _EULER_GAMMA
    acc0, acc1, sign = np.zeros(n), np.zeros(n), 1.0
    for k in range(1, (m_top - 2) // 2):
        acc0 = acc0 + sign * table[2 * k] / k
        acc1 = acc1 + sign * (table[2 * k - 1] - table[2 * k + 1]) / k
        sign = -sign
    y0 = (2.0 / math.pi) * (lg * j0 + 2.0 * acc0)
    y1 = -(2.0 / math.pi) * (j0 / x - lg * j1) - (2.0 / math.pi) * acc1
    return j0, j1, y0, y1


def _fresh_hankel(x):
    # one order at a time, fresh arrays, signs applied as sign * t
    out = []
    for order in (0.0, 1.0):
        mu = 4.0 * order * order
        p, q, t = np.ones_like(x), np.zeros_like(x), np.ones_like(x)
        sign_p, sign_q = -1.0, 1.0
        for m in range(1, 31):
            t = t * (mu - (2.0 * m - 1.0) ** 2) / (m * 8.0 * x)
            if m % 2 == 1:
                q = q + sign_q * t
                sign_q = -sign_q
            else:
                p = p + sign_p * t
                sign_p = -sign_p
        omega = x - (2.0 * order + 1.0) * math.pi / 4.0
        amp = np.sqrt(2.0 / (math.pi * x))
        c, s = np.cos(omega), np.sin(omega)
        out.append((amp * (p * c - q * s), amp * (p * s + q * c)))
    (j0, y0), (j1, y1) = out
    return j0, j1, y0, y1


def test_regime_kernels_keep_their_bits():
    # the in-place regime loops must give the fresh-array loops' bits
    rng = np.random.default_rng(17)
    edges = []
    for cut in (8.0, 20.0):
        edges += [cut, np.nextafter(cut, 0.0), np.nextafter(cut, np.inf)]
    x = np.concatenate([rng.uniform(1e-3, 8.0, 2000), rng.uniform(8.0, 20.0, 2000),
                        rng.uniform(20.0, 900.0, 2000), edges])
    ref = [np.empty_like(x) for _ in range(4)]
    for mask, regime in ((x <= 8.0, _fresh_series), ((x > 8.0) & (x < 20.0), _fresh_miller),
                         (x >= 20.0, _fresh_hankel)):
        for dest, part in zip(ref, regime(x[mask])):
            dest[mask] = part
    names = ("J0", "J1", "Y0", "Y1")
    for name, want, got in zip(names, ref, bessel_all(x)):
        assert np.array_equal(want.view(np.int64), got.view(np.int64)), name
    for name, want, got in zip(names, ref, bessel_j01(x)):
        assert np.array_equal(want.view(np.int64), got.view(np.int64)), name


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


def test_scan_range_error():
    with pytest.raises(InsufficientScanRangeError):
        find_eigenvalues(_ball2d(0.0), 5, scan_limit=4.0)


def test_count_validation():
    with pytest.raises(ValueError):
        find_eigenvalues(_ball2d(0.0), 0)
