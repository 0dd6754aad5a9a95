import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from scipy.integrate import solve_ivp

from helpers import derivative_profile, truncation_check
from residuals import heat_residual, sample, velocity_from_hopf_cole, viscous_residual
from zpgd import bounded_green as bg
from zpgd import oracles as orc
from zpgd.profiles import ScalarProfile
from zpgd.radial_core import RadialField
from zpgd.specfun import DomainCase, bessel_all, bessel_j01, find_eigenvalues

CASES = {
    DomainCase.BALL_2D: dict(radius=1.0, q_boundary=0.3),
    DomainCase.BALL_3D: dict(radius=1.0, q_boundary=0.25),
    DomainCase.ANNULUS_2D: dict(r_inner=0.7, r_outer=1.9, q_inner=-0.2, q_outer=0.35),
    DomainCase.ANNULUS_3D: dict(r_inner=0.8, r_outer=2.1, q_inner=-0.3, q_outer=0.45),
}


def smooth_rho():
    base = P.polypow([1.0, 0.0, -0.25], 4)
    return ScalarProfile.from_pieces([0.0, 2.0, 3.0], [list(base), [0.0]])


def smoothstep_q0(R, qb):
    # q0(R) = qb with q0'(R) = 0, q0(0) = 0: first-order consistent data
    return ScalarProfile.from_pieces([0.0, R, 2 * R],
                                     [[0.0, 0.0, 3 * qb / R ** 2, -2 * qb / R ** 3],
                                      [qb]])


def ball3d_problem(eps=0.5, qb=0.25, R=1.0):
    return bg.BoundedProblem(DomainCase.BALL_3D, eps, smoothstep_q0(R, qb),
                             smooth_rho(), radius=R, q_boundary=qb)


def test_neumann_trivial_all_cases():
    # q0 == 0, zero wall velocities: a stays 1 and the velocity vanishes
    for case, kw in CASES.items():
        kw0 = {k: (0.0 if k.startswith("q_") else v) for k, v in kw.items()}
        pr = bg.BoundedProblem(case, 0.5, ScalarProfile.zero(),
                               ScalarProfile.constant(1.0), **kw0)
        st = bg.hopf_cole_boundary_state(pr)
        a, b = pr.domain
        rr = np.linspace(a + 0.05 * (b - a), b - 0.05 * (b - a), 9)
        assert np.abs(st.evaluate(rr, 0.4) - 1.0).max() < 1e-12
        assert np.abs(st.velocity(rr, 0.8)).max() < 1e-12
        assert bg.large_time_velocity(st.ev, rr[3]) == 0.0


def test_normalizations_match_tabulated_coefficients():
    # closed-form eigenfunction norms against the tabulated per-term
    # coefficient expressions, at the computed eigenvalues
    pr = bg.BoundedProblem(DomainCase.BALL_2D, 0.8, ScalarProfile.zero(),
                           ScalarProfile.constant(1.0), radius=1.3, q_boundary=0.4)
    mu = find_eigenvalues(pr.eigen, 10).values
    kr = pr.eigen.robin_kr
    j0, j1, _, _ = bessel_all(mu)
    printed = (2.0 / pr.radius ** 2) * mu ** 2 / ((kr ** 2 + mu ** 2) * j0 ** 2)
    inv_norms = 1.0 / bg._eigen_norms(pr, mu, mu / pr.radius)
    assert np.abs(printed / inv_norms - 1).max() < 1e-12

    pr3 = bg.BoundedProblem(DomainCase.BALL_3D, 0.6, ScalarProfile.zero(),
                            ScalarProfile.constant(1.0), radius=1.1, q_boundary=0.5)
    mu3 = find_eigenvalues(pr3.eigen, 10).values
    kr3 = pr3.eigen.robin_kr
    printed3 = (2.0 / pr3.radius) * (mu3 ** 2 + (kr3 - 1) ** 2) \
        / (mu3 ** 2 + kr3 * (kr3 - 1))
    assert np.abs(printed3 * bg._eigen_norms(pr3, mu3, mu3 / pr3.radius) - 1).max() < 1e-12

    pra = bg.BoundedProblem(DomainCase.ANNULUS_3D, 0.7, ScalarProfile.zero(),
                            ScalarProfile.constant(1.0), **CASES[DomainCase.ANNULUS_3D])
    lam = find_eigenvalues(pra.eigen, 10).values
    b1, b2 = pra.eigen.b1, pra.eigen.b2
    R1, R2 = pra.r_inner, pra.r_outer
    d = R2 - R1
    denom = (d * (b1 ** 2 + R1 ** 2 * lam ** 2) * (b2 ** 2 + R2 ** 2 * lam ** 2)
             + (b1 * R2 + b2 * R1) * (b1 * b2 + R1 * R2 * lam ** 2))
    printed_a = 2.0 * (b2 ** 2 + R2 ** 2 * lam ** 2) / denom
    assert np.abs(printed_a * bg._eigen_norms(pra, lam, lam) - 1).max() < 1e-11

    pr2a = bg.BoundedProblem(DomainCase.ANNULUS_2D, 0.9, ScalarProfile.zero(),
                             ScalarProfile.constant(1.0), **CASES[DomainCase.ANNULUS_2D])
    lam = find_eigenvalues(pr2a.eigen, 10).values
    a1 = pr2a.q_inner / pr2a.epsilon
    a2 = pr2a.q_outer / pr2a.epsilon
    R1, R2 = pr2a.r_inner, pr2a.r_outer
    j0o, j1o, y0o, y1o = bessel_all(lam * R2)
    j0i, j1i, _, _ = bessel_all(lam * R1)
    d2 = a2 * j0o - lam * j1o
    bn = ((lam ** 2 + a2 ** 2) * (-a1 * j0i + lam * j1i) ** 2
          - (lam ** 2 + a1 ** 2) * (a2 * j0o - lam * j1o) ** 2)
    printed_2a = (math.pi ** 2 / 2.0) * lam ** 2 * d2 ** 2 / bn
    assert np.abs(printed_2a * bg._eigen_norms(pr2a, lam, lam) - 1).max() < 1e-10


def test_green_symmetry_weight_adjusted():
    rng = np.random.default_rng(4)
    for case, kw in CASES.items():
        pr = bg.BoundedProblem(case, 0.6, ScalarProfile.zero(),
                               ScalarProfile.constant(1.0), **kw)
        ev = bg.build_green_evaluator(pr)
        a, b = pr.domain
        n = pr.n
        for _ in range(100):
            r, xi = rng.uniform(a + 0.02 * (b - a), b - 0.02 * (b - a), 2)
            t = float(rng.uniform(max(0.05, ev.t_floor), 2.0))
            g1 = bg.green(ev, r, xi, t) / xi ** (n - 1)
            g2 = bg.green(ev, xi, r, t) / r ** (n - 1)
            assert abs(g1 - g2) <= 1e-12 * max(abs(g1), 1.0)


def test_green_time_domain_error():
    from zpgd.freespace import TimeDomainError

    pr = ball3d_problem()
    ev = bg.build_green_evaluator(pr)
    with pytest.raises(TimeDomainError):
        bg.green(ev, 0.5, 0.5, 0.0)


def test_green_large_time_one_term_dominance():
    pr = ball3d_problem()
    ev = bg.build_green_evaluator(pr)
    lam = ev.rates
    t = 2.0 * (2.0 * pr.radius ** 2) / pr.epsilon
    terms = ev._terms(0.5, 0.6, t)
    bound = math.exp(-0.5 * pr.epsilon * (lam[1] ** 2 - lam[0] ** 2) * t)
    assert abs(terms[1:]).sum() / abs(terms[0]) <= 2.0 * bound


def test_heat_kernel_property_against_fd_oracle():
    # int G(r, xi, t) f(xi) dxi ~ f evolved by the FD heat solver at small t
    pr = ball3d_problem(eps=0.5, qb=0.25)
    ev = bg.build_green_evaluator(pr)
    f = lambda r: np.exp(-((r - 0.5) / 0.22) ** 2)
    t = 0.01
    cells, a_fd = orc.fd_heat_solve(3, pr.epsilon, f, t, pr.radius,
                                    q_outer=pr.q_boundary, n_cells=1600)
    x, w = np.polynomial.legendre.leggauss(10)
    edges = np.linspace(0.0, pr.radius, 121)
    probe = np.linspace(0.15, 0.85, 8)
    for r in probe:
        total = 0.0
        for i in range(120):
            mid = 0.5 * (edges[i] + edges[i + 1])
            half = 0.5 * (edges[i + 1] - edges[i])
            xi = mid + half * x
            gv = np.array([bg.green(ev, float(r), float(z), t) for z in xi])
            total += half * float((gv * f(xi)) @ w)
        ref = np.interp(r, cells, a_fd)
        assert total == pytest.approx(ref, abs=3e-4)


def test_truncation_check_below_tolerance():
    pr = ball3d_problem()
    ev = bg.build_green_evaluator(pr)
    assert truncation_check(ev, 0.4, 0.7, ev.t_floor) < 1e-14


def test_hopf_cole_state_heat_residual_refines():
    pr = ball3d_problem()
    st = bg.hopf_cole_boundary_state(pr)

    def resid(nr, nt):
        gr = np.linspace(0.05, 0.95, nr)
        gt = np.linspace(0.1, 0.5, nt)
        state = sample(st, gr, gt)
        return np.abs(heat_residual(state, pr.epsilon, 3)).max() / np.abs(state.a).max()

    coarse, fine = resid(41, 41), resid(81, 81)
    assert math.log2(coarse / fine) > 1.8


def test_linearization_round_trip():
    # a sampled Hopf-Cole state with small heat residual must yield, via
    # q = -eps a_r/a, a velocity with a viscous residual of the same
    # discretization order
    pr = ball3d_problem()
    st = bg.hopf_cole_boundary_state(pr)

    def residuals(nr, nt):
        gr = np.linspace(0.1, 0.9, nr)
        gt = np.linspace(0.2, 0.6, nt)
        state = sample(st, gr, gt)
        heat = np.abs(heat_residual(state, pr.epsilon, 3)).max() \
            / np.abs(state.a).max()
        q = velocity_from_hopf_cole(state, pr.epsilon)
        fld = RadialField(3, pr.epsilon, gr, gt, q, np.ones_like(q))
        visc = np.abs(viscous_residual(fld)[0]).max()
        return heat, visc

    h1, v1 = residuals(41, 41)
    h2, v2 = residuals(81, 81)
    assert math.log2(h1 / h2) > 1.7
    assert math.log2(v1 / v2) > 1.7
    assert v1 < 5e-2


def test_robin_residual_small():
    for case in (DomainCase.BALL_2D, DomainCase.ANNULUS_3D):
        kw = CASES[case]
        pr = bg.BoundedProblem(case, 0.6, ScalarProfile.zero(),
                               ScalarProfile.constant(1.0), **kw)
        st = bg.hopf_cole_boundary_state(pr)
        assert st.robin_residual(0.5) < 1e-12


def test_boundary_attainment():
    pr = ball3d_problem()
    st = bg.hopf_cole_boundary_state(pr)
    assert st.velocity(pr.radius * (1 - 1e-9), 1.0) == pytest.approx(0.25, abs=1e-6)


def test_large_time_velocity_matches_series():
    pr = ball3d_problem()
    st = bg.hopf_cole_boundary_state(pr)
    mu1 = st.ev.eigs.values[0]
    t_big = 50.0 / pr.epsilon * pr.radius ** 2 / mu1 ** 2
    for r in (0.3, 0.6, 0.9):
        lt = bg.large_time_velocity(st.ev, r)
        assert st.velocity(r, t_big) == pytest.approx(lt, rel=1e-10)


def test_density_trivial_and_batch_consistency():
    rho0 = ScalarProfile.from_pieces([0.0, 1.0], [[1.0, 0.0, -0.5]])
    pz = bg.BoundedProblem(DomainCase.BALL_3D, 0.5, ScalarProfile.zero(), rho0,
                           radius=1.0)
    st = bg.hopf_cole_boundary_state(pz)
    rr = np.array([0.2, 0.5, 0.9])
    assert bg.density_batch(st, rr, 0.7) == pytest.approx(rho0(rr), rel=1e-8)
    pr = ball3d_problem()
    st2 = bg.hopf_cole_boundary_state(pr)
    rr = np.linspace(0.1, 0.9, 7)
    batch = bg.density_batch(st2, rr, 0.8)
    point = np.array([_reference_density(st2, float(r), 0.8, rtol=1e-8) for r in rr])
    assert np.abs(batch / point - 1).max() < 1e-6


def _reference_density(st, r, t, rtol):
    """Pointwise rho(r, t) from scipy's solve_ivp with wall events: the
    characteristic runs back from (r, t) to the initial data or to the
    first wall it meets, where the wall's density trace takes over."""
    pr = st.ev.problem
    a, b = pr.domain

    def rhs(s, y):
        beta = min(max(y[0], a + 1e-13 * (b - a)), b - 1e-13 * (b - a))
        q, dq = st.velocity_and_derivative(beta, s)
        return [float(q[0]), float(dq[0])]

    def hit(wall):
        def event(s, y):
            return y[0] - wall.r
        event.terminal = True
        return event

    sol = solve_ivp(rhs, (t, 0.0), [r, 0.0], rtol=rtol, atol=1e-12,
                    events=[hit(w) for w in pr.walls], max_step=max(t / 8, 1e-3))
    assert sol.success
    if sol.status == 1:
        wall = next(w for w, ts in zip(pr.walls, sol.t_events) if ts.size)
        p_gamma = wall.p(float(sol.t[-1]))
    else:
        p_gamma = pr.p0_profile()(float(sol.y[0, -1]))
    return p_gamma * math.exp(sol.y[1, -1]) / r ** (pr.n - 1)


def no_inflow_problem(case, eps=0.5):
    # smoothstep q0 from the first wall's velocity (0 at a ball's centre) to
    # the outer wall's, flat at both ends; CASES walls are all no-inflow
    kw = CASES[case]
    if case.is_annulus:
        a, b, qa, qb = kw["r_inner"], kw["r_outer"], kw["q_inner"], kw["q_outer"]
    else:
        a, b, qa, qb = 0.0, kw["radius"], 0.0, kw["q_boundary"]
    d, jump = b - a, qb - qa
    q0 = ScalarProfile.from_pieces(
        [a, b, b + d], [[qa, 0.0, 3 * jump / d ** 2, -2 * jump / d ** 3], [qb]])
    return bg.BoundedProblem(case, eps, q0, smooth_rho(), **kw)


@pytest.mark.parametrize("case", list(CASES), ids=lambda c: c.value)
def test_velocity_derivative_fd_vs_fused(case):
    st = bg.hopf_cole_boundary_state(no_inflow_problem(case))
    a, b = st.ev.problem.domain
    t = 0.7
    assert t > st.time_floor
    rr = np.linspace(a + 0.15 * (b - a), a + 0.9 * (b - a), 9)
    _, dq = st.velocity_and_derivative(rr, t)
    # centered differences of the series velocity, clipped to the domain
    h = 1e-6 * (b - a)
    lo = np.maximum(rr - h, a + 1e-12 * (b - a))
    hi = np.minimum(rr + h, b - 1e-12 * (b - a))
    dq_fd = (st.velocity(hi, t) - st.velocity(lo, t)) / (hi - lo)
    assert np.abs(dq - dq_fd).max() < 1e-6


def test_mass_flux_identity_ball_and_annulus():
    pr = ball3d_problem()
    st = bg.hopf_cole_boundary_state(pr)
    rows = bg.mass_flux_report(st, [0.8])
    assert abs(rows[0][3]) < 1e-4
    # annulus, outflow at both walls
    q0 = ScalarProfile.from_pieces([1.0, 2.0, 3.0],
                                   [[-0.2, 0.0, 1.2, -0.8], [0.2]])
    pra = bg.BoundedProblem(DomainCase.ANNULUS_3D, 0.6, q0,
                            ScalarProfile.constant(1.0), r_inner=1.0,
                            r_outer=2.0, q_inner=-0.2, q_outer=0.2)
    sta = bg.hopf_cole_boundary_state(pra)
    rows = bg.mass_flux_report(sta, [0.8])
    assert abs(rows[0][3]) < 1e-4


def _inflow_annulus(rho_inner):
    # inflow at the inner wall (q_inner > 0), gentle enough that the Robin
    # spectrum stays positive and the series is complete
    q0 = ScalarProfile.from_pieces([1.0, 2.0, 3.0],
                                   [[0.15, 0.0, 0.15, -0.1], [0.2]])
    return bg.BoundedProblem(DomainCase.ANNULUS_3D, 0.6, q0,
                             ScalarProfile.constant(1.0), r_inner=1.0,
                             r_outer=2.0, q_inner=0.15, q_outer=0.2,
                             rho_inner=rho_inner)


def test_inflow_wall_requires_density():
    # the ball cannot host an inflow wall at all (growing Robin mode)
    with pytest.raises(ValueError):
        bg.BoundedProblem(DomainCase.BALL_3D, 0.5, ScalarProfile.zero(),
                          smooth_rho(), radius=1.0, q_boundary=-0.3)
    with pytest.raises(ValueError):
        _inflow_annulus(rho_inner=None)
    # with the wall density supplied, backward characteristics exiting the
    # inner wall pick up the boundary trace
    pr = _inflow_annulus(rho_inner=ScalarProfile.constant(0.7))
    st = bg.hopf_cole_boundary_state(pr)
    val = bg.density_batch(st, [1.05], 1.5)
    assert np.isfinite(val) and val > 0


def _inflow_outer_shell():
    # inflow at the outer wall (q_outer < 0) and outflow at the inner one
    q0 = ScalarProfile.piecewise_linear([1.0, 2.0], [-1.0, -0.1])
    return bg.BoundedProblem(DomainCase.ANNULUS_3D, 0.6, q0,
                             ScalarProfile.constant(1.0), r_inner=1.0,
                             r_outer=2.0, q_inner=-1.0, q_outer=-0.1,
                             rho_outer=ScalarProfile.constant(0.7))


def test_inflow_exit_matches_solve_ivp_reference(monkeypatch):
    # inner wall: 1.01 and 1.05 leave through it at both times, 1.2 only at
    # t = 1.5, and 1.5 and 1.95 reach the initial data.  The exiting traces
    # read <= 4.6e-9; locating the exit on a linear instead of the cubic
    # Hermite interpolant of the step gives 6.1e-8.  Outer wall: 1.97 and
    # 1.99 leave through it at both times, 1.9 only at t = 1.5; the gaps
    # read <= 5.2e-7 overall and <= 2.7e-8 on the exiting traces.  The batch
    # traces at a step-error tolerance of 1e-10.
    monkeypatch.setattr("zpgd.freespace._RK_RTOL", 1e-10)
    for problem, rr, runs, tol, exit_tol in (
            (_inflow_annulus(ScalarProfile.constant(0.7)), [1.01, 1.05, 1.2, 1.5, 1.95],
             ((0.8, slice(0, 2)), (1.5, slice(0, 3))), 2e-7, 2e-8),
            (_inflow_outer_shell(), [1.3, 1.7, 1.9, 1.97, 1.99],
             ((0.5, slice(3, 5)), (1.5, slice(2, 5))), 1e-6, 5e-8)):
        st = bg.hopf_cole_boundary_state(problem)
        rr = np.array(rr)
        for t, exits in runs:
            batch = bg.density_batch(st, rr, t)
            ref = np.array([_reference_density(st, float(r), t, rtol=1e-12) for r in rr])
            gap = np.abs(batch / ref - 1)
            assert gap.max() < tol
            assert gap[exits].max() < exit_tol


def test_wall_trace_evaluates_no_point_twice(monkeypatch):
    # rejected steps and wall exits: every (time, row) the shared
    # integrator asks for is new, also once some entries are frozen, in
    # the lockstep of two times as in the trace of one
    from zpgd import freespace as fs

    st = bg.hopf_cole_boundary_state(_inflow_annulus(ScalarProfile.constant(0.7)))
    rr = np.array([1.01, 1.05, 1.2, 1.5, 1.95])
    times = np.array([0.8, 1.5])
    ref = bg.density_batch(st, rr, times)
    seen = []   # one set per integration

    def checked(rhs):
        seen.append(set())

        def wrapped(u, y):
            for s, row in zip(u, y):
                key = (s, row.tobytes())
                assert key not in seen[-1], f"rhs evaluated twice at u={s!r}"
                seen[-1].add(key)
            return rhs(u, y)
        return wrapped

    plain = fs._rk4_doubling
    monkeypatch.setattr(fs, "_rk4_doubling",
                        lambda rhs, *args, **kw: plain(checked(rhs), *args, **kw))
    assert np.array_equal(bg.density_batch(st, rr, times), ref)
    assert np.array_equal(bg.density_batch(st, rr, 1.5), ref[1])
    assert len(seen) == 2 and all(seen)


def test_mass_flux_identity_inflow_wall():
    # rho_inner = 1 equals rho0 at the inner corner, so the density is
    # continuous across the characteristic leaving the corner.  With
    # rho_inner = 0.7 it jumps there; radial_mass's Gauss panels integrate
    # across the jump and the identity is missed by about 4.5e-2 (4e-3
    # with four times the panels), an error of the mass quadrature that
    # this test does not cover.
    st = bg.hopf_cole_boundary_state(_inflow_annulus(ScalarProfile.constant(1.0)))
    rows = bg.mass_flux_report(st, [0.8])
    assert abs(rows[0][3]) < 1e-4


def test_data_insufficiency_error():
    pr = _inflow_annulus(rho_inner=ScalarProfile.constant(0.7))
    st = bg.hopf_cole_boundary_state(pr)
    pr.rho_inner = None
    with pytest.raises(bg.DataInsufficiencyError):
        bg.density_batch(st, [1.05], 1.5)


def test_ball_inflow_series_rejected():
    pr = bg.BoundedProblem(DomainCase.BALL_3D, 0.5,
                           smoothstep_q0(1.0, -0.3), smooth_rho(), radius=1.0,
                           q_boundary=-0.3,
                           rho_boundary=ScalarProfile.constant(0.7))
    with pytest.raises(ValueError):
        bg.hopf_cole_boundary_state(pr)


def _shell(q_inner, q_outer=0.2):
    # the shell 1 < r < 2 with smoothstep q0 from q_inner to q_outer
    jump = q_outer - q_inner
    q0 = ScalarProfile.from_pieces([1.0, 2.0, 3.0],
                                   [[q_inner, 0.0, 3 * jump, -2 * jump], [q_outer]])
    return bg.BoundedProblem(DomainCase.ANNULUS_3D, 0.6, q0,
                             ScalarProfile.constant(1.0), r_inner=1.0, r_outer=2.0,
                             q_inner=q_inner, q_outer=q_outer,
                             rho_inner=ScalarProfile.constant(1.0))


def test_growing_mode_annulus_rejected():
    # q_inner = 0.45 keeps the Robin spectrum positive: the series builds
    # and agrees with the FD oracle (gap 2.7e-7)
    pr = _shell(0.45)
    st = bg.hopf_cole_boundary_state(pr)
    grid_t = np.linspace(0.1, 2.0, 20)
    fld = orc.fd_viscous_solve(orc.ViscousIVP.from_bounded(pr), grid_t, n_r=1200)
    win = (fld.grid_r >= 1.1) & (fld.grid_r <= 1.9)
    gap = max(float(np.abs(st.velocity(fld.grid_r[win], float(t)) - fld.q[i][win]).max())
              for i, t in enumerate(grid_t))
    assert gap < 1e-6
    # q_inner = 0.5 and the planar annulus below carry a growing mode, which
    # no number of positive-frequency terms can represent
    with pytest.raises(ValueError, match="growing mode"):
        bg.hopf_cole_boundary_state(_shell(0.5))
    with pytest.raises(ValueError, match="growing mode"):
        bg.hopf_cole_boundary_state(bg.BoundedProblem(
            DomainCase.ANNULUS_2D, 0.3, ScalarProfile.piecewise_linear([1.0, 2.0], [0.02, 0.0]),
            ScalarProfile.constant(1.0), r_inner=1.0, r_outer=2.0, q_inner=0.02,
            q_outer=0.0, rho_inner=ScalarProfile.constant(1.0)))
    assert not _inflow_annulus(ScalarProfile.constant(0.7)).eigen.has_growing_mode


def test_singular_wall_form_rejected():
    # q_inner 0.3 and q_outer 0.1 make the shell's wall form singular to
    # rounding: eigenvalue 0, eigenfunction A + B/r, which no number of
    # positive-frequency terms can represent.  Just above, the series
    # builds with a tiny first rate; just below, the form is indefinite
    # and the mode grows.
    with pytest.raises(ValueError, match=r"eigenfunction A \+ B/r"):
        bg.hopf_cole_boundary_state(_shell(0.3, 0.1))
    st = bg.hopf_cole_boundary_state(_shell(0.3, 0.1 + 1e-9))
    assert st.ev.rates[0] == pytest.approx(4.87e-5, rel=1e-2)
    with pytest.raises(ValueError, match="growing mode"):
        bg.hopf_cole_boundary_state(_shell(0.3, 0.1 - 1e-9))
    # pure Neumann data keep their explicit constant mode
    assert not _shell(0.0, 0.0).eigen.has_robin_zero_mode


def test_velocity_below_floor_raises():
    pr = ball3d_problem()
    st = bg.hopf_cole_boundary_state(pr)
    with pytest.raises(bg.TruncationError):
        st.velocity(0.5, st.time_floor / 10.0)


@pytest.mark.parametrize("make", [lambda: ball3d_problem(),
                                  lambda: _inflow_annulus(ScalarProfile.constant(0.7))],
                         ids=["ball3d", "inflow-annulus"])
def test_velocity_and_derivative_below_floor_is_taylor_limit(make):
    # below t_floor the right side is q0 + t*qdot and q0' with qdot from
    # q_t = -q q_r + eps/2 (q_rr + (n-1)/r q_r - (n-1)/r^2 q); the O(t)
    # term of dq is dropped, so the right side jumps at t_floor
    pr = make()
    st = bg.hopf_cole_boundary_state(pr)
    a, b = pr.domain
    rr = np.linspace(a + 0.01 * (b - a), b, 13)
    q0 = pr.q0
    dq0 = derivative_profile(q0)
    d2q0 = derivative_profile(dq0)
    nm1 = pr.n - 1
    for t in (0.0, 1e-9, 0.3 * st.time_floor, 0.999 * st.time_floor):
        qdot = (-q0(rr) * dq0(rr) + 0.5 * pr.epsilon *
                (d2q0(rr) + nm1 / rr * dq0(rr) - nm1 / rr ** 2 * q0(rr)))
        q, dq = st.velocity_and_derivative(rr, t)
        assert np.array_equal(q.view(np.int64), (q0(rr) + t * qdot).view(np.int64))
        assert np.array_equal(dq.view(np.int64), dq0(rr).view(np.int64))


# Reference forms of the series kernels, with every rate table and decay
# exponent recomputed on each call and each trig evaluated where it is
# used; the kernels must match them bit for bit.


def _plain_active_modes(ev, t):
    if t <= 0.0:
        return ev.rates.size
    lam2_cut = ev.rates.min() ** 2 + 2.0 * math.log(1e18) / (ev.problem.epsilon * t)
    return int(np.searchsorted(ev.rates ** 2, lam2_cut)) + 1


def _plain_decay(ev, t, reference, k):
    lam2 = (ev.rates if k is None else ev.rates[:k]) ** 2
    if reference:
        lam2 = lam2 - ev.rates.min() ** 2
    return np.exp(-0.5 * ev.problem.epsilon * lam2 * t)


def _plain_phi(ev, r, k):
    r = np.atleast_1d(np.asarray(r, dtype=float))
    pr = ev.problem
    rates = ev.rates if k is None else ev.rates[:k]
    zero_cols = rates == 0.0
    lam = np.where(zero_cols, 1.0, rates)[None, :]
    z = r[:, None] * lam
    rr = r[:, None]
    if pr.case == DomainCase.BALL_2D:
        j0, j1 = (v.reshape(z.shape) for v in bessel_j01(z.ravel()))
        out, dout = j0, -lam * j1
    elif pr.case == DomainCase.BALL_3D:
        out = np.sin(z) / rr
        dout = lam * np.cos(z) / rr - np.sin(z) / rr ** 2
    elif pr.case == DomainCase.ANNULUS_2D:
        ca, cb = ev.ca[None, :rates.size], ev.cb[None, :rates.size]
        j0, j1, y0, y1 = (v.reshape(z.shape) for v in bessel_all(z.ravel()))
        out = ca * j0 - cb * y0
        dout = -lam * (ca * j1 - cb * y1)
    else:
        b1 = pr.eigen.b1
        u = lam * (rr - pr.r_inner)
        psi = b1 * np.sin(u) + pr.r_inner * lam * np.cos(u)
        dpsi = lam * (b1 * np.cos(u) - pr.r_inner * lam * np.sin(u))
        out = psi / rr
        dout = dpsi / rr - psi / rr ** 2
    out[:, zero_cols] = 1.0
    dout[:, zero_cols] = 0.0
    return out, dout


def _plain_velocity_and_derivative(st, r, t):
    ev, pr = st.ev, st.ev.problem
    rr = np.atleast_1d(np.asarray(r, dtype=float))
    if t < ev.t_floor:
        q0, dq0, d2q0 = pr.q0.with_derivatives(rr, 2)
        nm1 = pr.n - 1
        qdot = (-q0 * dq0 + 0.5 * pr.epsilon *
                (d2q0 + nm1 / rr * dq0 - nm1 / rr ** 2 * q0))
        return q0 + t * qdot, dq0
    k = _plain_active_modes(ev, t)
    c = st.coef[:k] * _plain_decay(ev, t, True, k)
    phi0, phi1 = _plain_phi(ev, rr, k)
    a, a_r = phi0 @ c, phi1 @ c
    a_rr = -(phi0 @ (c * ev.rates[:k] ** 2)) - (pr.n - 1) / rr * a_r
    q = -pr.epsilon * a_r / a
    return q, -pr.epsilon * a_rr / a + q * q / pr.epsilon


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(got.view(np.int64),
                                                      want.view(np.int64))


def _neumann_ball():
    # q_boundary = 0: the series carries the constant zero-mode column
    q0 = ScalarProfile.from_pieces([0.0, 1.0, 2.0], [[0.0, 0.6, -0.6], [0.0]])
    return bg.BoundedProblem(DomainCase.BALL_2D, 0.37, q0, smooth_rho(), radius=1.0)


# eps = 0.37, not a power of two, so the grouping of eps products shows
@pytest.mark.parametrize("make", [lambda c=c: no_inflow_problem(c, eps=0.37) for c in CASES]
                         + [_neumann_ball],
                         ids=[c.value for c in CASES] + ["neumann-ball2d"])
def test_series_kernels_match_plain_formulas_bit_for_bit(make):
    pr = make()
    st = bg.hopf_cole_boundary_state(pr)
    ev = st.ev
    assert ev.include_zero == (pr.q_boundary == 0.0 and not pr.is_annulus)
    a, b = pr.domain
    rr = np.linspace(a + 0.01 * (b - a), b, 13)
    ks = (1, ev.rates.size // 2, None)
    for k in ks:
        for r in (rr, rr.tolist(), float(rr[4])):
            for got, want in zip(ev.phi(r, k), _plain_phi(ev, r, k)):
                assert _same_bits(got, want)
    floor = ev.t_floor
    for t in (0.0, 0.3 * floor, 0.999 * floor, floor, 0.05, 0.3, 2.0):
        assert ev.active_modes(t) == _plain_active_modes(ev, t)
        for k in ks + (ev.active_modes(t),):
            for reference in (True, False):
                assert _same_bits(ev.decay(t, reference, k),
                                  _plain_decay(ev, t, reference, k))
        q, dq = _plain_velocity_and_derivative(st, rr, t)
        got_q, got_dq = st.velocity_and_derivative(rr, t)
        assert _same_bits(got_q, q) and _same_bits(got_dq, dq)
        if t >= floor:
            assert _same_bits(st.velocity(rr, t), q)
            assert st.velocity(float(rr[4]), t) == _plain_velocity_and_derivative(
                st, rr[4], t)[0][0]


def test_eigenvalue_csv(tmp_path):
    pr = ball3d_problem()
    path = tmp_path / "eig.csv"
    bg.write_eigenvalue_csv(find_eigenvalues(pr.eigen, 5), path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,value,residual"
    assert len(lines) == 6


# the lockstep's times: 0.0 traces nothing, 0.8 repeats, and 1e-3 lies
# below the series floor (3.3e-3 to 6.8e-3) of every problem below, so its
# trace runs on the Taylor limit alone while the others cross the floor
_LOCKSTEP_TIMES = np.array([0.8, 0.0, 1.5, 0.05, 0.8, 1e-3, 0.3])


@pytest.mark.parametrize("make", [lambda c=c: no_inflow_problem(c) for c in CASES]
                         + [_neumann_ball, lambda: _inflow_annulus(ScalarProfile.constant(0.7))],
                         ids=[c.value for c in CASES] + ["neumann-ball2d", "inflow-annulus"])
def test_density_batch_lockstep_keeps_each_times_bits(make):
    pr = make()
    st = bg.hopf_cole_boundary_state(pr)
    a, b = pr.domain
    rr = (np.array([1.01, 1.05, 1.2, 1.5, 1.95]) if pr.is_annulus and pr.rho_inner
          else np.linspace(a + 0.01 * (b - a), b - 0.01 * (b - a), 9))
    batch = bg.density_batch(st, rr, _LOCKSTEP_TIMES)
    assert batch.shape == (_LOCKSTEP_TIMES.size, rr.size)
    for t, row in zip(_LOCKSTEP_TIMES, batch):
        assert _same_bits(row, bg.density_batch(st, rr, float(t)))
    assert _same_bits(batch[1], pr.p0_profile()(rr) / rr ** (pr.n - 1))
    # one row of radii per time
    rows = rr[None, :] * np.linspace(0.97, 1.0, _LOCKSTEP_TIMES.size)[:, None]
    per_row = bg.density_batch(st, rows, _LOCKSTEP_TIMES)
    for t, r, row in zip(_LOCKSTEP_TIMES, rows, per_row):
        assert _same_bits(row, bg.density_batch(st, r, float(t)))


def test_density_batch_lockstep_mixes_wall_exits(monkeypatch):
    # 1.01 and 1.05 leave through the inner wall at 0.8 and 1.5, 1.2 only
    # at 1.5; at 0.05 and 0.0 no trace leaves
    from zpgd import freespace as fs

    st = bg.hopf_cole_boundary_state(_inflow_annulus(ScalarProfile.constant(0.7)))
    rr = np.array([1.01, 1.05, 1.2, 1.5, 1.95])
    exits = []
    plain = fs._rk4_doubling

    def recorded(*args, **kw):
        out = plain(*args, **kw)
        exits.append(~np.isnan(out[1]))
        return out

    monkeypatch.setattr(fs, "_rk4_doubling", recorded)
    batch = bg.density_batch(st, rr, [0.8, 0.05, 1.5, 0.0])
    assert exits[0].tolist() == [[True, True, False, False, False],
                                 [False] * 5,
                                 [True, True, True, False, False],
                                 [False] * 5]
    for t, row in zip([0.8, 0.05, 1.5, 0.0], batch):
        assert _same_bits(row, bg.density_batch(st, rr, t))


@pytest.mark.parametrize("make", [ball3d_problem,
                                  lambda: _inflow_annulus(ScalarProfile.constant(1.0))],
                         ids=["ball3d", "inflow-annulus"])
def test_mass_flux_report_keeps_the_bits_of_one_time_traces(make):
    st = bg.hopf_cole_boundary_state(make())
    pr = st.ev.problem
    a, b = pr.domain
    times = [0.8, 0.5, 0.8]
    rows = bg.mass_flux_report(st, times)
    for t, row in zip(times, rows):
        dm_dt = (bg.radial_mass(st, t + bg._FLUX_DT)
                 - bg.radial_mass(st, t - bg._FLUX_DT)) / (2.0 * bg._FLUX_DT)
        terms = []
        for w in reversed(pr.walls):
            r = w.r - w.sign * (1e-7 * (b - a))
            p = float(bg.density_batch(st, np.array([r]), t)[0]) * r ** (pr.n - 1)
            terms.append(-w.sign * st.velocity(r, t) * p)
        flux = sum(terms[1:], terms[0])
        assert _same_bits(row, (t, dm_dt, flux, dm_dt - flux))
    masses = bg.radial_mass(st, np.array([0.3, 0.0, 0.3]))
    assert _same_bits(masses, [bg.radial_mass(st, t) for t in (0.3, 0.0, 0.3)])


@pytest.mark.parametrize("t", [-0.5, math.nan, math.inf, [0.3, math.nan], [0.3, -1e-9]],
                         ids=["negative", "nan", "inf", "nan-in-batch", "negative-in-batch"])
def test_bounded_entry_points_reject_bad_times(t):
    from zpgd.freespace import TimeDomainError

    st = bg.hopf_cole_boundary_state(ball3d_problem())
    with pytest.raises(TimeDomainError):
        bg.density_batch(st, [0.3, 0.6], t)
    with pytest.raises(TimeDomainError):
        bg.radial_mass(st, t)
    with pytest.raises(TimeDomainError):
        bg.mass_flux_report(st, np.atleast_1d(t).tolist())
    with pytest.raises(TimeDomainError):
        st.velocity([0.3], t if np.ndim(t) == 0 else np.array(t))
    with pytest.raises(TimeDomainError):
        bg.green(st.ev, 0.3, 0.5, t)
    with pytest.raises(TimeDomainError):
        st.evaluate([0.3], t)
    with pytest.raises(TimeDomainError):
        st.robin_residual(t)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="below the series floor the Taylor stand-in's q(0, t) = 0.75 t is "
                          "nonzero, so backward traces from r <~ 1e-5 reach the origin "
                          "clip (CHANGES.md FOUND)")
def test_ball_density_stays_flat_at_the_origin():
    # ball3d_smooth at t = 0.5: the density is smooth through r = 0, so the
    # radii 1e-3 ... 1e-6 read within 1% of rho(1e-2); today 1e-5 reads
    # 0.079 and 1e-6 reads 8.9e-15 against 0.712
    from zpgd import cli

    pr = cli._problem(bg.BoundedProblem,
                      cli.parse_config(cli.resolve_config("ball3d_smooth"))["problem"])
    rho = bg.density_batch(bg.hopf_cole_boundary_state(pr),
                           np.array([1e-2, 1e-3, 1e-4, 1e-5, 1e-6]), 0.5)
    assert np.abs(rho[1:] / rho[0] - 1.0).max() <= 0.01


def test_mass_flux_report_rejects_a_time_inside_its_difference():
    from zpgd.freespace import TimeDomainError

    st = bg.hopf_cole_boundary_state(ball3d_problem())
    with pytest.raises(TimeDomainError, match="t >= 0.02"):
        bg.mass_flux_report(st, [0.8, 0.01])
