"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured figure next to its tolerance."""

import math
import time

import numpy as np
from numpy.polynomial import polynomial as P

from residuals import heat_residual, sample
from zpgd import bounded_green as bg
from zpgd import freespace as fs
from zpgd import inviscid as iv
from zpgd import oracles as orc
from zpgd import shockfront as sfm
from zpgd.profiles import ScalarProfile
from zpgd.specfun import DomainCase, EigenProblem, find_eigenvalues

J1_ZEROS = [3.8317059702075123156, 7.0155866698156187535,
            10.173468135062722077, 13.323691936314223032,
            16.470630050877632813, 19.615858510468242021,
            22.760084380592771898, 25.903672087618382625]


def _report(num, name, **figures):
    shown = " ".join(f"{k}={v:.3g}" for k, v in figures.items())
    print(f"[acceptance] criterion {num:2d} ({name}): PASS {shown}")


def smooth_bump_rho():
    base = P.polypow([1.0, 0.0, -0.25], 4)
    return ScalarProfile.from_pieces([0.0, 2.0, 3.0], [list(base), [0.0]])


def smooth_bump_q0(amp=1.5):
    base = P.polypow([1.0, 0.0, -0.25], 4)
    coeffs = amp * 0.5 * P.polymul([0.0, 1.0], base)
    return ScalarProfile.from_pieces([0.0, 2.0, 3.0], [list(coeffs), [0.0]])


def smoothstep(lo_x, hi_x, lo_v, hi_v):
    d = hi_x - lo_x
    a = hi_v - lo_v
    return ScalarProfile.from_pieces(
        [lo_x, hi_x, hi_x + d],
        [[lo_v, 0.0, 3 * a / d ** 2, -2 * a / d ** 3], [hi_v]])


# ---------------------------------------------------------------------------
# 1. velocity bound


def test_c01_velocity_bound():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    scenarios = [
        fs.FreespaceProblem(1, 0.3, q0=ScalarProfile.piecewise_linear(
            [0.0, 0.5, 1.2, 2.0, 2.5], [0.2, 0.9, -0.6, 0.3, 0.0]),
            rho0=smooth_bump_rho(), rho0_support=2.0),
        fs.FreespaceProblem(2, 0.2, q0=ScalarProfile.piecewise_linear(
            [0.0, 0.7, 1.5, 2.2], [0.0, -0.8, 0.7, 0.0]),
            rho0=smooth_bump_rho(), rho0_support=2.0),
        fs.FreespaceProblem(3, 0.5, q0=smooth_bump_q0(),
                            rho0=smooth_bump_rho(), rho0_support=2.0),
    ]
    worst = -math.inf
    for pr in scenarios:
        L0 = pr.q0.sup_abs()
        r = rng.uniform(0.01, 4.0, 1000)
        t = 10 ** rng.uniform(-1.3, 1.3, 1000)
        for rr, tt in zip(r, t):
            q = fs.radial_velocity(pr, float(rr), float(tt))
            worst = max(worst, abs(q) - L0)
    elapsed = time.monotonic() - t0
    assert worst <= 1e-8
    assert elapsed <= 30.0
    _report(1, "velocity bound", excess=worst, seconds=elapsed)


# ---------------------------------------------------------------------------
# 2. closed-form free-space check


def test_c02_closed_form_quadratic_potential():
    q0 = ScalarProfile.piecewise_linear([0.0, 120.0], [0.0, 120.0])
    pr = fs.FreespaceProblem(1, 0.7, q0=q0, rho0=smooth_bump_rho(),
                             rho0_support=2.0)
    worst = 0.0
    for x in np.linspace(-5.0, 5.0, 20):
        for t in np.geomspace(0.1, 10.0, 9):
            u = fs.velocity(pr, float(x), float(t))
            exact = x / (1.0 + t)
            worst = max(worst, abs(u - exact) / max(abs(exact), 1e-12))
    assert worst <= 1e-6
    _report(2, "closed-form velocity", rel_gap=worst)


# ---------------------------------------------------------------------------
# 3. mass conservation


def test_c03_mass_conservation():
    pr = fs.FreespaceProblem(1, 0.4, q0=smooth_bump_q0(),
                             rho0=smooth_bump_rho(), rho0_support=2.0)
    m0, _ = fs.total_mass(pr, 0.0)
    worst = 0.0
    for t in (0.5, 1.0, 2.0, 5.0):
        m, _ = fs.total_mass(pr, t)
        worst = max(worst, abs(m - m0) / abs(m0))
    assert worst <= 1e-5
    _report(3, "mass conservation", rel_drift=worst)


# ---------------------------------------------------------------------------
# 4. large-time decay


def test_c04_large_time_decay():
    pr = fs.FreespaceProblem(1, 0.4, q0=smooth_bump_q0(),
                             rho0=smooth_bump_rho(), rho0_support=2.0)
    K = np.linspace(0.05, 2.0, 21)
    sup = {}
    for t in (1.0, 10.0, 100.0, 1000.0):
        sup[t] = max(abs(fs.radial_velocity(pr, float(r), t)) for r in K)
    assert sup[10.0] < sup[1.0] and sup[100.0] < sup[10.0] \
        and sup[1000.0] < sup[100.0]
    ratio = sup[1000.0] / sup[1.0]
    assert ratio <= 0.01
    _report(4, "large-time decay", ratio=ratio)


# ---------------------------------------------------------------------------
# 5. eigenvalues


def test_c05_eigenvalues_four_cases():
    problems = [
        EigenProblem(DomainCase.BALL_2D, epsilon=1.0, radius=1.0, q_boundary=0.0),
        EigenProblem(DomainCase.BALL_3D, epsilon=0.5, radius=1.0, q_boundary=0.25),
        EigenProblem(DomainCase.ANNULUS_2D, epsilon=0.8, r_inner=1.0,
                     r_outer=2.5, q_inner=0.5, q_outer=0.9),
        EigenProblem(DomainCase.ANNULUS_3D, epsilon=0.8, r_inner=1.0,
                     r_outer=2.5, q_inner=0.5, q_outer=0.9),
    ]
    worst_res = 0.0
    worst_drift = 0.0
    for pr in problems:
        eigs = find_eigenvalues(pr, 8)
        worst_res = max(worst_res, float(np.abs(eigs.residuals).max()))
        half = find_eigenvalues(pr, 8, scan_step=eigs.scan_step / 2.0)
        worst_drift = max(worst_drift, float(np.abs(half.values - eigs.values).max()))
    assert worst_res <= 1e-10
    assert worst_drift <= 1e-10
    ladder = find_eigenvalues(problems[0], 8).values
    gap = float(np.abs(ladder - np.array(J1_ZEROS)).max())
    assert gap <= 1e-10
    _report(5, "eigenvalues", residual=worst_res, halving_drift=worst_drift,
            ladder_gap=gap)


# ---------------------------------------------------------------------------
# 6. Green's-series correctness


def _four_bounded_problems(eps=0.5):
    ball_q = smoothstep(0.0, 1.0, 0.0, 0.25)
    ann_q = smoothstep(1.0, 2.2, -0.2, 0.3)
    rho = ScalarProfile.constant(1.0)
    return [
        bg.BoundedProblem(DomainCase.BALL_2D, eps, ball_q, rho, radius=1.0,
                          q_boundary=0.25),
        bg.BoundedProblem(DomainCase.BALL_3D, eps, ball_q, rho, radius=1.0,
                          q_boundary=0.25),
        bg.BoundedProblem(DomainCase.ANNULUS_2D, eps, ann_q, rho, r_inner=1.0,
                          r_outer=2.2, q_inner=-0.2, q_outer=0.3),
        bg.BoundedProblem(DomainCase.ANNULUS_3D, eps, ann_q, rho, r_inner=1.0,
                          r_outer=2.2, q_inner=-0.2, q_outer=0.3),
    ]


def test_c06_green_series_heat_residual_and_robin():
    worst_order = math.inf
    worst_robin = 0.0
    for pr in _four_bounded_problems():
        st = bg.hopf_cole_boundary_state(pr)
        a, b = pr.domain
        t_lo = 0.05 * 2.0 * pr.length_scale ** 2 / pr.epsilon

        def resid(nr, nt):
            gr = np.linspace(a + 0.05 * (b - a), b - 0.05 * (b - a), nr)
            gt = np.linspace(t_lo, t_lo + 0.4, nt)
            state = sample(st, gr, gt)
            return np.abs(heat_residual(state, pr.epsilon, pr.n)).max() \
                / np.abs(state.a).max()

        order = math.log2(resid(41, 41) / resid(81, 81))
        worst_order = min(worst_order, order)
        worst_robin = max(worst_robin, st.robin_residual(max(t_lo, 0.05)))
    assert worst_order >= 1.8
    assert worst_robin <= 1e-6
    _report(6, "Green series", min_order=worst_order, robin=worst_robin)


# ---------------------------------------------------------------------------
# 7. series vs finite-difference oracle


def test_c07_series_vs_fd_oracle():
    figures = {}
    for tag, pr in (("ball", _four_bounded_problems()[1]),
                    ("annulus", _four_bounded_problems()[2])):
        t0 = time.monotonic()
        st = bg.hopf_cole_boundary_state(pr)
        a, b = pr.domain
        ts = np.linspace(0.1, 2.0, 20)
        fld = orc.fd_viscous_solve(orc.ViscousIVP.from_bounded(pr), ts, n_r=1600)
        win = (fld.grid_r >= a + 0.1 * (b - a)) & (fld.grid_r <= b - 0.1 * (b - a))
        worst = 0.0
        for i, t in enumerate(ts):
            qs = st.velocity(fld.grid_r[win], float(t))
            worst = max(worst, float(np.abs(qs - fld.q[i][win]).max()))
        elapsed = time.monotonic() - t0
        assert worst <= 1e-3
        assert elapsed <= 120.0
        figures[f"{tag}_linf"] = worst
        figures[f"{tag}_s"] = elapsed
    _report(7, "series vs FD oracle", **figures)


# ---------------------------------------------------------------------------
# 8. mass-flux identities


def test_c08_mass_flux_identities():
    ball = _four_bounded_problems()[1]
    st = bg.hopf_cole_boundary_state(ball)
    rows = bg.mass_flux_report(st, [0.8])
    res_ball = abs(rows[0][3])
    assert res_ball <= 1e-4
    ann = _four_bounded_problems()[3]
    sta = bg.hopf_cole_boundary_state(ann)
    rows = bg.mass_flux_report(sta, [0.8])
    res_ann = abs(rows[0][3])
    assert res_ann <= 1e-4
    _report(8, "mass-flux identities", ball=res_ball, annulus=res_ann)


# ---------------------------------------------------------------------------
# 9. path-minimizer equivalence


def test_c09_path_minimizer_vs_brute_force():
    t0 = time.monotonic()
    p0 = ScalarProfile.piecewise_linear([0.0, 1.0, 2.0], [1.0, 1.0, 0.0])
    scenarios = [
        iv.InviscidProblem(3, smooth_bump_q0(1.0), p0,
                           ScalarProfile.constant(0.8),
                           ScalarProfile.constant(4 * math.pi * 1.5)),
        iv.InviscidProblem(2, ScalarProfile.from_pieces(
            [0.0, 1.0, 2.0], [[1.0], [0.0]]), p0,
            ScalarProfile.piecewise_linear([0.0, 0.8, 1.6, 2.6],
                                           [0.9, 0.3, -0.6, 0.4]),
            ScalarProfile.constant(2 * math.pi * 1.5)),
        iv.InviscidProblem(1, ScalarProfile.constant(0.5), p0,
                           ScalarProfile.piecewise_linear(
                               [0.0, 1.0, 2.0, 3.0], [-0.4, 0.7, -0.2, 0.1]),
                           ScalarProfile.piecewise_linear([0.0, 4.0], [3.0, 4.0])),
    ]
    rs = np.linspace(0.05, 2.5, 50)
    ts = np.linspace(0.1, 2.0, 50)
    worst = 0.0
    for prob in scenarios:
        mz = iv.PathMinimizer(prob, t_max=4.0)
        for t in ts:
            for r in rs:
                vm = mz.minimize(float(r), float(t)).value
                vb, _ = orc.brute_force_Q(prob, float(r), float(t),
                                          grid_density=100, refine_rounds=2)
                worst = max(worst, abs(vm - vb))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-4
    assert elapsed <= 120.0
    _report(9, "minimizer vs brute force", gap=worst, seconds=elapsed)


# ---------------------------------------------------------------------------
# 10. weak boundary conditions on the gallery


def _gallery_inviscid_problems():
    p0 = ScalarProfile.from_pieces([0.0, 3.0, 3.5], [[1.0], [0.0]])
    riemann = iv.InviscidProblem(
        3, ScalarProfile.from_pieces([0.0, 1.0, 2.0], [[1.0], [0.0]]), p0,
        ScalarProfile.constant(-1.0), ScalarProfile.constant(4 * math.pi * 3.0))
    omega3 = 4 * math.pi
    inflow = iv.InviscidProblem(
        3, ScalarProfile.zero(),
        ScalarProfile.from_pieces([0.0, 2.0, 2.5], [[1.0, -0.5], [0.0]]),
        ScalarProfile.constant(0.8),
        ScalarProfile.piecewise_linear([0.0, 4.0], [omega3, 1.5 * omega3]))
    sweep = iv.InviscidProblem(
        1, ScalarProfile.from_pieces([0.0, 3.0, 4.0], [[1.0], [0.0]]),
        ScalarProfile.from_pieces([0.0, 6.0, 6.5], [[1.0], [0.0]]),
        ScalarProfile.constant(-1.0), ScalarProfile.constant(6.0))
    return {"riemann": riemann, "inflow": inflow, "sweep": sweep}


def test_c10_weak_boundary_conditions_gallery():
    violations = 0
    checked = 0
    for name, prob in _gallery_inviscid_problems().items():
        rows = iv.weak_boundary_check(prob, np.linspace(0.25, 1.5, 6))
        checked += len(rows)
        violations += sum(1 for r in rows if not r.ok)
    assert violations == 0
    _report(10, "weak boundary conditions", checked=checked,
            violations=violations)


# ---------------------------------------------------------------------------
# 11. Rankine-Hugoniot at a Riemann delta shock


def _riemann_front(n=3, nr=72, nt=26):
    prob = _gallery_inviscid_problems()["riemann"]
    prob = iv.InviscidProblem(n, prob.q0, prob.p0, prob.q_bound, prob.p_bound)
    panel = iv.solve_panel(prob, np.linspace(0.08, 2.6, nr),
                           np.linspace(0.25, 1.5, nt))
    fronts = sfm.detect_fronts(panel)
    assert len(fronts) == 1
    return fronts[0]


def test_c11_rankine_hugoniot_and_sticky_oracle():
    front = _riemann_front()
    res_speed, res_mass = sfm.rh_residual_1d(front)
    rs_max = float(np.abs(res_speed).max())
    rm_max = float(np.abs(res_mass).max())
    assert rs_max <= 1e-3
    assert rm_max <= 1e-3
    parts = orc.riemann_particles(1.0, 0.0, 1.0, 1.0, split=1.0, r_max=3.0,
                                  count=10000)
    traj = orc.sticky_particle_run(parts, front.times)
    ts, rcl, _, _ = traj.cluster_track(3333)
    gap = float(np.abs(rcl - np.interp(ts, front.times, front.s)).max())
    assert gap <= 2e-2
    _report(11, "Rankine-Hugoniot + sticky", speed=rs_max, mass=rm_max,
            sticky_gap=gap)


# ---------------------------------------------------------------------------
# 12. multi-dimensional equivalence


def test_c12_multid_equivalence():
    worst = -math.inf
    for n in (2, 3):
        front = _riemann_front(n=n)
        _, res_mass = sfm.rh_residual_1d(front)
        res_multi = sfm.rh_residual_multid(front)
        worst = max(worst, float(np.max(np.abs(res_multi) - np.abs(res_mass))))
    assert worst <= 1e-10
    assert sfm.mean_curvature(3, 2.0) == -0.5
    _report(12, "multi-D RH equivalence", excess=worst, K_spot=-0.5)


# ---------------------------------------------------------------------------
# 13. vanishing viscosity


def test_c13_vanishing_viscosity():
    prob = _gallery_inviscid_problems()["sweep"]
    mz = iv.PathMinimizer(prob, t_max=5.0)
    t_eval = 2.0
    # 20 continuity points: fan interior, pre-shock plateau, post-shock
    # (each far enough from the corner/shock layers that the finest-eps
    # error stays above the quadrature floor)
    pts = np.concatenate([np.linspace(0.5, 0.9, 6),
                          np.linspace(3.15, 3.7, 7),
                          np.linspace(4.3, 4.55, 7)])
    eps_list = [0.1, 0.05, 0.025]
    errs = np.zeros((3, pts.size))
    for j, eps in enumerate(eps_list):
        fp = fs.FreespaceProblem(1, eps, q0=prob.q0, rho0=prob.p0,
                                 rho0_support=6.0)
        for k, r in enumerate(pts):
            q_eps = fs.radial_velocity(fp, float(r), t_eval)
            m = mz.minimize(float(r), t_eval)
            q_inv = (r - m.r0) / t_eval if m.branch == "interior" \
                else r / (t_eval - m.t2)
            errs[j, k] = abs(q_eps - q_inv)
    assert np.all(np.diff(errs, axis=0) < 0)
    orders = np.log2(errs[:-1] / errs[1:])
    min_order = float(orders.min())
    assert min_order >= 0.8
    _report(13, "vanishing viscosity", min_order=min_order,
            max_err_finest=float(errs[-1].max()))
