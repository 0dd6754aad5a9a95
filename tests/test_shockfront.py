import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zpgd import inviscid as iv
from zpgd import shockfront as sfm
from zpgd.profiles import ScalarProfile


def riemann_problem(a=1.0, b=0.0, rstar=1.0, n=3):
    q0 = ScalarProfile.from_pieces([0.0, rstar, 2.0], [[a], [b]])
    p0 = ScalarProfile.from_pieces([0.0, 3.0, 3.5], [[1.0], [0.0]])
    return iv.InviscidProblem(n, q0, p0, ScalarProfile.constant(-1.0),
                              ScalarProfile.constant(12.0))


def riemann_panel(n=3, nr=64, nt=21):
    prob = riemann_problem(n=n)
    return iv.solve_panel(prob, np.linspace(0.08, 2.6, nr),
                          np.linspace(0.25, 1.5, nt))


def test_detect_fronts_smooth_is_empty():
    prob = iv.InviscidProblem(3, ScalarProfile.zero(),
                              ScalarProfile.piecewise_linear([0, 1, 2], [1, 1, 0]),
                              ScalarProfile.constant(-1.0),
                              ScalarProfile.constant(12.0))
    panel = iv.solve_panel(prob, np.linspace(0.1, 2.0, 32), np.linspace(0.2, 1.0, 6))
    assert sfm.detect_fronts(panel) == []


def test_detect_riemann_front_and_growth():
    panel = riemann_panel()
    fronts = sfm.detect_fronts(panel)
    assert len(fronts) == 1
    f = fronts[0]
    assert np.abs(f.s - (1.0 + 0.5 * f.times)).max() < 1e-6
    # e(0) = 0 extrapolates from e(t) = t growth
    assert np.abs(f.e - f.times).max() < 1e-6
    assert np.all(f.q_minus >= f.q_plus)
    # entropy: q_- >= s_dot >= q_+
    sdot = 0.5 * (f.q_minus + f.q_plus)
    assert np.all(f.q_minus + 1e-9 >= sdot) and np.all(sdot >= f.q_plus - 1e-9)


def test_front_absorbed_at_origin_ends():
    # n = 1: the inward slab q0 = -1 on [1, 3) piles its inner edge into a
    # delta at s = 1 - t/2 (traces 0 and -1), which reaches the absorbing
    # origin at t = 2; the track finds no detection after that and closes
    q0 = ScalarProfile.from_pieces([0.0, 1.0, 3.0, 4.0], [[0.0], [-1.0], [0.0]])
    p0 = ScalarProfile.from_pieces([0.0, 4.0, 4.5], [[1.0], [0.0]])
    prob = iv.InviscidProblem(1, q0, p0, ScalarProfile.constant(-1.0),
                              ScalarProfile.constant(1.0))
    panel = iv.solve_panel(prob, np.linspace(0.05, 3.5, 70), np.linspace(0.25, 3.0, 12))
    fronts = sfm.detect_fronts(panel)
    assert len(fronts) == 1
    f = fronts[0]
    assert np.abs(f.s - (1.0 - 0.5 * f.times)).max() < 1e-6
    res_speed, _ = sfm.rh_residual_1d(f)
    assert np.abs(res_speed).max() < 1e-5
    assert f.times[0] == panel.grid_t[0] and f.times[-1] < 2.0


@settings(max_examples=12, deadline=None)
@given(a=st.floats(-1.0, 1.5), b=st.floats(-1.0, 1.5), rstar=st.floats(0.5, 1.5),
       n=st.integers(1, 3))
def test_entropy_sign_at_fronts(a, b, rstar, n):
    # every slice of every front: a nonnegative delta, q_- >= q_+, and a
    # front speed between the traces, at ShockFront's own tolerances
    panel = iv.solve_panel(riemann_problem(a, b, rstar, n), np.linspace(0.08, 2.6, 24),
                           np.linspace(0.25, 1.5, 6))
    for f in sfm.detect_fronts(panel):
        sdot = 0.5 * (f.q_minus + f.q_plus)
        assert np.all(f.e >= -1e-10)
        assert np.all(f.q_minus >= f.q_plus - 1e-8)
        assert np.all(f.q_minus >= sdot - 1e-8) and np.all(sdot >= f.q_plus - 1e-8)


def test_rh_residuals_small_and_multid_equivalent():
    panel = riemann_panel()
    f = sfm.detect_fronts(panel)[0]
    res_speed, res_mass = sfm.rh_residual_1d(f)
    assert np.abs(res_speed).max() < 1e-3
    assert np.abs(res_mass).max() < 1e-3
    res_multi = sfm.rh_residual_multid(f)
    assert np.max(np.abs(res_multi) - np.abs(res_mass)) <= 1e-10


def test_multid_equals_1d_for_n1():
    panel = riemann_panel(n=1)
    f = sfm.detect_fronts(panel)[0]
    _, res_mass = sfm.rh_residual_1d(f)
    res_multi = sfm.rh_residual_multid(f)
    # curvature terms vanish: identical arrays
    assert np.abs(res_multi - res_mass).max() < 1e-14


def test_stationary_contact_zero_residuals():
    times = np.linspace(0.1, 1.0, 7)
    f = sfm.ShockFront(n=3, times=times, s=np.full(7, 1.2), e=np.zeros(7),
                       q_minus=np.zeros(7), q_plus=np.zeros(7),
                       p_minus=np.full(7, 0.4), p_plus=np.full(7, 0.9))
    rs, rm = sfm.rh_residual_1d(f)
    assert np.abs(rs).max() < 1e-14
    assert np.abs(rm).max() < 1e-14


def test_constant_state_delta_shock_books():
    # inner q = 1, outer q = -1, equal p: the front is stationary and the
    # delta grows at rate [qp] = q_- p_- - q_+ p_+ = 2
    times = np.linspace(0.1, 1.0, 10)
    f = sfm.ShockFront(n=2, times=times, s=np.full(10, 1.0), e=2.0 * times,
                       q_minus=np.ones(10), q_plus=-np.ones(10),
                       p_minus=np.ones(10), p_plus=np.ones(10))
    rs, rm = sfm.rh_residual_1d(f)
    assert np.abs(rs).max() < 1e-14
    assert np.abs(rm).max() < 1e-12
    res_multi = sfm.rh_residual_multid(f)
    assert np.max(np.abs(res_multi) - np.abs(rm)) <= 1e-10


def test_mean_curvature_spot_values():
    assert sfm.mean_curvature(3, 2.0) == -0.5
    assert sfm.mean_curvature(2, 2.0) == -0.25
    assert sfm.mean_curvature(1, 5.0) == 0.0


def test_entropy_validation():
    times = np.linspace(0.1, 1.0, 5)
    with pytest.raises(ValueError):
        sfm.ShockFront(n=2, times=times, s=np.ones(5), e=np.zeros(5),
                       q_minus=np.zeros(5), q_plus=np.ones(5),
                       p_minus=np.ones(5), p_plus=np.ones(5))


def test_mass_accounting_with_delta():
    # absolutely continuous mass plus the delta amplitude is conserved
    prob = riemann_problem()
    panel = riemann_panel()
    front = sfm.detect_fronts(panel)[0]
    mz = panel.minimizer
    total0 = prob.p0.tail_integral(0.0)

    def P_at(r, t):
        return mz.solve_at(r, t)[2]

    for k in (2, 10, 19):
        t = float(front.times[k])
        s = float(front.s[k])
        d = 1e-7
        # a.c. mass on both sides of the front, read off the primitive
        ac = (P_at(s - d, t) - P_at(1e-9, t)) + (0.0 - P_at(s + d, t))
        assert ac + front.e[k] == pytest.approx(total0, abs=1e-6)


def test_front_csv(tmp_path):
    panel = riemann_panel(nt=9)
    f = sfm.detect_fronts(panel)[0]
    path = tmp_path / "front.csv"
    sfm.write_front_csv(f, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#") and "inner" in lines[0]
    assert lines[1].split(",")[:3] == ["t", "s", "e"]
    assert len(lines) == 2 + f.times.size
