import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from helpers import check_value, interior_cost
from zpgd import inviscid as iv
from zpgd import oracles as orc
from zpgd.profiles import ScalarProfile

P0 = ScalarProfile.piecewise_linear([0.0, 1.0, 2.0], [1.0, 1.0, 0.0])
ZERO = ScalarProfile.zero()
ONE = ScalarProfile.constant(1.0)


def make_problem(n=3, q0=ZERO, p0=P0, qb=None, pb=None):
    return iv.InviscidProblem(n, q0, p0, qb or ScalarProfile.constant(-1.0),
                              pb or ScalarProfile.constant(4 * math.pi * 1.5))


def test_interior_cost_examples():
    assert interior_cost(1.0, 1.0, 0.7) == 0.0
    assert interior_cost(1.0, 0.0, 1.0) == pytest.approx(0.5)
    # doubling t halves the cost
    assert interior_cost(2.0, 0.5, 2.0) == pytest.approx(
        0.5 * interior_cost(2.0, 0.5, 1.0))
    with pytest.raises(ValueError):
        interior_cost(1.0, 1.0, 0.0)


def test_boundary_cost_examples():
    prob = make_problem(qb=ScalarProfile.zero())
    # costless sojourn: r^2/(2(t-t2)), minimized here over t2 -> 0
    t = 2.0
    vals = [iv.boundary_cost(1.0, 0.0, t, 0.0, t2, prob)
            for t2 in (1e-6, 0.5, 1.0)]
    assert vals[0] == pytest.approx(1.0 / (2 * t), rel=1e-5)
    assert vals[0] < vals[1] < vals[2]
    # infinite sentinel: positive launch radius with t1 = 0
    assert iv.boundary_cost(1.0, 0.5, 2.0, 0.0, 1.0, prob) == math.inf
    # t2 -> t diverges
    assert iv.boundary_cost(1.0, 0.0, 2.0, 0.0, 2.0 - 1e-12, prob) > 1e10
    with pytest.raises(ValueError):
        iv.boundary_cost(1.0, 0.0, 2.0, 1.0, 0.5, prob)


def test_boundary_cost_constant_inflow_closed_form():
    # q_B = c > 0, r0 = 0, t1 = 0: optimum t2 = t - r/c, value c r - c^2 t/2
    c, r, t = 0.8, 0.5, 2.0
    prob = make_problem(qb=ScalarProfile.constant(c))
    grid = np.linspace(1e-6, t - 1e-6, 40001)
    vals = np.array([iv.boundary_cost(r, 0.0, t, 0.0, t2, prob) for t2 in grid])
    k = int(np.argmin(vals))
    assert grid[k] == pytest.approx(t - r / c, abs=1e-4)
    assert vals[k] == pytest.approx(c * r - c * c * t / 2, abs=1e-7)


def test_minimize_trivial_stationary():
    prob = make_problem()
    m = iv.PathMinimizer(prob, t_max=1.8).minimize(1.3, 0.9)
    assert m.branch == "interior"
    assert m.r0 == pytest.approx(1.3, abs=1e-9)
    assert m.value == pytest.approx(0.0, abs=1e-12)


def test_minimize_boundary_wins_near_origin():
    c = 0.8
    prob = make_problem(qb=ScalarProfile.constant(c))
    mz = iv.PathMinimizer(prob, t_max=4.0)
    m = mz.minimize(0.5, 2.0)
    assert m.branch == "boundary"
    assert m.value == pytest.approx(c * 0.5 - c * c * 2.0 / 2, abs=1e-9)
    assert 0.5 / (2.0 - m.t2) == pytest.approx(c, abs=1e-6)
    assert check_value(m, prob, 0.5, 2.0) < 1e-10
    far = mz.minimize(2.5, 2.0)
    assert far.branch == "interior"


def test_minimum_lipschitz_in_r():
    q0 = ScalarProfile.piecewise_linear([0.0, 0.5, 1.5, 2.0], [0.6, 0.8, -0.4, 0.0])
    qb = ScalarProfile.piecewise_linear([0.0, 1.0, 2.0], [0.7, -0.3, 0.2])
    prob = iv.InviscidProblem(2, q0, P0, qb, ScalarProfile.constant(20.0))
    mz = iv.PathMinimizer(prob, t_max=4.0)
    t = 1.3
    bound = max(q0.sup_abs(), qb.sup_abs(), 3.0 / t) * 1.2 + 0.5
    rs = np.linspace(0.1, 3.0, 40)
    qs = np.array([mz.minimize(float(r), t).value for r in rs])
    slopes = np.abs(np.diff(qs) / np.diff(rs))
    assert slopes.max() <= bound


def test_brute_force_agreement_including_sign_change():
    q0 = ScalarProfile.piecewise_linear([0.0, 0.6, 1.4, 2.2], [0.5, 0.7, -0.3, 0.0])
    qb = ScalarProfile.piecewise_linear([0.0, 0.7, 1.5, 2.5], [0.9, 0.4, -0.5, 0.3])
    prob = iv.InviscidProblem(2, q0, P0, qb, ScalarProfile.constant(20.0))
    mz = iv.PathMinimizer(prob, t_max=5.0)
    rng = np.random.default_rng(7)
    for _ in range(20):
        r = float(rng.uniform(0.05, 2.5))
        t = float(rng.uniform(0.1, 2.0))
        vb, _ = orc.brute_force_Q(prob, r, t, grid_density=160, refine_rounds=2)
        assert abs(vb - mz.minimize(r, t).value) < 1e-6


def _panel_around(prob, r, t):
    """solve_panel on the three radii r - h, r, r + h, h = max(1e-7, 1e-7 r)."""
    h = max(1e-7, 1e-7 * r)
    return iv.solve_panel(prob, [r - h, r, r + h], [t])


def test_solution_examples():
    # q0 = c > 0, absorbing origin: interior branch, q = c, P = -tail(r - ct)
    c = 0.6
    prob = make_problem(q0=ScalarProfile.piecewise_linear([0.0, 50.0], [c, c]))
    r, t = 1.8, 1.0
    s = _panel_around(prob, r, t)
    assert s.q[0, 1] == pytest.approx(c, abs=1e-8)
    assert s.P[0, 1] == pytest.approx(-P0.tail_integral(r - c * t), abs=1e-8)
    # trivial data: q = 0, P = -tail(r), p = p0
    s0 = _panel_around(make_problem(), 0.8, 1.0)
    assert s0.q[0, 1] == pytest.approx(0.0, abs=1e-10)
    assert s0.P[0, 1] == pytest.approx(-P0.tail_integral(0.8), abs=1e-10)
    assert s0.p[0, 1] == pytest.approx(float(P0(0.8)), abs=1e-4)
    assert not s0.disc[0, 1]


def test_solution_p_next_to_origin():
    # one panel from r = 1e-8: n = 1, q = 0 and p0 = 1 near 0
    prob = make_problem(n=1, p0=ScalarProfile.from_pieces([0.0, 1.0, 2.0], [[1.0], [0.0]]),
                        qb=ZERO)
    s = iv.solve_panel(prob, [1e-8, 5e-8, 1e-7, 2e-7], [0.5])
    for j in range(3):   # r = 1e-8, 5e-8, 1e-7
        assert not s.disc[0, j]
        assert s.p[0, j] == pytest.approx(1.0, abs=1e-6)


def test_riemann_shock_speed_and_two_sided_sample():
    # q0 = a for r < r*, b < a beyond: front at r* + (a+b)/2 t
    a, b, rstar = 1.0, 0.0, 1.0
    q0 = ScalarProfile.from_pieces([0.0, rstar, 2.0], [[a], [b]])
    p0 = ScalarProfile.from_pieces([0.0, 3.0, 3.5], [[1.0], [0.0]])
    prob = iv.InviscidProblem(3, q0, p0, ScalarProfile.constant(-1.0),
                              ScalarProfile.constant(4 * math.pi * 3))
    t = 1.0
    s_exact = rstar + 0.5 * (a + b) * t
    # the shock sits within h = max(1e-7, 1e-7 s) of its exact radius s,
    # between one-sided samples 1e-4 to either side
    h = max(1e-7, 1e-7 * s_exact)
    s = iv.solve_panel(prob, [s_exact - 1e-4, s_exact - h, s_exact, s_exact + h,
                              s_exact + 1e-4], [t])
    assert s.q[0, 0] == pytest.approx(a, abs=1e-6)
    assert s.q[0, 4] == pytest.approx(b, abs=1e-6)
    assert s.disc[0, 2]
    assert s.disc[0, 1]   # the jump's other end


@pytest.mark.parametrize("grid_r", [np.linspace(0.1, 1.0, 10), np.array([0.45])])
def test_panel_p_and_disc_at_jumps_and_edges(monkeypatch, grid_r):
    # q steps by 0.5 / t^2 in cells 0, 3, 4 (adjacent: radius 4 has jumps
    # on both sides) and 8, the two edge cells among them; at t = 2 the
    # steps are below the jump threshold 1e-4 + 5 dr / t, so that row has none
    steps = (0.15, 0.45, 0.55, 0.95)

    def solve_at(self, r, t):
        q = 0.5 * sum(r > x for x in steps) / t ** 2 + 0.01 * r
        return iv.PathMinimum("interior", r, None, None, 0.0), q, -math.exp(-r * t) / 3.0

    monkeypatch.setattr(iv.PathMinimizer, "solve_at", solve_at)
    panel = iv.solve_panel(make_problem(), grid_r, [0.5, 1.0, 2.0])
    p, disc = panel.p, panel.disc
    if grid_r.size == 1:   # no cell to difference over
        assert disc.all() and np.isnan(p).all()
        return

    def slope(i, j):   # P's difference over cell j of row i
        return (panel.P[i, j + 1] - panel.P[i, j]) / (grid_r[j + 1] - grid_r[j])

    for i in (0, 1):
        assert np.flatnonzero(disc[i]).tolist() == [0, 1, 3, 4, 5, 8, 9]
        assert np.flatnonzero(np.isnan(p[i])).tolist() == [0, 4, 9]
        # forward where the right cell is smooth, else backward
        assert [p[i, j] for j in (1, 3, 5, 8)] == [slope(i, 1), slope(i, 2),
                                                    slope(i, 5), slope(i, 7)]
    assert not disc[2].any()
    assert p[2].tolist() == [slope(2, j) for j in range(9)] + [slope(2, 8)]


def test_panel_monotone_primitive_and_branch_interval():
    c = 0.8
    prob = make_problem(qb=ScalarProfile.constant(c),
                        pb=ScalarProfile.piecewise_linear(
                            [0.0, 4.0], [4 * math.pi * 1.5, 4 * math.pi * 2.0]))
    panel = iv.solve_panel(prob, np.linspace(0.05, 2.5, 40),
                           np.linspace(0.2, 1.6, 8))
    assert np.min(np.diff(panel.P, axis=1)) > -1e-9
    assert (panel.branch == "B").any()
    for i in range(panel.grid_t.size):
        cols = panel.branch[i] == "B"
        if cols.any():
            last = np.nonzero(cols)[0].max()
            assert np.all(cols[: last + 1])
    finite_p = panel.p[~np.isnan(panel.p)]
    assert finite_p.min() > -1e-6


@st.composite
def _outflow_problem(draw):
    """Random piecewise-linear q0 in [-1, 1], p0 >= 0 ending in a zero piece,
    a constant origin velocity <= 0 and n in {1, 2, 3}."""
    k = draw(st.integers(1, 5))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    xs = np.concatenate([[0.0], np.cumsum(gaps)])
    q0 = ScalarProfile.piecewise_linear(
        xs, draw(st.lists(st.floats(-1.0, 1.0), min_size=k + 1, max_size=k + 1)))
    p_vals = draw(st.lists(st.floats(0.0, 2.0), min_size=k, max_size=k))
    p0 = ScalarProfile.piecewise_linear([*xs, xs[-1] + 0.5], [*p_vals, 0.0, 0.0])
    return iv.InviscidProblem(draw(st.sampled_from([1, 2, 3])), q0, p0,
                              ScalarProfile.constant(draw(st.floats(-1.0, 0.0))),
                              ScalarProfile.constant(1.0))


@settings(max_examples=40, deadline=None)
@given(prob=_outflow_problem())
def test_panel_primitive_monotone_on_random_data(prob):
    # P(., t) is nondecreasing in r for p0 >= 0, to the CLI's own tolerance
    panel = iv.solve_panel(prob, np.linspace(0.05, 3.0, 16), np.linspace(0.25, 1.5, 4))
    assert np.diff(panel.P, axis=1).min() >= -1e-8


def test_weak_boundary_absorbing_and_inflow():
    # absorbing: q_B = -1, trivial interior data -> q(0+) ~ 0 allowed
    prob = make_problem()
    rows = iv.weak_boundary_check(prob, [0.5, 1.0, 1.5])
    assert all(r.ok for r in rows)
    assert all(r.mode in ("absorbing", "attained") for r in rows)
    # inflow: q_B = c > 0 must be attained at the origin with matching mass
    c = 0.8
    omega = 4 * math.pi
    pb = ScalarProfile.piecewise_linear([0.0, 4.0],
                                        [omega * 1.5, omega * 1.5 + 2.0])
    prob2 = make_problem(qb=ScalarProfile.constant(c), pb=pb)
    rows2 = iv.weak_boundary_check(prob2, [0.5, 1.0, 1.5])
    for r in rows2:
        assert r.ok
        assert r.mode == "attained"
        assert r.q_origin == pytest.approx(c, abs=1e-3)
        assert r.mass == pytest.approx(float(pb(r.t)), rel=1e-3)


def test_p0_integrability_validation():
    with pytest.raises(ValueError):
        iv.InviscidProblem(3, ZERO, ONE, ScalarProfile.constant(-1.0), ONE)


def test_panel_csv(tmp_path):
    prob = make_problem()
    panel = iv.solve_panel(prob, np.linspace(0.1, 2.0, 8), np.linspace(0.2, 1.0, 3))
    path = tmp_path / "panel.csv"
    iv.write_panel_csv(panel, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# n=3")
    assert lines[1] == "r,t,q,p,rho,branch,disc"
    assert len(lines) == 2 + 8 * 3
    assert lines[2].endswith(",I,0")


def _c09_problems():
    # the three problems of acceptance criterion 9
    bump = 0.5 * P.polymul([0.0, 1.0], P.polypow([1.0, 0.0, -0.25], 4))
    return [
        iv.InviscidProblem(3, ScalarProfile.from_pieces([0.0, 2.0, 3.0], [list(bump), [0.0]]),
                           P0, ScalarProfile.constant(0.8),
                           ScalarProfile.constant(4 * math.pi * 1.5)),
        iv.InviscidProblem(2, ScalarProfile.from_pieces([0.0, 1.0, 2.0], [[1.0], [0.0]]), P0,
                           ScalarProfile.piecewise_linear([0.0, 0.8, 1.6, 2.6],
                                                          [0.9, 0.3, -0.6, 0.4]),
                           ScalarProfile.constant(2 * math.pi * 1.5)),
        iv.InviscidProblem(1, ScalarProfile.constant(0.5), P0,
                           ScalarProfile.piecewise_linear([0.0, 1.0, 2.0, 3.0],
                                                          [-0.4, 0.7, -0.2, 0.1]),
                           ScalarProfile.piecewise_linear([0.0, 4.0], [3.0, 4.0])),
    ]


def _dense_tables(problem, t_max):
    """The boundary tables from one dense (t1, r0) cost matrix."""
    r0g = np.linspace(0.0, t_max * problem.q0.sup_abs() * 2.0 + 1.0, 2048)
    c0 = problem.q0.cumulative(r0g)
    t1 = np.concatenate([[0.0], np.geomspace(t_max * 1e-7, t_max, 2048)])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cost = r0g[None, :] ** 2 / (2.0 * t1[:, None]) + c0[None, :]
    cost[0] = np.where(r0g == 0.0, 0.0, np.inf)
    g_idx = np.argmin(cost, axis=1)
    g = cost[np.arange(len(t1)), g_idx]
    v = problem.sojourn_gain(t1)
    w = g + v
    return {"t1": t1, "g": g, "g_r0": r0g[g_idx], "v": v, "w": w,
            "w_best": _running_first_argmin_loop(w)}


def _running_first_argmin_loop(w):
    best = np.empty(len(w), dtype=int)
    cur = 0
    for i in range(len(w)):
        if w[i] < w[cur]:
            cur = i
        best[i] = cur
    return best


def _assert_tables_equal(tables, ref):
    for name, want in ref.items():
        got = getattr(tables, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def test_boundary_tables_reach_past_a_jump_down(monkeypatch):
    # sup_abs() reads the left limit at a jump down, and the tables' r0
    # range 2 t_max sup|q0| + 1 takes sup|q0| with that limit
    ramp = iv.InviscidProblem(1, ScalarProfile.from_pieces([0.0, 1.0, 2.0],
                                                           [[0.0, 1.0], [0.0]]), P0, ONE, ONE)
    assert ramp.q0.sup_abs() == 1.0
    read = []   # the largest r0 of each C0 evaluation
    cumulative = ScalarProfile.cumulative

    def recorded(self, x):
        if self is ramp.q0:
            read.append(np.max(x))
        return cumulative(self, x)

    monkeypatch.setattr(ScalarProfile, "cumulative", recorded)
    t_max = 4.0
    iv._BoundaryTables(ramp, t_max)
    # C0 is read on the widest band, r0 <= t_max sup|q0| plus padding,
    # of the grid on [0, 2 t_max + 1]; a range of 1 would stop at r0 = 1
    assert t_max < max(read) < t_max + 3 * (2 * t_max + 1) / 2047
    monkeypatch.undo()
    # q0 = -x on [0, 3), then 0: for t1 > 1 the row minimum of
    # r0^2/(2 t1) + C0(r0) sits at the jump, r0 = 3, at 9/(2 t1) - 4.5,
    # beyond a range of 1
    drop = iv.InviscidProblem(1, ScalarProfile.from_pieces([0.0, 3.0, 4.0],
                                                           [[0.0, -1.0], [0.0]]), P0, ONE, ONE)
    assert drop.q0.sup_abs() == 3.0
    tb = iv._BoundaryTables(drop, t_max)
    step = (2 * t_max * 3.0 + 1) / 2047
    assert abs(tb.g_r0[-1] - 3.0) < step
    assert tb.g[-1] == pytest.approx(9.0 / (2 * t_max) - 4.5, abs=3.0 * step)


def test_boundary_tables_match_dense_formula_byte_for_byte():
    # each block of rows scans only the band of its largest t1; q0 = -x on
    # [0, 1), then 0 has sup_abs() = 1, the left limit -1 at the jump, and
    # for t1 > 1 its row argmin sits at r0 near 1
    jump_up = iv.InviscidProblem(1, ScalarProfile.from_pieces([0.0, 1.0, 2.0],
                                                              [[0.0, -1.0], [0.0]]),
                                 P0, ONE, ONE)
    for prob in _c09_problems() + _launch_problems() + [jump_up]:
        for t_max in (0.5, 1.0, 4.0, 20.0):
            _assert_tables_equal(iv._BoundaryTables(prob, t_max), _dense_tables(prob, t_max))
        # a query past t_max rebuilds the tables at twice its time
        mz = iv.PathMinimizer(prob, t_max=1.0)
        mz.minimize(0.5, 3.0)
        assert mz.tables.t_max == 6.0
        _assert_tables_equal(mz.tables, _dense_tables(prob, 6.0))


def test_running_first_argmin_matches_loop():
    rng = np.random.default_rng(3)
    for _ in range(300):
        size = int(rng.integers(1, 60))
        # few distinct values, so ties are common, with +inf and NaN mixed in
        w = rng.integers(-4, 5, size).astype(float)
        w[rng.random(size) < 0.15] = np.inf
        w[1:][rng.random(size - 1) < 0.1] = np.nan
        got = iv._running_first_argmin(w)
        want = _running_first_argmin_loop(w)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _launch_problems():
    # q0 < 0 near the origin: C0 < 0 there, so the boundary tables seed
    # the descent with a launch radius r0 > 0 at t1 > 0
    return [
        iv.InviscidProblem(3, ScalarProfile.from_pieces([0.0, 2.0, 3.0], [[-1.2], [0.0]]),
                           P0, ScalarProfile.constant(0.5),
                           ScalarProfile.constant(6 * math.pi)),
        iv.InviscidProblem(1, ScalarProfile.piecewise_linear([0.0, 2.0, 3.0],
                                                             [-1.5, -1.0, 0.0]),
                           P0, ScalarProfile.piecewise_linear([0.0, 1.0, 2.0, 3.0],
                                                              [0.9, 0.3, 0.7, 0.2]),
                           ScalarProfile.constant(3.0)),
    ]


def test_three_segment_descent_matches_brute_force(monkeypatch):
    # while w still falls at t2, a seed at t1 > 0 has t1 = t2, costs +inf
    # on the t2 line and the descent drops to two segments; on the n = 3
    # problem w turns at t1 = 4, so for t2 > 4 the r0 and t1 line searches
    # run and a three-segment path wins
    problems = _launch_problems()
    seeds, line_searches = [], []
    descend, cost = iv.PathMinimizer._descend, iv.boundary_cost

    def record_descend(self, r, t, r0, t1, t2, cell):
        seeds.append(float(t1))
        return descend(self, r, t, r0, t1, t2, cell)

    def record_cost(r, r0, t, t1, t2, problem):
        # the descent's r0 and t1 line searches evaluate boundary_cost
        # directly, and only they evaluate it at t1 > 0
        if t1 > 0.0:
            line_searches.append((r, t))
        return cost(r, r0, t, t1, t2, problem)

    monkeypatch.setattr(iv.PathMinimizer, "_descend", record_descend)
    monkeypatch.setattr(iv, "boundary_cost", record_cost)
    rng = np.random.default_rng(5)
    for prob in problems:
        seeds.clear()
        line_searches.clear()
        mz = iv.PathMinimizer(prob, t_max=8.0)
        wins = 0
        for _ in range(150):
            r, t = float(rng.uniform(0.05, 2.5)), float(rng.uniform(0.1, 8.0))
            m = mz.minimize(r, t)
            vb, _ = orc.brute_force_Q(prob, r, t, grid_density=100, refine_rounds=2)
            assert abs(m.value - vb) <= 1e-4
            wins += m.branch == "boundary" and m.t1 > 0.0
        assert any(t1 > 0.0 for t1 in seeds)
        if prob.n == 3:
            assert line_searches and wins


def test_minimize_value_is_boundary_cost_at_its_minimizers_exactly():
    # the descent's t2 line adds its terms in boundary_cost's order and its
    # r0 and t1 lines call boundary_cost, so re-evaluating a result at its
    # own minimizers gives the same bits
    from zpgd import cli

    problems = _c09_problems() + [
        cli._problem(iv.InviscidProblem, cli.parse_config(cli.resolve_config(name))["problem"])
        for name in ("inviscid_inflow", "verify_rh_riemann")]
    # the launch problems run the r0 and t1 line searches once t > 4
    cases = ([(prob, [*np.linspace(0.1, 2.0, 9), 3.7]) for prob in problems]
             + [(prob, np.linspace(0.2, 8.0, 14)) for prob in _launch_problems()])
    branches = set()
    descended_wins = three_segment_wins = 0
    for prob, times in cases:
        mz = iv.PathMinimizer(prob, t_max=4.0)
        descents = []
        descend = mz._descend
        mz._descend = lambda *args, **kw: descents.append(1) or descend(*args, **kw)
        for t in times:
            for r in [0.004, 0.02, *np.linspace(0.05, 2.5, 12)]:
                before = len(descents)
                m = mz.minimize(float(r), float(t))
                assert check_value(m, prob, float(r), float(t)) == 0.0, (r, t, m)
                branches.add(m.branch)
                descended_wins += m.branch == "boundary" and len(descents) > before
                three_segment_wins += m.branch == "boundary" and m.t1 > 0.0
    assert branches == {"interior", "boundary"}
    # boundary winners polished by the descent's one-piece t2 line search
    assert descended_wins >= 50
    assert three_segment_wins >= 1


def test_descent_line_functions_carry_boundary_cost_bits():
    # the descent's t2 line fixes r0 and t1; at any t2 it must return
    # boundary_cost + C0(r0) bit for bit
    q0 = ScalarProfile.piecewise_linear([0.0, 0.6, 1.4, 2.2], [0.5, 0.7, -0.3, 0.0])
    qb = ScalarProfile.piecewise_linear([0.0, 0.7, 1.5, 2.5], [0.9, 0.4, -0.5, 0.3])
    prob = iv.InviscidProblem(2, q0, P0, qb, ScalarProfile.constant(20.0))
    mz = iv.PathMinimizer(prob, t_max=4.0)
    rng = np.random.default_rng(11)
    for k in range(400):
        r, t, r0 = (float(v) for v in rng.uniform([0.05, 0.1, 0.0], [2.5, 2.0, 2.5]))
        t1, t2 = (float(v) for v in np.sort(rng.uniform(0.0, t, 2)))
        if k % 10 == 0:
            r0, t1 = 0.0, 0.0          # the two-segment family
        want = iv.boundary_cost(r, r0, t, t1, t2, prob) + q0.cumulative(r0)
        assert mz._line(r, t, r0, t1)(t2) == want
        # a bracket around t2, inside one piece of V or across a
        # breakpoint: the one-piece evaluator keeps the bits
        lo, hi = rng.uniform(0.0, 0.3, 2)
        assert mz._line(r, t, r0, t1, on=(max(0.0, t2 - lo), t2 + hi))(t2) == want
    # a positive launch radius at t1 = 0, t2 >= t, or t1 >= t2
    assert mz._line(1.0, 1.0, 0.5, 0.0)(0.5) == math.inf
    assert mz._line(1.0, 1.0, 0.5, 0.2)(1.0) == math.inf
    assert mz._line(1.0, 1.0, 0.5, 0.6)(0.5) == math.inf
    assert mz._line(1.0, 1.0, 0.5, 0.6)(0.6) == math.inf


def _full_scan_interior(prob, r, t, sup_v):
    """The interior branch as a scan of all 2,048 nodes, with cumulative
    itself in the line search: its argmin k and the (r0, value) result."""
    q0 = prob.q0
    r0g = np.linspace(0.0, r + t * (q0.sup_abs() + sup_v) + 1.0, 2048)
    vals = (r - r0g) ** 2 / (2.0 * t) + q0.cumulative(r0g)
    k = int(np.argmin(vals))
    lo, hi = r0g[max(k - 1, 0)], r0g[min(k + 1, 2047)]
    fun = lambda x: (r - x) ** 2 / (2.0 * t) + q0.cumulative(x)
    return k, iv._line_min(fun, lo, hi, kinks=q0.breakpoints)


@st.composite
def _band_case(draw):
    """q0 of either sign (zero, constant, piecewise linear, pieces of degree
    <= 2 with jumps, or a degree 3-5 piece that sup_abs samples), r near 0,
    moderate or so large that the band is clipped at the scan's last node,
    t in [0.05, 4] and sup|q_B^+|."""
    kind = draw(st.sampled_from(["zero", "constant", "linear", "jumps", "poly"]))
    # three decimals: no subnormal top coefficient for sup_abs's np.roots
    coeff = st.floats(-2.0, 2.0).map(lambda c: round(c, 3))
    if kind == "zero":
        q0 = ScalarProfile.zero()
    elif kind == "constant":
        q0 = ScalarProfile.constant(draw(st.floats(-2.0, 2.0)))
    elif kind == "linear":
        k = draw(st.integers(1, 4))
        xs = np.concatenate([[0.0], np.cumsum(draw(st.lists(st.floats(0.05, 1.0),
                                                            min_size=k, max_size=k)))])
        q0 = ScalarProfile.piecewise_linear(
            xs, draw(st.lists(st.floats(-2.0, 2.0), min_size=k + 1, max_size=k + 1)))
    elif kind == "jumps":
        k = draw(st.integers(1, 4))
        xs = np.concatenate([[0.0], np.cumsum(draw(st.lists(st.floats(0.05, 1.0),
                                                            min_size=k, max_size=k)))])
        rows = draw(st.lists(st.lists(coeff, min_size=1, max_size=3), min_size=k, max_size=k))
        q0 = ScalarProfile.from_pieces(xs, rows)
    else:
        deg = draw(st.integers(3, 5))
        row = draw(st.lists(coeff.map(lambda c: c / 2), min_size=deg + 1, max_size=deg + 1))
        q0 = ScalarProfile.from_pieces([0.0, draw(st.floats(0.5, 3.0)), 4.0], [row, [0.0]])
    r = draw(st.one_of(st.floats(1e-6, 0.05), st.floats(0.05, 3.0), st.floats(700.0, 5000.0)))
    return q0, r, draw(st.floats(0.05, 4.0)), draw(st.floats(0.0, 2.0))


@settings(max_examples=150, deadline=None)
@given(case=_band_case())
@example(case=(ScalarProfile.constant(-1.0), 1.0, 2.0, 0.0))
@example(case=(ScalarProfile.constant(0.5), 4000.0, 4.0, 0.0))
# q0 = x on [0, 1), then 0: sup_abs() is 1, the left limit at the jump
@example(case=(ScalarProfile.from_pieces([0.0, 1.0, 2.0], [[0.0, 1.0], [0.0]]), 1.2, 2.0, 0.0))
def test_interior_band_holds_the_full_scan_argmin(case):
    # the band scan must find the full scan's first argmin, and _interior
    # (whole blocks of the band, the one-piece line search) its bits
    q0, r, t, sup_v = case
    prob = iv.InviscidProblem(1, q0, P0, ScalarProfile.constant(1.0), ONE)
    k, want = _full_scan_interior(prob, r, t, sup_v)
    r0_hi = r + t * (q0.sup_abs() + sup_v) + 1.0
    r0g = np.linspace(0.0, r0_hi, 2048)
    i0, i1 = iv._interior_band(r, t, q0.sup_abs(), r0_hi / 2047)
    band = r0g[i0:i1]
    assert i0 <= k < i1
    assert i0 + int(np.argmin((r - band) ** 2 / (2.0 * t) + q0.cumulative(band))) == k
    assert iv.PathMinimizer(prob, t_max=4.0)._interior(r, t, sup_v) == want


def test_sup_v_reuse_changes_no_result(monkeypatch):
    # minimize reads sup q_B^+ over [0, t] once per change of t, and never
    # when q_B <= 0; every result keeps the bits of a fresh minimizer's
    bounded = []
    sup_abs = ScalarProfile.sup_abs

    def counted(self, lo=None, hi=None):
        if lo is not None or hi is not None:
            bounded.append((lo, hi))
        return sup_abs(self, lo, hi)

    monkeypatch.setattr(ScalarProfile, "sup_abs", counted)
    # repeated t, alternating t, and t = 5 past t_max = 2 (a table rebuild)
    queries = [(0.3, 0.5), (0.9, 0.5), (1.6, 0.5), (0.3, 1.2), (0.7, 0.5), (0.7, 1.2),
               (0.2, 1.2), (1.1, 5.0), (0.05, 5.0), (2.2, 0.5)]
    credit = [_c09_problems()[1], _launch_problems()[1]]
    no_credit = iv.InviscidProblem(
        2, ScalarProfile.constant(0.5), P0,
        ScalarProfile.piecewise_linear([0.0, 1.0, 2.0], [-0.4, 0.0, -1.0]), ONE)
    assert no_credit._no_credit and not any(prob._no_credit for prob in credit)
    for prob in credit + [no_credit]:
        mz = iv.PathMinimizer(prob, t_max=2.0)
        last_t = None
        for r, t in queries:
            # a fresh minimizer on the same tables, rebuilt by the same query
            fresh = iv.PathMinimizer(prob, t_max=mz.tables.t_max)
            before = len(bounded)
            got = mz.minimize(r, t)
            calls = len(bounded) - before
            want = fresh.minimize(r, t)
            assert repr(dataclasses.astuple(got)) == repr(dataclasses.astuple(want)), (r, t)
            assert calls == (0 if prob is no_credit else int(t != last_t)), (r, t)
            last_t = t
        # without credit no query reads the tables, so none rebuilds them
        assert mz.tables.t_max == (2.0 if prob is no_credit else 10.0)


def test_boundary_table_build_memory():
    # the cost is taken in row blocks: a dense 2049 x 2048 matrix and its
    # temporaries peak at about 64 MiB
    prob = _c09_problems()[0]
    tracemalloc.start()
    try:
        iv._BoundaryTables(prob, 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20
