import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import binned_field
from zpgd import bounded_green as bg
from zpgd import oracles as orc
from zpgd.profiles import ScalarProfile
from zpgd.specfun import DomainCase


def test_fd_viscous_trivial_stays_zero():
    ivp = orc.ViscousIVP(3, 0.5, 1e-3, 1.0, ScalarProfile.zero(),
                         ScalarProfile.constant(1.0), q_right=0.0)
    fld = orc.fd_viscous_solve(ivp, np.linspace(0.0, 0.5, 6), n_r=201)
    assert np.abs(fld.q).max() < 1e-13


def test_fd_viscous_reduces_to_burgers_closed_form():
    # n = 1 on a truncated line: u = x/(1+t) exactly for any viscosity
    ivp = orc.ViscousIVP(
        1, 0.4, -2.0, 2.0,
        ScalarProfile.piecewise_linear([-2.0, 2.0], [-2.0, 2.0]),
        ScalarProfile.constant(1.0),
        q_left=lambda t: -2.0 / (1.0 + t),
        q_right=lambda t: 2.0 / (1.0 + t))
    fld = orc.fd_viscous_solve(ivp, np.linspace(0.0, 1.0, 5), n_r=801)
    worst = 0.0
    for i, t in enumerate(fld.grid_t):
        worst = max(worst, np.abs(fld.q[i] - fld.grid_r / (1 + t)).max())
    assert worst < 1e-4
    # density transports exactly too: rho = rho0(x/(1+t))/(1+t)
    exact_p = 1.0 / (1 + fld.grid_t[-1])
    inner = slice(40, -40)
    assert np.abs(fld.p[-1][inner] - exact_p).max() < 2e-3


def test_fd_mass_flux_identity():
    q0 = ScalarProfile.from_pieces([0.0, 1.0, 2.0],
                                   [[0.0, 0.0, 0.75, -0.5], [0.25]])
    ivp = orc.ViscousIVP(3, 0.5, 1e-3, 1.0, q0, ScalarProfile.constant(1.0),
                         q_right=0.25)
    ts = np.linspace(0.0, 1.0, 41)
    fld = orc.fd_viscous_solve(ivp, ts, n_r=1201)
    mass = np.trapezoid(fld.p, fld.grid_r, axis=1)
    dm_dt = np.gradient(mass, ts)
    # two-boundary identity on the truncated domain [r_lo, R]; the inner
    # flux q(r_lo) p(r_lo) ~ 2e-4 is exactly the origin-truncation term
    flux = -(fld.q[:, -1] * fld.p[:, -1] - fld.q[:, 0] * fld.p[:, 0])
    assert np.abs(dm_dt[5:-5] - flux[5:-5]).max() < 1e-4


def test_fd_stability_guard():
    # the time step is sized for the data at t = 0, all at rest (speed
    # bound 1.5e-3); the right wall then ramps to speed 20 by t = 0.5
    ivp = orc.ViscousIVP(1, 0.05, 0.0, 1.0, ScalarProfile.zero(),
                         ScalarProfile.constant(1.0), q_left=0.0,
                         q_right=lambda t: -40.0 * t)
    with pytest.raises(orc.StabilityError, match="velocity outgrew"):
        orc.fd_viscous_solve(ivp, np.linspace(0.0, 0.5, 3), n_r=101)


def _numpy_thomas(lower, diag, upper, rhs):
    # reference: the Thomas factor and recurrence on numpy scalars
    n = diag.size
    cp, dp = np.empty(n), np.empty(n)
    cp[0] = upper[0] / diag[0]
    dp[0] = diag[0]
    for i in range(1, n):
        dp[i] = diag[i] - lower[i] * cp[i - 1]
        cp[i] = upper[i] / dp[i] if i < n - 1 else 0.0
    y = np.empty(n)
    y[0] = rhs[0] / dp[0]
    for i in range(1, n):
        y[i] = (rhs[i] - lower[i] * y[i - 1]) / dp[i]
    for i in range(n - 2, -1, -1):
        y[i] -= cp[i] * y[i + 1]
    return y


def _tridiag_residual(lower, diag, upper, y, rhs):
    ay = diag * y
    ay[1:] += lower[1:] * y[:-1]
    ay[:-1] += upper[:-1] * y[1:]
    scale = (np.abs(lower) + np.abs(diag) + np.abs(upper)) * np.abs(y).max() + np.abs(rhs)
    return np.max(np.abs(ay - rhs) / scale)


def _ball3d_ivp():
    q0 = ScalarProfile.from_pieces([0.0, 1.0, 2.0], [[0.0, 0.0, 0.75, -0.5], [0.25]])
    return orc.ViscousIVP(3, 0.5, 1e-3, 1.0, q0, ScalarProfile.constant(1.0), q_right=0.25)


def test_thomas_solve_matches_numpy_recurrence(monkeypatch):
    rng = np.random.default_rng(23)
    systems = []
    for n in (1, 2, 3, 1200):
        for _ in range(5):
            lower, upper = rng.normal(size=n), rng.normal(size=n)
            diag = (np.abs(lower) + np.abs(upper) + rng.uniform(0.1, 2.0, n)) \
                * rng.choice([-1.0, 1.0], n)
            rhs = rng.normal(size=n) * 10.0 ** rng.integers(-6, 6, n)
            systems.append((lower, diag, upper, rhs))
    # the SBDF2 and startup factorizations of a ball3d viscous problem and the
    # Crank-Nicolson factorization of a ball3d heat problem, with the
    # right-hand sides of their first steps
    factored, solved = [], []
    factor, solve = orc._thomas_factor, orc._thomas_solve

    def record_factor(lower, diag, upper):
        fac = factor(lower, diag, upper)
        factored.append((fac, (lower.copy(), diag.copy(), upper.copy())))
        return fac

    def record_solve(fac, rhs):
        if len(solved) < 60:
            solved.append((fac, rhs.copy()))
        return solve(fac, rhs)

    monkeypatch.setattr(orc, "_thomas_factor", record_factor)
    monkeypatch.setattr(orc, "_thomas_solve", record_solve)
    orc.fd_viscous_solve(_ball3d_ivp(), np.array([0.0, 0.01]), n_r=1200)
    n_viscous = len(solved)
    orc.fd_heat_solve(3, 0.5, lambda r: np.cos(r) + 0.5 * r, 0.05, 1.0, q_outer=0.3)
    assert len(factored) == 3 and 3 <= n_viscous < len(solved) == 60
    for fac, args in factored:
        systems += [(*args, rhs) for used, rhs in solved if used is fac]
    assert len(systems) == 20 + len(solved)
    for lower, diag, upper, rhs in systems:
        y = solve(factor(lower, diag, upper), rhs)
        assert isinstance(y, np.ndarray) and y.dtype == np.float64 and y.shape == rhs.shape
        want = _numpy_thomas(lower, diag, upper, rhs)
        assert np.array_equal(y.view(np.int64), want.view(np.int64))
        assert _tridiag_residual(lower, diag, upper, y, rhs) < 1e-13


def test_fd_viscous_run_matches_numpy_recurrence(monkeypatch):
    # a whole run as shipped against the same run on the in-test reference
    ts = np.linspace(0.0, 0.05, 6)
    shipped = orc.fd_viscous_solve(_ball3d_ivp(), ts, n_r=300)
    monkeypatch.setattr(orc, "_thomas_factor", lambda *rows: rows)
    monkeypatch.setattr(orc, "_thomas_solve", lambda rows, rhs: _numpy_thomas(*rows, rhs))
    ref = orc.fd_viscous_solve(_ball3d_ivp(), ts, n_r=300)
    assert np.array_equal(shipped.q.view(np.int64), ref.q.view(np.int64))
    assert np.array_equal(shipped.p.view(np.int64), ref.p.view(np.int64))


def _fd_pinned_problems():
    ball = bg.BoundedProblem(DomainCase.BALL_3D, 0.5, _ball3d_ivp().q0,
                             ScalarProfile.constant(1.0), radius=1.0, q_boundary=0.25)
    # inflow at the inner wall, so the left density datum is read
    shell = bg.BoundedProblem(
        DomainCase.ANNULUS_3D, 0.6,
        ScalarProfile.from_pieces([1.0, 2.0, 3.0], [[0.45, 0.0, -0.75, 0.5], [0.2]]),
        ScalarProfile.constant(1.0), r_inner=1.0, r_outer=2.0, q_inner=0.45,
        q_outer=0.2, rho_inner=ScalarProfile.constant(1.0))
    line = orc.ViscousIVP(
        1, 0.4, -2.0, 2.0, ScalarProfile.piecewise_linear([-2.0, 2.0], [-2.0, 2.0]),
        ScalarProfile.constant(1.0), q_left=lambda t: -2.0 / (1.0 + t),
        q_right=lambda t: 2.0 / (1.0 + t))
    return {"ball": orc.ViscousIVP.from_bounded(ball),
            "annulus": orc.ViscousIVP.from_bounded(shell), "line": line}


# sha256 of the q and p arrays on n_r = 200 nodes at t = 0, 0.05, ..., 0.2,
# recorded when a boundary switch passed beside the problem chose the
# origin row; taking the left wall from the problem keeps every bit
_FD_PINNED = {
    "ball": ("8df95dc9ca8adc42fee181acc0d33d0ba8f739d2a834396c2404a2ef69af13e4",
             "bd2c671dc0d2b8a73b9338ff652810fda2cb27739ff23aba023825916d72efc7"),
    "annulus": ("6c0fc396086fa6d6a1a6b853c8adfe75c5880d8302ecc187703fbb81e61a96d5",
                "552b50f046f87730c376b31a52bedee3e87b0226b75c7cbc7556c88d8ceed925"),
    "line": ("9d33144569a611678d96cb0467879c62700f2ef43f028bb6c69a1a43d850b0d6",
             "917f7a3fee0bcfbac9d5d8d5ab1214816585902b38925ba2975536125ef48222"),
}


@pytest.mark.parametrize("name", sorted(_FD_PINNED))
def test_fd_viscous_walls_from_problem_keep_bits(name):
    ivp = _fd_pinned_problems()[name]
    assert (ivp.q_left is None) == (name == "ball")
    fld = orc.fd_viscous_solve(ivp, np.linspace(0.0, 0.2, 5), n_r=200)
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (fld.q, fld.p))
    assert digests == _FD_PINNED[name]


def test_thomas_factor_rejects_singular_and_nonfinite_pivots():
    lower, upper = np.array([0.0, 1.0, 1.0]), np.array([1.0, 1.0, 0.0])
    # singular 3 x 3: the pivots are 1, 1, 0, and the last one divides nothing
    with pytest.raises(orc.StabilityError, match="pivot"):
        orc._thomas_factor(lower, np.array([1.0, 2.0, 1.0]), upper)
    # a zero pivot mid-way
    with pytest.raises(orc.StabilityError, match="pivot"):
        orc._thomas_factor(lower, np.array([1.0, 1.0, 1.0]), upper)
    with pytest.raises(orc.StabilityError, match="pivot"):
        orc._thomas_factor(lower, np.array([1.0, np.nan, 1.0]), upper)


def test_fd_heat_constant_preserved():
    cells, a = orc.fd_heat_solve(3, 0.5, lambda r: np.ones_like(r), 0.4, 1.0,
                                 q_outer=0.0, n_cells=400)
    assert np.abs(a - 1.0).max() < 1e-12


def test_brute_force_examples_and_nested_refinement():
    prob_zero = __import__("zpgd.inviscid", fromlist=["InviscidProblem"]).InviscidProblem(
        3, ScalarProfile.zero(),
        ScalarProfile.piecewise_linear([0, 1, 2], [1, 1, 0]),
        ScalarProfile.zero(), ScalarProfile.constant(12.0))
    v, arg = orc.brute_force_Q(prob_zero, 1.2, 0.9, grid_density=100)
    assert v == pytest.approx(0.0, abs=1e-4)
    assert arg[1] == pytest.approx(1.2, abs=0.2)
    # nested grids (2N-1 pattern) refine monotonically
    vals = []
    for g in (51, 101, 201):
        vals.append(orc.brute_force_Q(prob_zero, 0.8, 1.1, grid_density=g)[0])
    assert vals[0] >= vals[1] - 1e-14 >= vals[2] - 2e-14
    with pytest.raises(ValueError):
        orc.brute_force_Q(prob_zero, 1.0, 1.0, grid_density=10)


def test_sticky_two_particle_merge():
    parts = [orc.Particle(1.0, 1.0, 1.0), orc.Particle(2.0, 1.0, -1.0)]
    traj = orc.sticky_particle_run(parts, [0.2, 0.5, 1.0])
    # collision at r = 1.5, time 0.5; merged mass 2, velocity 0
    assert traj.positions[0].size == 2
    assert traj.positions[-1].size == 1
    assert traj.positions[-1][0] == pytest.approx(1.5)
    assert traj.masses[-1][0] == pytest.approx(2.0)
    assert traj.velocities[-1][0] == pytest.approx(0.0)


def test_sticky_conservation_per_merge():
    rng = np.random.default_rng(9)
    rs = np.sort(rng.uniform(0.1, 5.0, 200))
    parts = [orc.Particle(float(r), float(rng.uniform(0.5, 1.5)),
                          float(rng.uniform(-1, 1))) for r in rs]
    times = np.linspace(0.0, 3.0, 7)
    traj = orc.sticky_particle_run(parts, times, absorb_at_origin=False)
    m0 = sum(p.m for p in parts)
    mom0 = sum(p.m * p.v for p in parts)
    for k in range(len(times)):
        assert traj.masses[k].sum() == pytest.approx(m0, rel=1e-12)
        assert (traj.masses[k] * traj.velocities[k]).sum() == pytest.approx(
            mom0, rel=1e-10, abs=1e-10)


@st.composite
def _particle_sets(draw):
    k = draw(st.integers(1, 40))
    rs = sorted(draw(st.lists(st.floats(0.0, 5.0), min_size=k, max_size=k)))
    ms = draw(st.lists(st.floats(0.01, 2.0), min_size=k, max_size=k))
    vs = draw(st.lists(st.floats(-2.0, 2.0), min_size=k, max_size=k))
    return [orc.Particle(r, m, v) for r, m, v in zip(rs, ms, vs)]


@settings(max_examples=150, deadline=None)
@given(parts=_particle_sets(), t_end=st.floats(0.1, 5.0))
def test_sticky_conservation_property(parts, t_end):
    # without absorption every merge is perfectly inelastic: total mass and
    # momentum stay those of the seeds at every sample time
    times = np.linspace(0.0, t_end, 5)
    traj = orc.sticky_particle_run(parts, times, absorb_at_origin=False)
    m0 = sum(p.m for p in parts)
    mom0 = sum(p.m * p.v for p in parts)
    seed_m = np.array([p.m for p in parts])
    for k in range(times.size):
        assert traj.masses[k].sum() == pytest.approx(m0, rel=1e-12)
        assert (traj.masses[k] * traj.velocities[k]).sum() == pytest.approx(
            mom0, rel=1e-10, abs=1e-10)
        assert np.all(np.diff(traj.positions[k]) >= -1e-9 * (1.0 + np.abs(traj.positions[k][1:])))
        # each row holds exactly the seeds that map to it
        rows = traj.cluster_of_seed[k]
        assert rows.min() >= 0
        np.testing.assert_allclose(
            np.bincount(rows, weights=seed_m, minlength=traj.masses[k].size),
            traj.masses[k], rtol=1e-12)


def test_sticky_absorption_at_origin():
    parts = [orc.Particle(0.5, 1.0, -1.0), orc.Particle(2.0, 1.0, 0.0)]
    traj = orc.sticky_particle_run(parts, [0.2, 0.6, 1.0])
    assert traj.positions[0].size == 2
    assert traj.positions[-1].size == 1
    assert traj.absorbed_mass[-1] == pytest.approx(1.0)
    # absorbed seed maps to -1
    assert traj.cluster_of_seed[-1][0] == -1


def test_sticky_riemann_cluster_rates():
    # cluster speed -> (q_- + q_+)/2 and mass growth -> [qp] - [p] s_dot
    times = np.linspace(0.2, 1.4, 7)
    parts = orc.riemann_particles(1.0, 0.0, 1.0, 1.0, split=1.0, r_max=3.0,
                                  count=4000)
    traj = orc.sticky_particle_run(parts, times)
    ts, rs, ms, vs = traj.cluster_track(int(4000 / 3.0))
    assert np.abs(rs - (1.0 + 0.5 * ts)).max() < 5e-4
    assert np.abs(vs - 0.5).max() < 5e-3
    growth = np.gradient(ms, ts)
    assert np.abs(growth - 1.0).max() < 2e-2


def test_binned_field_reconstruction():
    parts = orc.riemann_particles(1.0, 0.0, 1.0, 1.0, split=1.0, r_max=3.0,
                                  count=2000)
    traj = orc.sticky_particle_run(parts, [0.5])
    edges = np.linspace(0.0, 3.0, 31)
    q, p = binned_field(traj, 0, edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    left = mids < 1.1
    right = mids > 1.4
    assert np.abs(p[left & (mids > 0.6)] - 1.0).max() < 0.05
    assert np.abs(q[right] - 0.0).max() < 1e-12


def test_particle_csv(tmp_path):
    parts = [orc.Particle(1.0, 1.0, 1.0), orc.Particle(2.0, 1.0, -1.0)]
    traj = orc.sticky_particle_run(parts, [0.2, 1.0])
    path = tmp_path / "particles.csv"
    orc.write_particle_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,index,r,m,v"
    assert len(lines) == 1 + 2 + 1
