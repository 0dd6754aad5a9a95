import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from helpers import integral, negative_slope_trace
from zpgd import freespace as fs
from zpgd.profiles import ScalarProfile
from zpgd.radial_core import gauss_panels


def quadratic_potential(eps=0.7):
    # q0(r) = r on a range wide enough that the clamp never matters:
    # phi0 = |x|^2/2 and u = x/(1+t) exactly, for every eps
    q0 = ScalarProfile.piecewise_linear([0.0, 120.0], [0.0, 120.0])
    rho0 = smooth_bump_rho()
    return fs.FreespaceProblem(n=1, epsilon=eps, q0=q0, rho0=rho0, rho0_support=2.0)


def smooth_bump_rho():
    base = P.polypow([1.0, 0.0, -0.25], 4)   # (1 - r^2/4)^4, C^3 at r = 2
    return ScalarProfile.from_pieces([0.0, 2.0, 3.0], [list(base), [0.0]])


def smooth_bump_q0(amp=1.5):
    base = P.polypow([1.0, 0.0, -0.25], 4)
    coeffs = amp * 0.5 * P.polymul([0.0, 1.0], base)
    return ScalarProfile.from_pieces([0.0, 2.0, 3.0], [list(coeffs), [0.0]])


def compact_problem(n=1, eps=0.4):
    return fs.FreespaceProblem(n=n, epsilon=eps, q0=smooth_bump_q0(),
                               rho0=smooth_bump_rho(), rho0_support=2.0)


def test_velocity_zero_for_zero_data():
    pr = fs.FreespaceProblem(n=3, epsilon=0.5, q0=ScalarProfile.zero(),
                             rho0=smooth_bump_rho(), rho0_support=2.0)
    u = fs.velocity(pr, np.array([0.3, 0.2, 0.1]), 1.0)
    assert np.abs(u).max() < 1e-13


def test_velocity_closed_form_n1():
    pr = quadratic_potential()
    for x in (-4.0, -1.3, 0.7, 3.2):
        for t in (0.1, 1.0, 10.0):
            u = fs.velocity(pr, x, t)
            assert u == pytest.approx(x / (1 + t), rel=1e-9)


def test_velocity_closed_form_general_callable():
    pr = fs.FreespaceProblem(n=1, epsilon=0.7, phi0=lambda y: 0.5 * y * y,
                             grad_phi0=lambda y: float(y),
                             rho0=lambda x: 1.0, rho0_support=1.0)
    assert fs.velocity(pr, 2.5, 3.0) == pytest.approx(2.5 / 4.0, rel=1e-8)


def test_velocity_closed_form_radial_n3():
    pr = fs.FreespaceProblem(n=3, epsilon=0.5,
                             q0=ScalarProfile.piecewise_linear([0.0, 120.0], [0.0, 120.0]),
                             rho0=smooth_bump_rho(), rho0_support=2.0)
    x = np.array([1.0, 1.0, 0.5])
    u = fs.velocity(pr, x, 2.0)
    assert u == pytest.approx(x / 3.0, rel=1e-9)


def test_velocity_bound_random_samples():
    rng = np.random.default_rng(21)
    for pr in (compact_problem(1, 0.3), compact_problem(3, 0.5)):
        L0 = pr.q0.sup_abs()
        for _ in range(120):
            t = float(10 ** rng.uniform(-1.3, 1.3))
            if pr.n == 1:
                x = float(rng.uniform(-4, 4))
                u = abs(fs.velocity(pr, x, t))
            else:
                x = rng.uniform(-2, 2, 3)
                u = float(np.linalg.norm(fs.velocity(pr, x, t)))
            assert u <= L0 + 1e-8


@st.composite
def _piecewise_linear_q0(draw):
    gaps = draw(st.lists(st.floats(0.1, 2.0), min_size=1, max_size=5))
    values = draw(st.lists(st.floats(-3.0, 3.0), min_size=len(gaps) + 1,
                           max_size=len(gaps) + 1))
    return ScalarProfile.piecewise_linear(np.concatenate([[0.0], np.cumsum(gaps)]), values)


@settings(max_examples=150, deadline=None)
@given(q0=_piecewise_linear_q0(), n=st.sampled_from([1, 2, 3]),
       eps=st.floats(0.05, 1.0), t=st.floats(0.05, 10.0), r=st.floats(0.0, 8.0))
def test_velocity_bound_property(q0, n, eps, t, r):
    # |q| <= sup|q0|: the Gaussian-ratio weights are positive and 0 <= G1 <= G0
    pr = fs.FreespaceProblem(n=n, epsilon=eps, q0=q0)
    assert abs(fs.radial_velocity(pr, r, t)) <= q0.sup_abs() + 1e-8


def _narrow_peak(s):
    return np.exp(-((s - 0.3) / 0.01) ** 2)[None, :]


def test_adaptive_budget_exhaustion_raises(monkeypatch):
    # a narrow peak needs many splits; a tiny budget or depth cannot reach
    # the tolerance and must not be accepted unconverged
    fn = _narrow_peak
    edges = np.array([0.0, 1.0])
    total = fs._adaptive(fn, edges, scale_fn=lambda rough: rough)
    assert total[0] == pytest.approx(0.01 * math.sqrt(math.pi), rel=1e-10)
    with monkeypatch.context() as m:
        m.setattr(fs, "_ADAPTIVE_BUDGET", 2)
        with pytest.raises(fs.QuadratureBudgetError, match="budget 2"):
            fs._adaptive(fn, edges, scale_fn=lambda rough: rough)
    monkeypatch.setattr(fs, "_ADAPTIVE_MAX_DEPTH", 1)
    with pytest.raises(fs.QuadratureBudgetError, match="max_depth 1"):
        fs._adaptive(fn, edges, scale_fn=lambda rough: rough)


def test_adaptive_calls_fn_once_per_level(monkeypatch):
    # the narrow peak refines over many levels; each level evaluates all of
    # its pending panels in one fn call
    fn = _narrow_peak
    calls = []

    def spy(s):
        calls.append(s.size)
        return fn(s)

    edges = np.array([0.0, 1.0])
    total = fs._adaptive(spy, edges, scale_fn=lambda rough: rough)
    assert total[0] == pytest.approx(0.01 * math.sqrt(math.pi), rel=1e-10)

    def converges(max_depth):
        monkeypatch.setattr(fs, "_ADAPTIVE_MAX_DEPTH", max_depth)
        try:
            fs._adaptive(fn, edges, scale_fn=lambda rough: rough)
        except fs.QuadratureBudgetError:
            return False
        return True

    # levels = depths 0..D of the refinement tree, D the least max_depth
    # that converges
    levels = next(d for d in range(17) if converges(d)) + 1
    assert levels >= 5
    assert len(calls) <= levels + 1


def test_negative_jacobian_raises_characteristic_error(monkeypatch):
    # the check sits in the one radial trace, so every radial entry point
    # raises: the batch density, the mass and the pointwise trace
    monkeypatch.setattr(fs, "_rk4_doubling", negative_slope_trace)
    pr = compact_problem(3)
    with pytest.raises(fs.CharacteristicError, match="non-positive"):
        fs._density_radial_batch(pr, np.linspace(0.1, 1.0, 5), 0.5)
    with pytest.raises(fs.CharacteristicError, match="non-positive"):
        fs.total_mass(pr, 0.5)
    for x in (np.zeros(3), np.array([0.3, 0.2, 0.1])):
        with pytest.raises(fs.CharacteristicError, match="non-positive"):
            fs.trace_characteristic(pr, x, 0.5)
        with pytest.raises(fs.CharacteristicError, match="non-positive"):
            fs.density(pr, x, 0.5)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_origin_trace_and_density_match_the_closed_form(n):
    # q0 = r: the foot of the origin is the origin and x -> X0 = x/(1+t)
    # has Jacobian (1+t)^-n there as everywhere
    pr = fs.FreespaceProblem(n=n, epsilon=0.7, q0=quadratic_potential().q0,
                             rho0=smooth_bump_rho(), rho0_support=2.0)
    origin = 0.0 if n == 1 else np.zeros(n)
    for t in (0.5, 1.0, 2.0):
        foot, jac = fs.trace_characteristic(pr, origin, t)
        assert np.array_equal(foot, origin) and np.shape(foot) == np.shape(origin)
        assert jac == pytest.approx((1.0 + t) ** -n, rel=1e-10)
        rho = fs.density(pr, origin, t)
        assert rho == pytest.approx(pr.rho0(0.0) / (1.0 + t) ** n, rel=1e-10)
        assert rho == fs._density_radial_batch(pr, [0.0], t)[0]


@pytest.mark.parametrize("x, t", [(0.3, 0.5), (-1.2, 1.0), (2.4, 2.0)])
def test_pointwise_n1_density_keeps_the_batch_bits(x, t):
    pr = compact_problem(1, 0.4)
    assert fs.density(pr, x, t) == fs._density_radial_batch(pr, [abs(x)], t)[0]


def test_radial_problem_without_rho0_raises_value_error():
    pr = fs.FreespaceProblem(n=2, epsilon=0.4, q0=smooth_bump_q0())
    for call in (lambda: fs.density(pr, np.array([0.3, 0.1]), 0.5),
                 lambda: fs.total_mass(pr, 0.0),
                 lambda: fs.total_mass(pr, 0.5),
                 lambda: fs._density_radial_batch(pr, [0.2, 0.4], 0.5)):
        with pytest.raises(ValueError, match="problem has no initial density"):
            call()


def test_time_domain_error():
    with pytest.raises(fs.TimeDomainError):
        fs.velocity(compact_problem(), 1.0, 0.0)


def test_confinement_diagnostic():
    # concave potential past its caustic time: the integrand is unbounded
    pr = fs.FreespaceProblem(n=1, epsilon=0.3, phi0=lambda y: -y * y,
                             grad_phi0=lambda y: -2.0 * y,
                             rho0=lambda x: 1.0, rho0_support=1.0)
    with pytest.raises(fs.ConfinementError):
        fs.velocity(pr, 0.3, 2.0)


def test_trace_characteristic_examples():
    # u == 0: stationary
    pz = fs.FreespaceProblem(n=3, epsilon=0.5, q0=ScalarProfile.zero(),
                             rho0=smooth_bump_rho(), rho0_support=2.0)
    x = np.array([0.4, 0.2, 0.1])
    foot, jac = fs.trace_characteristic(pz, x, 1.0)
    assert foot == pytest.approx(x, abs=1e-10)
    assert jac == pytest.approx(1.0, abs=1e-9)
    # u = x/(1+t): foot x/(1+t), jac 1/(1+t)
    pr = quadratic_potential()
    foot, jac = fs.trace_characteristic(pr, 2.0, 1.5)
    assert foot == pytest.approx(2.0 / 2.5, rel=1e-6)
    assert jac == pytest.approx(1.0 / 2.5, rel=1e-5)
    # n = 3 radial version: jac = (1+t)^-3
    p3 = fs.FreespaceProblem(n=3, epsilon=0.5,
                             q0=ScalarProfile.piecewise_linear([0.0, 120.0], [0.0, 120.0]),
                             rho0=smooth_bump_rho(), rho0_support=2.0)
    foot3, jac3 = fs.trace_characteristic(p3, np.array([1.0, 1.0, 0.5]), 2.0)
    assert jac3 == pytest.approx(1.0 / 27.0, rel=1e-5)


def test_general_potential_n1_trace_velocity_and_density():
    # phi0 = y^2/2 through callables: u = x/(1+t), foot x/(1+t), Jacobian
    # 1/(1+t); the gradient takes scalars only, as velocity passes them
    bump = smooth_bump_rho()
    rho0 = lambda x: float(bump(abs(x)))
    pr = fs.FreespaceProblem(n=1, epsilon=0.7, phi0=lambda y: 0.5 * y * y,
                             grad_phi0=lambda y: float(y), rho0=rho0, rho0_support=2.0)
    x, t = 1.3, 0.8
    foot, jac = fs.trace_characteristic(pr, x, t)
    assert foot == pytest.approx(x / (1 + t), abs=1e-10)
    assert jac == pytest.approx(1 / (1 + t), abs=1e-10)
    x, t = -0.6, 2.0
    assert fs.density(pr, x, t) == pytest.approx(rho0(x / (1 + t)) / (1 + t), abs=1e-10)
    assert fs.velocity(pr, 2.1, 0.5) == pytest.approx(2.1 / 1.5, rel=1e-8)
    foot, jac = fs.trace_characteristic(pr, 2.1, 0.5)
    assert foot == pytest.approx(1.4, abs=1e-10)
    assert jac == pytest.approx(1 / 1.5, abs=1e-10)
    assert fs.density(pr, 2.1, 0.5) == pytest.approx(rho0(1.4) / 1.5, abs=1e-10)


@pytest.mark.parametrize("kwargs, error, match", [
    (dict(n=4, epsilon=0.5, q0=ScalarProfile.zero()), ValueError, "n must be"),
    (dict(n=1, epsilon=0.0, q0=ScalarProfile.zero()), ValueError, "epsilon"),
    (dict(n=1, epsilon=0.5), ValueError, "q0 or a potential"),
    (dict(n=1, epsilon=0.5, q0=lambda r: r), TypeError, "ScalarProfile"),
    (dict(n=1, epsilon=0.5, phi0=lambda y: 0.5 * y * y), ValueError, "grad_phi0"),
    (dict(n=2, epsilon=0.5, q0=ScalarProfile.piecewise_linear([0.0, 1.0], [0.0, 1.0]),
          phi0=lambda y: -2.5 * y[1] ** 2, grad_phi0=lambda y: np.array([0.0, -5.0 * y[1]])),
     ValueError, "not both"),
    (dict(n=1, epsilon=0.5, q0=ScalarProfile.zero(), rho0=lambda x: 1.0), TypeError,
     "ScalarProfile rho0"),
    (dict(n=1, epsilon=1.0, phi0=1.0, grad_phi0=1.0), TypeError, "must be callable"),
    (dict(n=1, epsilon=1.0, phi0=lambda y: 0.5 * y * y, grad_phi0=1.0), TypeError,
     "must be callable"),
    (dict(n=1, epsilon=1.0, phi0=lambda y: 0.5 * y * y, grad_phi0=lambda y: y, rho0=1.0),
     TypeError, "callable rho0"),
])
def test_problem_rejects_invalid_data(kwargs, error, match):
    with pytest.raises(error, match=match):
        fs.FreespaceProblem(**kwargs)


def test_rho0_support_defaults_to_the_profile_end():
    # a profile rho0 is supported up to its last breakpoint; otherwise 1
    assert compact_problem().rho0_support == 2.0
    bump = fs.FreespaceProblem(n=1, epsilon=0.4, q0=smooth_bump_q0(), rho0=smooth_bump_rho())
    assert bump.rho0_support == 3.0 and type(bump.rho0_support) is float
    assert fs.FreespaceProblem(n=1, epsilon=0.4, q0=smooth_bump_q0()).rho0_support == 1.0
    assert _general_quadratic(1, 0.5).rho0_support == 1.0


def test_density_examples():
    rho0 = smooth_bump_rho()
    pz = fs.FreespaceProblem(n=3, epsilon=0.5, q0=ScalarProfile.zero(),
                             rho0=rho0, rho0_support=2.0)
    x = np.array([0.8, 0.0, 0.0])
    assert fs.density(pz, x, 0.7) == pytest.approx(rho0(0.8), rel=1e-8)
    pr = quadratic_potential()
    assert fs.density(pr, 1.2, 1.0) == pytest.approx(rho0(0.6) / 2.0, rel=1e-5)


def test_trace_characteristic_positive_jacobian():
    pr = compact_problem()
    foot, jac = fs.trace_characteristic(pr, 0.8, 0.9)
    assert jac > 0
    assert abs(pr.rho0(abs(foot)) * jac - fs.density(pr, 0.8, 0.9)) < 1e-10


def test_total_mass_conservation():
    pr = compact_problem(1, 0.4)
    m0, err0 = fs.total_mass(pr, 0.0)
    exact = 2.0 * integral(smooth_bump_rho(), 0.0, 2.0)
    assert m0 == pytest.approx(exact, rel=1e-10)
    for t in (0.5, 2.0):
        m, err = fs.total_mass(pr, t)
        assert abs(m - m0) / m0 < 1e-7
    z = fs.FreespaceProblem(n=1, epsilon=0.4, q0=smooth_bump_q0(),
                            rho0=ScalarProfile.zero(), rho0_support=2.0)
    mz, _ = fs.total_mass(z, 0.5)
    assert abs(mz) < 1e-12


@settings(max_examples=5, deadline=None)
@given(q0=_piecewise_linear_q0(), eps=st.floats(0.2, 1.0), t=st.floats(0.1, 2.0))
def test_total_mass_conservation_property(q0, eps, t):
    # m(t) = m(0) to the scenarios' mass_tol, through the batched tracer on
    # the scenarios' hump.  n = 1 only: an n = 2 or 3 example takes 5-11 s.
    # q0(0) >= 0: an inward cone at the origin gathers mass into a delta
    # there from t = 0+, which no fixed panel rule resolves.
    assume(q0(0.0) >= 0.0)
    # q0 is scaled down until t times its summed slope jumps (the last one
    # to the constant beyond its end) is at most 1/8.  This keeps t before
    # the first shock, but the bound is numerical: the tracer's step floor
    # forces steps across each kink's layer as s -> 0 and loses mass in
    # proportion to t |jump| (CHANGES.md FOUND; test below).
    x = np.asarray(q0.breakpoints)
    slopes = np.append(np.diff(q0(x)) / np.diff(x), 0.0)
    strain = t * float(np.abs(np.diff(slopes)).sum())
    if strain > 0.125:
        q0 = q0.scaled(0.125 / strain)
    pr = fs.FreespaceProblem(n=1, epsilon=eps, q0=q0, rho0=smooth_bump_rho(),
                             rho0_support=2.0)
    m0, _ = fs.total_mass(pr, 0.0)
    m, _ = fs.total_mass(pr, t)
    assert abs(m - m0) <= 1e-5 * m0


@pytest.mark.xfail(strict=True, reason="the tracer's step floor t/1500 forces steps across "
                                       "the kink of q0 as s -> 0 (CHANGES.md FOUND)")
def test_total_mass_conservation_across_q0_kink():
    # q0 rises to 1 on [0, 0.1] and stays there: t |jump| = 1, mass drift 3.4e-5
    q0 = ScalarProfile.piecewise_linear([0.0, 0.1], [0.0, 1.0])
    pr = fs.FreespaceProblem(n=1, epsilon=0.2, q0=q0, rho0=smooth_bump_rho(),
                             rho0_support=2.0)
    m0, _ = fs.total_mass(pr, 0.0)
    m, _ = fs.total_mass(pr, 0.1)
    assert abs(m - m0) <= 1e-5 * m0


def test_total_mass_raises_once_all_mass_sits_at_the_origin():
    # q0 = 2 -> -2.3545 on [0, 0.1]: the inward flow gathers all of
    # m(0) = 1.6254 into a point mass at the origin, and every node's
    # backward foot lands outside rho0's support
    q0 = ScalarProfile.piecewise_linear([0.0, 0.1], [2.0, -2.3545])
    pr = fs.FreespaceProblem(n=1, epsilon=0.2, q0=q0, rho0=smooth_bump_rho(),
                             rho0_support=2.0)
    assert fs.total_mass(pr, 0.0)[0] == pytest.approx(1.6253968, rel=1e-7)
    with pytest.raises(fs.MassConcentrationError):
        fs.total_mass(pr, 2.0)


@pytest.mark.parametrize("q0_ends, t", [((2.0, -2.3545), 0.5), ((0.0, 1.0), 0.1)])
def test_total_mass_estimate_sees_the_mass_the_nodes_miss(q0_ends, t):
    # 2 -> -2.3545: the inward flow gathers 1.32 of m(0) = 1.6254 into a
    # layer at the origin; 0 -> 1: the kink data of the strict xfail above,
    # drift 3.4e-5.  The Lagrangian mass inside the foot of R still holds m(0).
    q0 = ScalarProfile.piecewise_linear([0.0, 0.1], list(q0_ends))
    pr = fs.FreespaceProblem(n=1, epsilon=0.2, q0=q0, rho0=smooth_bump_rho(),
                             rho0_support=2.0)
    m0, _ = fs.total_mass(pr, 0.0)
    m, err = fs.total_mass(pr, t)
    assert err >= m0 - m - 1e-3
    assert err > 1e-5 * m0


@pytest.mark.parametrize("n, size", [(1, 161), (3, 321)])
def test_total_mass_traces_its_nodes_and_R_once(monkeypatch, n, size):
    # n = 1 folds: 16 panels of 10 nodes, and R; n = 3: 32 panels, and R
    pr = compact_problem(n, 0.4)
    trace, calls = fs._trace_radial_batch, []

    def spy(problem, radii, t):
        calls.append(np.array(radii))
        return trace(problem, radii, t)

    monkeypatch.setattr(fs, "_trace_radial_batch", spy)
    fs.total_mass(pr, 0.5)
    assert len(calls) == 1
    assert calls[0].size == size and calls[0][-1] == fs._support_image_radius(pr, 0.5)


@pytest.mark.parametrize("n", [2, 3])
def test_total_mass_rejects_a_potential_in_n2_n3_before_reading_rho0(n):
    # an off-centre Gaussian of mass pi^(n/2): its rho0 takes a point of
    # R^n, which a shell rule at scalar radii cannot give it
    seen = []

    def rho0(x):
        seen.append(x)
        return math.exp(-(x[0] - 1.0) ** 2 - float(np.sum(x[1:] ** 2)))

    pr = fs.FreespaceProblem(n=n, epsilon=0.4, phi0=lambda y: 0.0,
                             grad_phi0=lambda y: np.zeros(n), rho0=rho0, rho0_support=6.0)
    for t, radius in ((0.0, None), (0.0, 6.0), (0.5, 6.0)):
        with pytest.raises(NotImplementedError, match="radial or 1-D"):
            fs.total_mass(pr, t, radius)
    assert not seen


def _full_line_mass(pr, t):
    """(mass, error estimate) of total_mass unfolded onto the whole line:
    the rule on the density over [-R, R], and the rule with half the panels
    on rho0 over the foot interval [-X0(R), X0(R)]."""
    radius = fs._support_image_radius(pr, t)
    panels, points = fs._MASS_PANELS, fs._MASS_POINTS
    n1, w1 = gauss_panels(np.linspace(-radius, radius, panels + 1), points)
    if pr.is_radial:
        feet, jac = fs._trace_radial_batch(pr, np.append(n1, radius), t)
        vals, foot = pr.rho0(feet[:-1]) * jac[:-1], feet[-1]
    else:
        vals, foot = np.array([fs._rho0_value(pr, x) for x in n1]), radius
    n2, w2 = gauss_panels(np.linspace(-foot, foot, panels // 2 + 1), points)
    m1 = float(vals @ w1)
    return m1, abs(m1 - float(np.array([fs._rho0_value(pr, x) for x in n2]) @ w2))


def test_total_mass_radial_n1_folds_onto_half_line():
    pr = compact_problem(1, 0.4)
    for t in (0.0, 0.5, 2.0):
        m, err = fs.total_mass(pr, t)
        m_ref, err_ref = _full_line_mass(pr, t)
        # the error estimate is a difference of two masses, so it is held
        # to the same absolute bound as the masses themselves
        assert abs(m - m_ref) <= 1e-13 * abs(m_ref)
        assert abs(err - err_ref) <= 1e-13 * abs(m_ref)


def test_total_mass_non_radial_n1_keeps_full_line():
    # an off-centre bump: folding its line integral onto [0, R] would be wrong
    bump = smooth_bump_rho()
    pr = fs.FreespaceProblem(n=1, epsilon=0.4, phi0=lambda y: 0.0,
                             grad_phi0=lambda y: 0.0,
                             rho0=lambda x: float(bump(abs(x + 1.0))), rho0_support=3.0)
    m, err = fs.total_mass(pr, 0.0)
    m_ref, err_ref = _full_line_mass(pr, 0.0)
    assert m == m_ref and err == err_ref
    assert m == pytest.approx(2.0 * integral(bump, 0.0, 2.0), rel=1e-4)


def test_total_mass_non_radial_needs_radius_at_positive_t(monkeypatch):
    # a potential bounds no speed, so no radius is known to hold the mass
    # at t > 0; the error comes before any characteristic is traced
    bump = smooth_bump_rho()
    pr = fs.FreespaceProblem(n=1, epsilon=0.4, phi0=lambda y: 0.5 * y * y,
                             grad_phi0=lambda y: float(y),
                             rho0=lambda x: float(bump(abs(x))), rho0_support=2.0)

    def no_trace(*args, **kwargs):
        raise AssertionError("traced a characteristic")

    monkeypatch.setattr(fs, "_rk4_doubling", no_trace)
    with pytest.raises(ValueError, match="give total_mass a radius"):
        fs.total_mass(pr, 0.5)
    m, _ = fs.total_mass(pr, 0.0)
    assert m == pytest.approx(2.0 * integral(bump, 0.0, 2.0), rel=1e-4)


def _decay_rhs(seen, calls=None):
    """y' = -rate y on rows (y, rate); seen collects every (time, row) a
    trace of the given rate is asked for, and a repeat fails."""
    def rhs(u, y):
        for s, row in zip(u, y):
            key = (s, row.tobytes())
            assert key not in seen.setdefault(row[1], set()), \
                f"rhs evaluated twice at u={s!r}"
            seen[row[1]].add(key)
        if calls is not None:
            calls.append(len(u))
        out = np.zeros_like(y)
        out[:, 0] = -y[:, 1] * y[:, 0]
        return out
    return rhs


def test_rk4_doubling_reuses_first_stage():
    # y' = -rate y.  At rate 100 RK4 is unstable at the first step, span/16,
    # so that attempt is rejected and the retry must reuse f(s0, y0).
    for rate in (1.0, 100.0):
        seen = {}
        y = fs._rk4_doubling(_decay_rhs(seen), np.array([[1.0, rate]]), 1.0)
        assert abs(y[0, 0] - math.exp(-rate)) < 1e-8
        assert y[0, 1] == rate
    # an accepted first attempt would evaluate nothing below span/64
    assert min(1.0 - u for u, _ in seen[100.0] if u < 1.0) < 1.0 / 64.0


def test_rk4_doubling_lockstep_keeps_each_traces_bits():
    # traces of rates 1 and 100 over different spans, and one of span 0:
    # each row takes its own steps, with the bits of its one-row run
    y0 = np.array([[1.0, 1.0], [1.0, 100.0], [2.0, 3.0]])
    spans = np.array([1.0, 0.7, 0.0])
    seen, calls = {}, []
    batch = fs._rk4_doubling(_decay_rhs(seen, calls), y0, spans)
    alone_calls = []
    for row, span, got in zip(y0, spans, batch):
        one = []
        alone = fs._rk4_doubling(_decay_rhs({}, one), row[None], span)
        assert np.array_equal(got.view(np.int64), alone[0].view(np.int64))
        alone_calls.append(len(one))
    assert np.array_equal(batch[2], y0[2]) and 3.0 not in seen and alone_calls[2] == 0
    # the stiff trace keeps its first stage through its rejected first
    # attempt: f(0.7, y0) once, and a retry below span/64
    assert sum(u == 0.7 for u, _ in seen[100.0]) == 1
    assert min(0.7 - u for u, _ in seen[100.0] if u < 0.7) < 0.7 / 64.0
    # the full and the first half step share each round: 8 calls per
    # attempt (7 after a rejection), the rows of both traces in one call
    assert len(calls) < sum(alone_calls)
    assert max(calls) == 4 and sum(calls) == sum(len(v) for v in seen.values())


def test_freespace_entry_points_reject_bad_times():
    pr = compact_problem(n=3)
    x = np.array([0.3, 0.2, 0.1])
    for t in (math.nan, math.inf, -0.5, 0.0):
        for call in (lambda: fs.radial_velocity(pr, 0.5, t),
                     lambda: fs.velocity(pr, x, t),
                     lambda: fs.trace_characteristic(pr, x, t),
                     lambda: fs.density(pr, x, t)):
            with pytest.raises(fs.TimeDomainError):
                call()
    # the mass and the batch density also take t = 0
    for t in (math.nan, math.inf, -0.5):
        with pytest.raises(fs.TimeDomainError):
            fs.total_mass(pr, t)
        with pytest.raises(fs.TimeDomainError):
            fs._density_radial_batch(pr, np.linspace(0.1, 1.0, 5), t)
    m0, _ = fs.total_mass(pr, 0.0)
    assert np.array_equal(fs._density_radial_batch(pr, np.array([0.5, 1.0]), 0.0),
                          pr.rho0(np.array([0.5, 1.0])))
    assert m0 > 0.0


@pytest.mark.parametrize("n", [1, 3])
def test_total_mass_at_zero_keeps_the_per_node_rho0_bits(n):
    # t = 0 reads a profile rho0 on the whole node array at once; m0 and its
    # error estimate keep the bits of one scalar rho0 call per node
    pr = compact_problem(n, 0.4)
    radius = fs._support_image_radius(pr, 0.0)
    fine = fs._MASS_PANELS // 2 if n == 1 else fs._MASS_PANELS   # n = 1 folds
    n1, w1 = gauss_panels(np.linspace(0.0, radius, fine + 1), fs._MASS_POINTS)
    n2, w2 = gauss_panels(np.linspace(0.0, radius, fine // 2 + 1), fs._MASS_POINTS)
    nodes = np.concatenate([n1, n2])
    vals = np.array([fs._rho0_value(pr, r) for r in nodes])
    vals = vals * fs.surface_measure(n) * np.abs(nodes) ** (n - 1)
    m1 = float(vals[: n1.size] @ w1)
    assert fs.total_mass(pr, 0.0) == (m1, abs(m1 - float(vals[n1.size:] @ w2)))


def test_total_mass_radial_n3():
    pr = compact_problem(3, 0.5)
    m0, _ = fs.total_mass(pr, 0.0)
    m1, _ = fs.total_mass(pr, 1.0)
    assert abs(m1 - m0) / m0 < 1e-7


def test_large_time_decay_monotone():
    pr = compact_problem(1, 0.4)
    K = np.linspace(0.1, 2.0, 7)
    sups = []
    for t in (10.0, 100.0, 1000.0):
        sups.append(max(abs(fs.radial_velocity(pr, float(r), t)) for r in K))
    assert sups[0] > sups[1] > sups[2]


def test_smoothness_proxy_no_nans():
    pr = compact_problem(1, 0.05)
    h = 1e-4
    for x in np.linspace(-2.5, 2.5, 11):
        vals = [fs.velocity(pr, float(x) + k * h, 0.01) for k in (-1, 0, 1)]
        d2 = (vals[0] - 2 * vals[1] + vals[2]) / h ** 2
        assert np.isfinite(d2)


def test_angular_factor_bound_and_derivatives():
    # 0 <= G1 <= G0 keeps the velocity bound exact; derivatives match FD
    alpha = np.concatenate([np.array([1e-9, 1e-5]), np.linspace(0.01, 40, 200)])
    for n in (1, 2, 3):
        g0, g1, dg0, dg1 = fs._angular_factors(n, alpha, derivs=True)
        assert np.all(g1 >= -1e-15)
        assert np.all(g1 <= g0 + 1e-15)
        h = 1e-6
        g0p, g1p = fs._angular_factors(n, alpha + h)
        g0m, g1m = fs._angular_factors(n, np.maximum(alpha - h, 1e-12))
        den = alpha + h - np.maximum(alpha - h, 1e-12)
        assert np.abs((g0p - g0m) / den - dg0).max() < 5e-5
        assert np.abs((g1p - g1m) / den - dg1).max() < 5e-5


def test_angular_factors_exp_floor_keeps_bits():
    # n = 3 floors the exponent of e = exp(-2 alpha) at _EXP_FLOOR; every
    # factor equals the unfloored formula's, over the whole range and
    # densely where -2 alpha crosses the floor and exp starts to underflow
    alpha = np.concatenate([np.geomspace(1e-7, 1e7, 20001),
                            np.linspace(250.0, 400.0, 20001)])
    small = alpha < 1e-4
    a = np.where(small, 1.0, alpha)
    with np.errstate(under="ignore"):
        e = np.exp(-2.0 * a)
    want = (np.where(small, 2.0 - 2.0 * alpha + (4.0 / 3.0) * alpha ** 2, (1.0 - e) / a),
            np.where(small, (2.0 / 3.0) * alpha * (1.0 - alpha),
                     (a * (1.0 + e) - (1.0 - e)) / (a * a)),
            np.where(small, -2.0 + (8.0 / 3.0) * alpha, (2.0 * e * a - (1.0 - e)) / (a * a)),
            np.where(small, 2.0 / 3.0 - (4.0 / 3.0) * alpha,
                     (-a - 3.0 * a * e - 2.0 * a * a * e + 2.0 - 2.0 * e) / (a ** 3)))
    assert np.any(e == 0.0) and np.any((e > 0.0) & (e < math.exp(fs._EXP_FLOOR)))
    for got, ref in zip(fs._angular_factors(3, alpha, derivs=True), want):
        assert np.array_equal(got, ref)
    for got, ref in zip(fs._angular_factors(3, alpha), want[:2]):
        assert np.array_equal(got, ref)


def test_batch_matches_scalar_adaptive():
    rr = np.linspace(0.05, 3.0, 17)
    for n in (1, 2, 3):
        pr = compact_problem(n, 0.4)
        for t in (0.1, 0.8):
            qb, _ = fs._radial_velocity_batch(pr, rr, t)
            qs = np.array([fs.radial_velocity(pr, float(r), t) for r in rr])
            assert np.abs(qb - qs).max() < 1e-11


def test_batch_splits_wide_spread_into_sub_batches():
    # span/well = 188 and 940 exceed one grid's 0.7 * 224 panel widths: the
    # batch is split, not answered with q0(r) (off by 6e-3 at t = 0.05) nor
    # put on one coarser grid (off by 2.6e-7 at t = 0.002)
    pr = compact_problem(1, 0.01)
    rr = np.linspace(0.05, 6.0, 40)
    for t in (0.05, 0.002):
        assert (rr[-1] - rr[0]) / math.sqrt(2.0 * pr.epsilon * t) > 0.7 * 224
        qb, _ = fs._radial_velocity_batch(pr, rr, t)
        qs = np.array([fs.radial_velocity(pr, float(r), t) for r in rr])
        assert np.abs(qb - qs).max() < 1e-8
        assert np.abs(qb - pr.q0(rr)).max() > 1e-4


def _elementwise_grid(problem, r, t):
    """One sub-batch of the batch kernel as one elementwise formula per
    (radius, node) cell: the same grid, every row summed over all of it."""
    eps, n, q0 = problem.epsilon, problem.n, problem.q0
    w = fs._radial_window(problem, float(np.max(r)), t)
    lo, hi = max(0.0, float(np.min(r)) - w), float(np.max(r)) + w
    cap = max(0.7 * math.sqrt(2.0 * eps * t), (hi - lo) / 224)
    edges = np.unique(np.concatenate([
        np.linspace(lo, hi, int(math.ceil((hi - lo) / cap)) + 1),
        [k for k in q0.breakpoints if lo < k < hi]]))
    s, wts = gauss_panels(edges, 8)
    q0s = q0(s)
    sn = s ** (n - 1) * wts
    a_exp = ((r[:, None] - s[None, :]) ** 2 / (2.0 * t) + q0.cumulative(s)[None, :]) / eps
    wgt = np.exp(a_exp.min(axis=1, keepdims=True) - a_exp)
    sw = sn[None, :] * wgt
    g0, g1, dg0, dg1 = fs._angular_factors(n, r[:, None] * s[None, :] / (eps * t),
                                           derivs=True)
    da_dr = (r[:, None] - s[None, :]) / (t * eps)
    dal_dr = s[None, :] / (eps * t)
    den = (sw * g0).sum(axis=1)
    num = (sw * g1 * q0s[None, :]).sum(axis=1)
    den_r = (sw * (dg0 * dal_dr - g0 * da_dr)).sum(axis=1)
    num_r = (sw * q0s[None, :] * (dg1 * dal_dr - g1 * da_dr)).sum(axis=1)
    q, dq = np.zeros_like(r), np.zeros_like(r)
    ok = (r > 0) & (den > 0)
    q[ok] = num[ok] / den[ok]
    dq[ok] = (num_r[ok] - q[ok] * den_r[ok]) / den[ok]
    return q, dq


def _sort_and_scatter(problem, r, t, block):
    """The batch kernel's sub-batches of stable-sorted radii, spread at most
    0.7 * 224 well widths, each on its own grid by block; q and dq scattered
    back to the caller's order."""
    order = np.argsort(r, kind="stable")
    rs = r[order]
    reach = 0.7 * 224 * math.sqrt(2.0 * problem.epsilon * t)
    q, dq = np.empty_like(r), np.empty_like(r)
    start = 0
    while start < rs.size:
        stop = int(np.searchsorted(rs, rs[start] + reach, side="right"))
        q[order[start:stop]], dq[order[start:stop]] = block(problem, rs[start:stop], t)
        start = stop
    return q, dq


def _elementwise_batch(problem, r, t):
    return _sort_and_scatter(problem, r, t, _elementwise_grid)


def test_batch_kernel_matches_elementwise_formula():
    # the 31 radii fit one row block; the 200 sorted ones hold r = 0
    # twice, repeated radii, 150 radii on the hump (three row blocks of 64)
    # and 40 far radii, whose spread splits the batch at t = 0.01 and 0.1
    rng = np.random.default_rng(12)
    spread = np.sort(np.concatenate([[0.0, 0.0], np.repeat([0.5, 1.25], 4),
                                     rng.uniform(0.0, 3.0, 150), rng.uniform(3.0, 60.0, 40)]))
    assert np.ptp(spread) > 0.7 * 224 * math.sqrt(2.0 * 0.4 * 0.1)
    for rr in (np.linspace(0.0, 3.0, 31), spread):
        for n in (1, 2, 3):
            pr = compact_problem(n, 0.4)
            for t in (0.01, 0.1, 0.8, 4.0):
                q, dq = fs._radial_velocity_batch(pr, rr, t)
                q_ref, dq_ref = _elementwise_batch(pr, rr, t)
                assert np.all(np.abs(q - q_ref) <= 1e-11 * np.maximum(np.abs(q_ref), 1e-3))
                assert np.all(np.abs(dq - dq_ref) <= 1e-11 * np.maximum(np.abs(dq_ref), 1e-3))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batch_edge_cases_match_sort_and_scatter_bit_for_bit(n, monkeypatch):
    # a non-decreasing batch is split into blocks as it stands, with no
    # sort and no scatter, and keeps the bits of the sort-and-scatter path;
    # a descending batch means a trace has failed
    pr = compact_problem(n, 0.01)
    t = 0.05
    reach = 0.7 * 224 * math.sqrt(2.0 * pr.epsilon * t)
    batches = {
        "empty": np.array([]),
        "one radius": np.array([0.7]),
        "tied radii": np.array([0.0, 0.0, 0.5, 0.5, 0.5, 1.25, 1.25]),
        "wider than one reach": np.linspace(0.05, 6.0, 40),
        "sorted in one reach": np.linspace(0.05, 0.05 + reach, 30),
    }
    assert np.ptp(batches["wider than one reach"]) > reach
    refs = {name: _sort_and_scatter(pr, rr, t, fs._velocity_block)
            for name, rr in batches.items()}

    def no_sort(*args, **kwargs):
        raise AssertionError("sorted a non-decreasing batch")

    monkeypatch.setattr(fs.np, "argsort", no_sort)
    for name, rr in batches.items():
        q, dq = fs._radial_velocity_batch(pr, rr, t)
        for got, ref in zip((q, dq), refs[name]):
            assert got.shape == ref.shape, name
            assert np.array_equal(got.view(np.int64), ref.view(np.int64)), name
    # a descending batch, and one pair out of order by one ulp, raise at t
    # and at the t -> 0 limit
    for rr in (np.linspace(3.0, 0.05, 17), np.array([0.1, 0.4, np.nextafter(0.4, 0.0), 2.0])):
        for time in (t, 1e-13):
            with pytest.raises(fs.CharacteristicError, match="out of order"):
                fs._radial_velocity_batch(pr, rr, time)


def test_density_batch_returns_the_callers_order(monkeypatch):
    # two Gauss node sets one after the other: the trace sorts them
    # once, the batch kernel sees only ordered radii, and every density
    # keeps the bits of the sorted call
    pr = compact_problem(3, 0.4)
    nodes = np.concatenate([gauss_panels(np.linspace(0.0, 2.5, k + 1), 10)[0] for k in (16, 8)])
    order = np.argsort(nodes, kind="stable")
    assert (np.diff(nodes) < 0).any()
    kernel, ordered = fs._radial_velocity_batch, []

    def spy(problem, r, t):
        ordered.append(bool((np.diff(r) >= 0).all()))
        return kernel(problem, r, t)

    monkeypatch.setattr(fs, "_radial_velocity_batch", spy)
    got = fs._density_radial_batch(pr, nodes, 0.5)
    assert ordered and all(ordered)
    ref = fs._density_radial_batch(pr, nodes[order], 0.5)
    assert np.array_equal(got[order].view(np.int64), ref.view(np.int64))


def test_separable_quadratic_2d_tensor_path():
    # phi0 = (a1 y1^2 + a2 y2^2)/2 separates: u_k = a_k x_k/(1 + a_k t)
    a1, a2 = 1.0, 2.0
    pr = fs.FreespaceProblem(
        n=2, epsilon=0.5,
        phi0=lambda y: 0.5 * (a1 * y[0] ** 2 + a2 * y[1] ** 2),
        grad_phi0=lambda y: np.array([a1 * y[0], a2 * y[1]]),
        rho0=lambda x: 1.0, rho0_support=1.0)
    x = np.array([0.8, -0.5])
    u = fs.velocity(pr, x, 1.5)
    exact = np.array([a1 * x[0] / (1 + a1 * 1.5), a2 * x[1] / (1 + a2 * 1.5)])
    assert u == pytest.approx(exact, rel=1e-10)


def _general_quadratic(n, eps, rho0=lambda x: 1.0):
    # phi0 = |y|^2/2 through callables: u = x/(1+t) exactly, for every eps
    if n == 1:
        return fs.FreespaceProblem(n=1, epsilon=eps, phi0=lambda y: 0.5 * y * y,
                                   grad_phi0=lambda y: float(y), rho0=rho0)
    return fs.FreespaceProblem(n=n, epsilon=eps, phi0=lambda y: 0.5 * float(y @ y),
                               grad_phi0=lambda y: y, rho0=rho0)


_QUADRATIC_POINTS = {1: 0.7, 2: np.array([0.6, -0.3]), 3: np.array([0.6, -0.3, 0.45])}


@pytest.mark.parametrize("n, eps, t", [
    *[(n, eps, t) for n in (1, 2) for eps in (1.0, 0.1, 0.01) for t in (0.1, 1.0, 5.0)],
    (3, 1.0, 1.0), (3, 0.01, 1.0)])
def test_general_velocity_closed_form(n, eps, t):
    # u = x/(1+t) and du/dx = I/(1+t) from one quadrature
    x = _QUADRATIC_POINTS[n]
    u, du = fs._general_velocity(_general_quadratic(n, eps), np.atleast_1d(x), t)
    assert np.max(np.abs(u - x / (1 + t))) <= 1e-8 * np.max(np.abs(x / (1 + t)))
    assert np.max(np.abs(du - np.eye(n) / (1 + t))) <= 1e-8 / (1 + t)


@pytest.mark.parametrize("n", [2, 3])
def test_general_velocity_zero_at_the_origin(n):
    # u(0) = 0: the tolerance scales with the mean |grad phi0|, not with |u|
    u = fs.velocity(_general_quadratic(n, 0.1), np.zeros(n), 1.0)
    assert np.max(np.abs(u)) <= 1e-14


@pytest.mark.parametrize("eps", [0.3, 0.03])
def test_general_velocity_separable_cosine_matches_line_solves(eps):
    plane = fs.FreespaceProblem(n=2, epsilon=eps, phi0=lambda y: math.cos(y[0]) + math.cos(y[1]),
                                grad_phi0=lambda y: -np.sin(y), rho0=lambda x: 1.0)
    line = fs.FreespaceProblem(n=1, epsilon=eps, phi0=math.cos,
                               grad_phi0=lambda y: -math.sin(y), rho0=lambda x: 1.0)
    x = np.array([0.7, -1.9])
    u = fs.velocity(plane, x, 1.0)
    assert u == pytest.approx([fs.velocity(line, x[0], 1.0), fs.velocity(line, x[1], 1.0)],
                              abs=1e-10)


def test_general_velocity_kinked_potential_raises_budget_error():
    # the trapezoid rule converges only algebraically across the kinks at 0
    pr = fs.FreespaceProblem(n=3, epsilon=0.01, phi0=lambda y: abs(y[0]) + abs(y[1]) + abs(y[2]),
                             grad_phi0=np.sign, rho0=lambda x: 1.0)
    with pytest.raises(fs.QuadratureBudgetError, match="points"):
        fs.velocity(pr, np.array([0.3, -0.2, 0.1]), 1.0)


def test_general_velocity_concave_potential_raises_confinement_error():
    pr = fs.FreespaceProblem(n=2, epsilon=0.3, phi0=lambda y: -float(y @ y),
                             grad_phi0=lambda y: -2.0 * y, rho0=lambda x: 1.0)
    with pytest.raises(fs.ConfinementError):
        fs.velocity(pr, np.array([0.3, 0.1]), 2.0)


def test_general_velocity_nan_potential_raises_value_error():
    pr = fs.FreespaceProblem(n=1, epsilon=0.5, phi0=lambda y: math.sqrt(y) if y >= 0 else math.nan,
                             grad_phi0=lambda y: 0.5 / math.sqrt(y), rho0=lambda x: 1.0)
    with pytest.raises(ValueError, match="phi0 is NaN"):
        fs.velocity(pr, 1.0, 1.0)


def test_general_potential_n2_trace_velocity_and_density(monkeypatch):
    # phi0 = |y|^2/2: u = x/(1+t), foot x/(1+t), Jacobian (1+t)^-2 and
    # rho0(x/(1+t))/(1+t)^2; the trace makes one velocity call per right side
    bump = smooth_bump_rho()
    rho0 = lambda y: float(bump(np.linalg.norm(y)))
    pr = _general_quadratic(2, 0.5, rho0)
    x, t = np.array([0.6, -0.3]), 0.5
    calls = []
    general_velocity = fs._general_velocity
    monkeypatch.setattr(fs, "_general_velocity",
                        lambda *args: calls.append(1) or general_velocity(*args))
    foot, jac = fs.trace_characteristic(pr, x, t)
    assert len(calls) <= 52
    assert foot == pytest.approx(x / (1 + t), abs=1e-10)
    assert jac == pytest.approx((1 + t) ** -2, abs=1e-10)
    assert fs.velocity(pr, x, t) == pytest.approx(x / (1 + t), abs=1e-10)
    rho = rho0(x / (1 + t)) / (1 + t) ** 2
    assert fs.density(pr, x, t) == pytest.approx(rho, abs=1e-10)


def _jump_down_problem():
    # q0 = x on [0, 1), 0 on [1, 2]: sup|q0| = 1 is the left limit at the jump
    q0 = ScalarProfile.from_pieces([0.0, 1.0, 2.0], [[0.0, 1.0], [0.0]])
    return fs.FreespaceProblem(n=1, epsilon=0.003, q0=q0, rho0=smooth_bump_rho(),
                               rho0_support=2.0)


def test_velocity_past_a_jump_down_meets_the_bound():
    # the window t sup|q0| reaches the ramp's feet: both kernels agree, and
    # the CLI's velocity-bound check passes
    pr, t = _jump_down_problem(), 2.0
    rr = np.array([1.2, 1.5, 1.7])
    qs = np.array([fs.radial_velocity(pr, float(r), t) for r in rr])
    qb, _ = fs._radial_velocity_batch(pr, rr, t)
    assert np.abs(qb - qs).max() <= 1e-10
    assert qs[:2] == pytest.approx(rr[:2] / (1.0 + t), abs=1e-10)
    assert max(0.0, float(np.abs(qs).max()) - pr.q0.sup_abs()) <= 1e-8


@pytest.mark.parametrize("s", [0.014, 0.017, 0.02])
def test_general_velocity_on_a_flat_part_of_phi0(s):
    # phi0 = C0(|y|) is constant for |y| >= 2: at x = 2.598 the weight sits
    # where grad phi0 vanishes, and the level test keeps a positive scale
    radial = compact_problem(1, 0.4)
    u = fs.velocity(_as_potential(radial), 2.598, s)
    assert u == pytest.approx(fs.radial_velocity(radial, 2.598, s), abs=1e-12)


def _as_potential(problem):
    # a radial n = 1 problem posed through callables: phi0 = C0(|y|)
    q0, rho0 = problem.q0, problem.rho0
    return fs.FreespaceProblem(n=1, epsilon=problem.epsilon,
                               phi0=lambda y: float(q0.cumulative(abs(y))),
                               grad_phi0=lambda y: math.copysign(float(q0(abs(y))), y),
                               rho0=lambda y: float(rho0(abs(y))),
                               rho0_support=problem.rho0_support)


@pytest.mark.parametrize("x, t", [(x, t) for t in (0.5, 2.0) for x in (0.3, 0.9, 1.5)])
def test_general_n1_density_matches_the_radial_density(x, t):
    # the same data as a radial profile and as a potential: the general
    # trace's Jacobian comes from its quadrature, as the radial one's does
    radial = compact_problem(1, 0.4)
    assert fs.density(_as_potential(radial), x, t) == pytest.approx(
        fs.density(radial, x, t), rel=1e-9)


def test_general_n2_separable_cosine_trace_matches_line_traces():
    # phi0 = cos y1 + cos y2 separates: the foot is the pair of n = 1 feet
    # and the Jacobian their product, up to the traces' step-error tolerance
    plane = fs.FreespaceProblem(n=2, epsilon=0.3, phi0=lambda y: math.cos(y[0]) + math.cos(y[1]),
                                grad_phi0=lambda y: -np.sin(y), rho0=lambda x: 1.0)
    line = fs.FreespaceProblem(n=1, epsilon=0.3, phi0=math.cos,
                               grad_phi0=lambda y: -math.sin(y), rho0=lambda x: 1.0)
    x, t = np.array([0.7, -1.9]), 0.5
    foot, jac = fs.trace_characteristic(plane, x, t)
    (f1, j1), (f2, j2) = (fs.trace_characteristic(line, xk, t) for xk in x)
    assert foot == pytest.approx([f1, f2], abs=1e-9)
    assert jac == pytest.approx(j1 * j2, rel=1e-9)


@pytest.mark.parametrize("problem", [
    compact_problem(1), compact_problem(3), _general_quadratic(1, 0.5), _general_quadratic(2, 0.5)],
    ids=["radial-n1", "radial-n3", "general-n1", "general-n2"])
def test_point_of_the_wrong_dimension_raises(problem):
    n = problem.n
    for bad in (np.ones(n + 1), np.ones((1, n)), [] if n == 1 else np.ones(n - 1)):
        for call in (fs.velocity, fs.trace_characteristic, fs.density):
            with pytest.raises(ValueError, match=f"point of R\\^{n}"):
                call(problem, bad, 0.5)
    if n == 1:
        # a scalar and a 1-element array name the same point
        assert fs.velocity(problem, np.array([0.8]), 0.5) == fs.velocity(problem, 0.8, 0.5)
