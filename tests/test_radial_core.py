import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from residuals import (HopfColeState, PositivityError, fd_derivative, fd_weights,
                       heat_residual, velocity_from_hopf_cole, viscous_residual)
from zpgd.radial_core import RadialField, gauss_panels, write_csv, write_radial_csv


def _linear_flow_field(n=3, eps=0.0, nr=41, nt=11):
    r = np.linspace(0.2, 2.0, nr)
    t = np.linspace(0.1, 1.0, nt)
    q = r[None, :] / (1.0 + t[:, None])
    # continuity: p = r^(n-1) rho with rho = rho0(r/(1+t)) / (1+t)^n
    rho = 1.0 / (1.0 + t[:, None]) ** n
    p = rho * r[None, :] ** (n - 1)
    return RadialField(n, eps, r, t, q, p)


def test_fd_weights_reproduce_derivatives():
    nodes = np.array([0.0, 0.7, 1.1, 1.9, 2.4])
    f = lambda x: np.sin(1.3 * x)
    w1 = fd_weights(nodes, 1.1, 1)
    assert w1 @ f(nodes) == pytest.approx(1.3 * math.cos(1.3 * 1.1), abs=1e-3)
    w2 = fd_weights(nodes, 1.1, 2)
    assert w2 @ f(nodes) == pytest.approx(-1.3 ** 2 * math.sin(1.3 * 1.1), abs=1e-2)


def test_fd_derivative_fourth_order():
    x = np.linspace(0, 1, 41)
    f = np.exp(np.sin(2 * x))
    d = fd_derivative(f, x, 1, axis=0, width=5)
    exact = 2 * np.cos(2 * x) * f
    x2 = np.linspace(0, 1, 81)
    d2 = fd_derivative(np.exp(np.sin(2 * x2)), x2, 1, axis=0, width=5)
    e1 = np.abs(d - exact).max()
    e2 = np.abs(d2 - 2 * np.cos(2 * x2) * np.exp(np.sin(2 * x2))).max()
    assert e1 / e2 > 10.0   # ~16 for 4th order


def test_gauss_panels_integrate_polynomials_per_panel():
    # an npts-point rule is exact to degree 2 npts - 1 on every panel
    edges = np.array([-1.0, 0.25, 0.5, 2.0])
    nodes, weights = gauss_panels(edges, 4)
    assert nodes.shape == weights.shape == (12,)
    assert np.all(np.diff(nodes) > 0)
    assert weights @ nodes ** 7 == pytest.approx((2.0 ** 8 - 1.0) / 8.0, rel=1e-14)


def test_velocity_from_hopf_cole_examples():
    r = np.linspace(0.2, 2.0, 61)
    t = np.linspace(0.1, 0.5, 5)
    const = HopfColeState(r, t, np.ones((5, 61)))
    assert np.abs(velocity_from_hopf_cole(const, 0.7)).max() < 1e-12
    # a = exp(-c r / eps) -> q = c (up to 4th-order stencil error)
    eps, c = 0.6, 1.3
    rf = np.linspace(0.2, 2.0, 361)
    a = np.exp(-c * rf[None, :] / eps) * np.ones((5, 1))
    st = HopfColeState(rf, t, a)
    # interior 4th-order stencils are ~1e-10 here; the one-sided edge rows
    # carry a larger constant
    assert np.abs(velocity_from_hopf_cole(st, eps) - c).max() < 1e-6
    interior = velocity_from_hopf_cole(st, eps)[:, 3:-3]
    assert np.abs(interior - c).max() < 2e-9
    # a = exp(-r^2/(2 eps (1+t))) -> q = r/(1+t)
    a2 = np.exp(-rf[None, :] ** 2 / (2 * eps * (1 + t[:, None])))
    q2 = velocity_from_hopf_cole(HopfColeState(rf, t, a2), eps)
    assert np.abs(q2 - rf[None, :] / (1 + t[:, None])).max() < 1e-8


def test_positivity_enforced():
    r = np.linspace(0.2, 1.0, 7)
    t = np.linspace(0.0, 1.0, 3)
    a = np.ones((3, 7))
    a[1, 3] = -0.1
    with pytest.raises(PositivityError):
        HopfColeState(r, t, a)


def test_viscous_residual_trivial_and_linear_flow():
    r = np.linspace(0.2, 2.0, 41)
    t = np.linspace(0.1, 1.0, 9)
    const = RadialField(3, 0.3, r, t, np.zeros((9, 41)), np.ones((9, 41)))
    res_q, res_p = viscous_residual(const)
    assert np.abs(res_q).max() < 1e-14
    assert np.abs(res_p).max() < 1e-14
    # q = r/(1+t) solves both the inviscid and viscous radial equations
    # exactly, so the residual is pure time-stencil error: O(dt^2)
    coarse = np.abs(viscous_residual(_linear_flow_field(eps=0.8, nt=21))[0]).max()
    fine = np.abs(viscous_residual(_linear_flow_field(eps=0.8, nt=41))[0]).max()
    assert coarse < 5e-3
    assert coarse / fine > 3.0
    fine0 = np.abs(viscous_residual(_linear_flow_field(eps=0.0, nt=41))[0]).max()
    assert fine0 < 1.5e-3


def test_heat_residual_heat_kernel_n1():
    eps = 0.7
    r = np.linspace(0.3, 2.0, 81)
    t = np.linspace(0.5, 1.0, 41)
    a = t[:, None] ** -0.5 * np.exp(-r[None, :] ** 2 / (2 * eps * t[:, None]))
    st = HopfColeState(r, t, a)
    res = heat_residual(st, eps, 1)
    scale = np.abs(a).max()
    coarse = np.abs(res).max() / scale
    # refine in t (the 2nd-order direction) and compare orders
    t2 = np.linspace(0.5, 1.0, 81)
    a2 = t2[:, None] ** -0.5 * np.exp(-r[None, :] ** 2 / (2 * eps * t2[:, None]))
    res2 = heat_residual(HopfColeState(r, t2, a2), eps, 1)
    fine = np.abs(res2).max() / np.abs(a2).max()
    assert coarse < 5e-3
    assert coarse / fine > 3.0    # ~4 for second order


def test_heat_residual_const():
    r = np.linspace(0.2, 1.0, 9)
    t = np.linspace(0.0, 1.0, 5)
    st = HopfColeState(r, t, np.ones((5, 9)))
    assert np.abs(heat_residual(st, 0.5, 3)).max() < 1e-12


def _read_back(path_or_buf, field):
    """Columns r, t, q, p of a written field, each (len(t), len(r))."""
    cols = np.loadtxt(path_or_buf, delimiter=",", skiprows=2, ndmin=2)
    shape = (field.grid_t.size, field.grid_r.size)
    return [cols[:, k].reshape(shape) for k in range(4)]


def test_csv_round_trip():
    field = _linear_flow_field(nr=7, nt=4)
    buf = io.StringIO()
    write_radial_csv(field, buf)
    assert buf.getvalue().startswith("# n=3 epsilon=0\nr,t,q,p,rho\n")
    buf.seek(0)
    r, t, q, p = _read_back(buf, field)
    assert np.array_equal(r[0], field.grid_r)
    assert np.array_equal(t[:, 0], field.grid_t)
    assert np.array_equal(q, field.q)
    assert np.array_equal(p, field.p)


def test_csv_round_trip_through_path(tmp_path):
    field = _linear_flow_field(nr=5, nt=3)
    path = tmp_path / "field.csv"
    write_radial_csv(field, path)
    _, _, q, p = _read_back(path, field)
    assert np.array_equal(q, field.q)
    assert np.array_equal(p, field.p)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(q=hnp.arrays(float, (3, 4), elements=_finite),
       p=hnp.arrays(float, (3, 4), elements=_finite))
def test_csv_round_trip_is_exact(q, p):
    field = RadialField(2, 0.25, np.linspace(1.0, 2.5, 4), np.linspace(0.0, 1.0, 3), q, p)
    buf = io.StringIO()
    write_radial_csv(field, buf)
    buf.seek(0)
    _, _, back_q, back_p = _read_back(buf, field)
    assert np.array_equal(back_q, field.q)
    assert np.array_equal(back_p, field.p)


def test_write_csv_text():
    rows = [("I", 3, True, 0.1, math.nan), ("B", -1, False, 1e-300, 2.5)]
    buf = io.StringIO()
    write_csv(buf, ["branch", "index", "ok", "value", "gap"], rows)
    assert buf.getvalue() == ("branch,index,ok,value,gap\n"
                              "I,3,1,0.10000000000000001,nan\n"
                              "B,-1,0,1e-300,2.5\n")
    buf = io.StringIO()
    write_csv(buf, ["a", "b"], [(0.5, "x")], comment="n=3 epsilon=0")
    assert buf.getvalue() == "# n=3 epsilon=0\na,b\n0.5,x\n"


def test_field_validation():
    r = np.linspace(0.1, 1.0, 5)
    t = np.linspace(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        RadialField(3, 0.1, r, t, np.zeros((3, 4)), np.zeros((3, 5)))
    q = np.zeros((3, 5))
    p = np.zeros((3, 5))
    p[1, 2] = np.inf
    with pytest.raises(ValueError):
        RadialField(3, 0.1, r, t, q, p)
    flags = np.zeros((3, 5), dtype=bool)
    flags[1, 2] = True
    RadialField(3, 0.1, r, t, q, p, delta_flags=flags)  # flagged column ok
