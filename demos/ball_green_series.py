"""Ball with an outflow wall: series solution and its structural checks.

Assembles the eigenfunction expansion for a smooth outflow scenario on
the unit ball, then walks through the claims one can test numerically:
the wall condition is attained, the linearizing variable satisfies its
boundary condition to roundoff, the one-mode large-time limit matches the
full series, mass drains at exactly the wall flux rate, and an
independent finite-difference solver reproduces the velocity field.
"""

import pathlib

import numpy as np

from zpgd import BoundedProblem, DomainCase, ScalarProfile
from zpgd import bounded_green as bg
from zpgd import oracles as orc
from zpgd.radial_core import RadialField, write_radial_csv

OUT = pathlib.Path(__file__).with_name("output")
OUT.mkdir(exist_ok=True)


def main():
    R, eps, qb = 1.0, 0.5, 0.25
    q0 = ScalarProfile.from_pieces(
        [0.0, R, 2 * R], [[0.0, 0.0, 3 * qb, -2 * qb], [qb]])
    problem = BoundedProblem(DomainCase.BALL_3D, eps, q0,
                             ScalarProfile.constant(1.0), radius=R,
                             q_boundary=qb)
    state = bg.hopf_cole_boundary_state(problem)
    print(f"modes: {len(state.ev.eigs.values)}, series floor t = "
          f"{state.time_floor:g}")

    print(f"wall velocity at t=1: {state.velocity(R * (1 - 1e-9), 1.0):.10f} "
          f"(prescribed {qb})")
    print(f"wall-condition residual of the series: {state.robin_residual(0.5):.2e}")

    mu1 = state.ev.eigs.values[0]
    t_big = 50.0 / eps * R ** 2 / mu1 ** 2
    lt = bg.large_time_velocity(state.ev, 0.5)
    print(f"one-mode limit at r=0.5: {lt:.12f}; full series at t={t_big:.1f}: "
          f"{state.velocity(0.5, t_big):.12f}")

    rows = bg.mass_flux_report(state, [0.6, 1.0])
    for t, dm, fx, res in rows:
        print(f"t={t}: dm/dt = {dm:+.6f}, wall flux = {fx:+.6f}, "
              f"residual {res:+.1e}")

    grid_r = np.linspace(0.05, 0.95, 19)
    grid_t = np.linspace(0.1, 1.2, 7)
    q = np.array([state.velocity(grid_r, float(t)) for t in grid_t])
    p = bg.density_batch(state, grid_r, grid_t) * grid_r[None, :] ** 2
    write_radial_csv(RadialField(3, eps, grid_r, grid_t, q, p),
                     OUT / "ball3d_field.csv")

    ts = np.linspace(0.1, 2.0, 12)
    fld = orc.fd_viscous_solve(orc.ViscousIVP.from_bounded(problem), ts, n_r=1200)
    win = (fld.grid_r >= 0.1) & (fld.grid_r <= 0.9)
    gap = max(float(np.abs(state.velocity(fld.grid_r[win], float(t))
                           - fld.q[i][win]).max())
              for i, t in enumerate(ts))
    print(f"series vs finite differences, velocity sup gap: {gap:.2e}")
    print(f"CSV field in {OUT}")


if __name__ == "__main__":
    main()
