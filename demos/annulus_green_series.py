"""Spherical shell with outflow at both walls.

Same machinery as the ball demo on an annulus: the series velocity
attains both wall values, the heat-kernel symmetry holds after weight
adjustment, and the two-wall mass-flux identity closes.
"""

import pathlib

import numpy as np

from zpgd import BoundedProblem, DomainCase, ScalarProfile
from zpgd import bounded_green as bg

OUT = pathlib.Path(__file__).with_name("output")
OUT.mkdir(exist_ok=True)


def main():
    R1, R2, eps = 1.0, 2.0, 0.6
    q_in, q_out = -0.2, 0.2
    d = R2 - R1
    a = q_out - q_in
    q0 = ScalarProfile.from_pieces(
        [R1, R2, R2 + d], [[q_in, 0.0, 3 * a / d ** 2, -2 * a / d ** 3], [q_out]])
    problem = BoundedProblem(DomainCase.ANNULUS_3D, eps, q0,
                             ScalarProfile.constant(1.0), r_inner=R1,
                             r_outer=R2, q_inner=q_in, q_outer=q_out)
    state = bg.hopf_cole_boundary_state(problem)

    off = 1e-8
    print(f"inner wall velocity: {state.velocity(R1 + off, 1.0):+.8f} "
          f"(prescribed {q_in})")
    print(f"outer wall velocity: {state.velocity(R2 - off, 1.0):+.8f} "
          f"(prescribed {q_out})")

    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(60):
        r, xi = rng.uniform(R1 + 0.05, R2 - 0.05, 2)
        t = float(rng.uniform(0.05, 1.5))
        g1 = bg.green(state.ev, r, xi, t) / xi ** 2
        g2 = bg.green(state.ev, xi, r, t) / r ** 2
        worst = max(worst, abs(g1 - g2) / max(abs(g1), 1e-300))
    print(f"weight-adjusted kernel symmetry, worst relative gap: {worst:.2e}")

    rows = bg.mass_flux_report(state, [0.8])
    t, dm, fx, res = rows[0]
    print(f"two-wall flux identity at t={t}: dm/dt = {dm:+.6f}, "
          f"net flux = {fx:+.6f}, residual {res:+.1e}")


if __name__ == "__main__":
    main()
