"""Inviscid solution by path minimization, and its delta shock.

Two-state data launch a delta shock whose radius and amplitude follow the
front relations; near the origin an inflow schedule activates the
boundary branch of the minimization.  The script prints the branch
structure, verifies the minimizer against an exhaustive grid search,
tracks the front, and closes the front-relation residuals.
"""

import math
import pathlib

import numpy as np

from zpgd import InviscidProblem, ScalarProfile
from zpgd import inviscid as iv
from zpgd import oracles as orc
from zpgd import shockfront as sfm

OUT = pathlib.Path(__file__).with_name("output")
OUT.mkdir(exist_ok=True)


def main():
    q0 = ScalarProfile.from_pieces([0.0, 1.0, 2.0], [[1.0], [0.0]])
    p0 = ScalarProfile.from_pieces([0.0, 3.0, 3.5], [[1.0], [0.0]])
    problem = InviscidProblem(3, q0, p0, ScalarProfile.constant(-1.0),
                              ScalarProfile.constant(4 * math.pi * 3.0))

    mz = iv.PathMinimizer(problem, t_max=3.0)
    vb, arg = orc.brute_force_Q(problem, 1.1, 0.8, grid_density=200,
                                refine_rounds=3)
    vm = mz.minimize(1.1, 0.8).value
    print(f"Q(1.1, 0.8): minimizer {vm:.12f}, brute-force grid {vb:.12f} "
          f"(gap {abs(vm - vb):.1e})")

    panel = iv.solve_panel(problem, np.linspace(0.08, 2.6, 64),
                           np.linspace(0.25, 1.5, 21))
    iv.write_panel_csv(panel, OUT / "riemann_panel.csv")

    fronts = sfm.detect_fronts(panel)
    f = fronts[0]
    print(f"front: starts at r={f.s[0]:.6f} (t={f.times[0]}), "
          f"slope {(f.s[-1] - f.s[0]) / (f.times[-1] - f.times[0]):.6f} "
          "(exact 0.5)")
    res_speed, res_mass = sfm.rh_residual_1d(f)
    res_multi = sfm.rh_residual_multid(f)
    print(f"front-relation residuals: speed {np.abs(res_speed).max():.2e}, "
          f"amplitude {np.abs(res_mass).max():.2e}, "
          f"multi-D excess {np.max(np.abs(res_multi) - np.abs(res_mass)):.1e}")
    sfm.write_front_csv(f, OUT / "riemann_front.csv")

    rows = iv.weak_boundary_check(problem, panel.grid_t)
    bad = [r for r in rows if not r.ok]
    print(f"weak origin conditions: {len(rows) - len(bad)}/{len(rows)} pass")

    # inflow schedule switches the origin region onto the boundary branch
    omega = problem.omega
    inflow = InviscidProblem(
        3, ScalarProfile.zero(),
        ScalarProfile.from_pieces([0.0, 2.0, 2.5], [[1.0, -0.5], [0.0]]),
        ScalarProfile.constant(0.8),
        ScalarProfile.piecewise_linear([0.0, 4.0], [omega, 1.5 * omega]))
    panel2 = iv.solve_panel(inflow, np.linspace(0.05, 2.0, 40),
                            np.linspace(0.2, 1.4, 7))
    n_boundary = int((panel2.branch == "B").sum())
    print(f"inflow scenario: {n_boundary} of {panel2.branch.size} panel "
          "points ride the boundary branch")


if __name__ == "__main__":
    main()
