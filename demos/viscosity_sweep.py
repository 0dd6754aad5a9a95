"""Vanishing-viscosity sweep toward the inviscid formula.

At continuity points of a shocked inviscid solution the adhesion velocity
converges as the viscosity is halved; the table below shows the errors
and their empirical orders across the rarefaction fan, the plateau, and
the post-shock state.
"""

import math
import pathlib

import numpy as np

from zpgd import FreespaceProblem, InviscidProblem, ScalarProfile
from zpgd import freespace as fs
from zpgd import inviscid as iv
from zpgd.radial_core import write_csv

OUT = pathlib.Path(__file__).with_name("output")
OUT.mkdir(exist_ok=True)


def main():
    q0 = ScalarProfile.from_pieces([0.0, 3.0, 4.0], [[1.0], [0.0]])
    p0 = ScalarProfile.from_pieces([0.0, 6.0, 6.5], [[1.0], [0.0]])
    problem = InviscidProblem(1, q0, p0, ScalarProfile.constant(-1.0),
                              ScalarProfile.constant(6.0))
    mz = iv.PathMinimizer(problem, t_max=5.0)
    t_eval = 2.0
    pts = [0.7, 3.5, 4.4]
    labels = ["fan", "plateau", "post-shock"]
    eps_list = [0.1, 0.05, 0.025]

    errs = np.zeros((len(eps_list), len(pts)))
    for j, eps in enumerate(eps_list):
        fp = FreespaceProblem(1, eps, q0=q0, rho0=p0, rho0_support=6.0)
        for k, r in enumerate(pts):
            q_eps = fs.radial_velocity(fp, r, t_eval)
            q_inv = mz.solve_at(r, t_eval)[1]
            errs[j, k] = abs(q_eps - q_inv)
    write_csv(OUT / "viscosity_sweep.csv", ["epsilon", *(f"err_{lbl}" for lbl in labels)],
              ([eps, *row] for eps, row in zip(eps_list, errs.tolist())))

    print("point        eps=0.1     eps=0.05    eps=0.025   orders")
    for k, lbl in enumerate(labels):
        o1 = math.log2(errs[0, k] / errs[1, k])
        o2 = math.log2(errs[1, k] / errs[2, k])
        print(f"{lbl:10s}  {errs[0, k]:.3e}  {errs[1, k]:.3e}  "
              f"{errs[2, k]:.3e}  {o1:.2f}, {o2:.2f}")


if __name__ == "__main__":
    main()
