"""Eigenvalue ladders of the four Robin domains.

Tables the first roots of each transcendental characteristic equation
(disc, ball, planar annulus, spherical shell), their equation residuals,
and the scan-halving drift that certifies no root was skipped.
"""

import pathlib

import numpy as np

from zpgd import DomainCase, EigenProblem, find_eigenvalues
from zpgd.bounded_green import write_eigenvalue_csv

OUT = pathlib.Path(__file__).with_name("output")
OUT.mkdir(exist_ok=True)

PROBLEMS = {
    "disc, zero-velocity wall":
        EigenProblem(DomainCase.BALL_2D, epsilon=1.0, r_outer=1.0, q_outer=0.0),
    "ball, outflow wall":
        EigenProblem(DomainCase.BALL_3D, epsilon=0.5, r_outer=1.0, q_outer=0.25),
    "planar annulus":
        EigenProblem(DomainCase.ANNULUS_2D, epsilon=0.8, r_inner=1.0,
                     r_outer=2.5, q_inner=0.5, q_outer=0.9),
    "spherical shell":
        EigenProblem(DomainCase.ANNULUS_3D, epsilon=0.8, r_inner=1.0,
                     r_outer=2.5, q_inner=0.5, q_outer=0.9),
}


def main():
    for name, prob in PROBLEMS.items():
        eigs = find_eigenvalues(prob, 6)
        half = find_eigenvalues(prob, 6, scan_step=eigs.scan_step / 2)
        drift = np.abs(eigs.values - half.values).max()
        print(f"\n{name} ({prob.case.value})")
        for i, (v, res) in enumerate(zip(eigs.values, eigs.residuals), 1):
            print(f"  {i}: {v:.12f}   residual {res:+.2e}")
        print(f"  scan-halving drift {drift:.2e}")
        write_eigenvalue_csv(eigs, OUT / f"eigen_{prob.case.value}.csv")
    print(f"\nCSV tables in {OUT}")


if __name__ == "__main__":
    main()
