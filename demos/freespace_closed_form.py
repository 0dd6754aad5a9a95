"""Free-space adhesion velocity against its one closed form.

The quadratic potential (radial slope q0(r) = r) makes every Gaussian in
the velocity ratio elementary, and the flow collapses to u = x/(1+t) for
any viscosity.  This script sweeps a grid, prints the worst relative gap,
then follows one backward characteristic and checks the transported
density and the conserved total mass.
"""

import pathlib

import numpy as np

from zpgd import FreespaceProblem, ScalarProfile
from zpgd import freespace as fs
from zpgd.radial_core import write_csv

OUT = pathlib.Path(__file__).with_name("output")
OUT.mkdir(exist_ok=True)


def main():
    q0 = ScalarProfile.piecewise_linear([0.0, 120.0], [0.0, 120.0])
    # (1 - r^2/4)^4: three continuous derivatives at the support edge keep
    # the mass quadrature sharp
    base = [1.0, 0.0, -1.0, 0.0, 0.375, 0.0, -0.0625, 0.0, 0.00390625]
    rho0 = ScalarProfile.from_pieces([0.0, 2.0, 3.0], [base, [0.0]])
    problem = FreespaceProblem(n=1, epsilon=0.7, q0=q0, rho0=rho0,
                               rho0_support=2.0)

    worst = 0.0
    rows = []
    for x in np.linspace(-5, 5, 12):
        for t in (0.1, 1.0, 10.0):
            u = fs.velocity(problem, float(x), float(t))
            exact = x / (1 + t)
            worst = max(worst, abs(u - exact) / max(abs(exact), 1e-12))
            rows.append((x, t, u, exact))
    write_csv(OUT / "closed_form.csv", ["x", "t", "u", "exact"], rows)
    print(f"velocity vs x/(1+t): worst relative gap {worst:.3e}")

    foot, jac = fs.trace_characteristic(problem, 2.0, 1.5)
    print(f"backward foot of x=2, t=1.5: {foot:.12f} (exact 0.8), "
          f"jacobian {jac:.12f} (exact 0.4)")
    rho = fs.density(problem, 1.2, 1.0)
    print(f"density at (1.2, 1.0): {rho:.12f} (exact rho0(0.6)/2 = "
          f"{rho0(0.6) / 2:.12f})")

    # the support image under u = x/(1+t) stays inside |x| <= 2 (1+t); the
    # default window would size itself from the huge synthetic sup|q0|
    m0, _ = fs.total_mass(problem, 0.0, radius=6.5)
    m2, err = fs.total_mass(problem, 2.0, radius=6.5)
    print(f"mass: {m0:.12f} -> {m2:.12f} at t=2 "
          f"(drift {(m2 - m0) / m0:.2e}, Lagrangian gap {err:.1e})")


if __name__ == "__main__":
    main()
