"""Explicit solvers for zero-pressure gas dynamics and its adhesion
approximation: free-space Gaussian-ratio velocity fields, bounded-domain
eigenfunction series with Robin walls, inviscid path-minimization
solutions with delta shocks, front tracking with Rankine-Hugoniot
verification, and independent finite-difference / sticky-particle /
brute-force oracles."""

from .profiles import ScalarProfile
from .specfun import (DomainCase, EigenProblem, EigenvalueList,
                      characteristic_value, find_eigenvalues)
from .radial_core import (HopfColeState, RadialField, heat_residual,
                          lift_to_vector, read_radial_csv,
                          velocity_from_hopf_cole, viscous_residual,
                          write_radial_csv)
from .freespace import (FreespaceProblem, density as freespace_density,
                        radial_velocity, surface_measure, total_mass,
                        trace_characteristic, velocity as freespace_velocity)
from .bounded_green import (BoundedHopfCole, BoundedProblem, GreenEvaluator,
                            build_green_evaluator, green,
                            hopf_cole_boundary_state, large_time_velocity,
                            mass_flux_report, radial_mass,
                            write_eigenvalue_csv)
from .bounded_green import density_batch as bounded_density_batch
from .inviscid import (InviscidProblem, PathMinimizer, PathMinimum,
                       SolutionPanel, boundary_cost, interior_cost,
                       solve_panel, weak_boundary_check, write_panel_csv)
from .shockfront import (ShockFront, detect_fronts, mean_curvature,
                         rh_residual_1d, rh_residual_multid, write_front_csv)
from .oracles import (Particle, StickyTrajectory, ViscousIVP, brute_force_Q,
                      fd_heat_solve, fd_viscous_solve, riemann_particles,
                      sticky_particle_run, write_particle_csv)

__version__ = "0.1.0"
