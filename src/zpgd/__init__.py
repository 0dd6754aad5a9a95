"""Explicit solvers for zero-pressure gas dynamics and its adhesion
approximation: free-space Gaussian-ratio velocity fields, bounded-domain
eigenfunction series with Robin walls, inviscid path-minimization
solutions with delta shocks, front tracking with Rankine-Hugoniot
verification, and independent finite-difference / sticky-particle /
brute-force oracles."""

from .profiles import ScalarProfile
from .specfun import DomainCase, EigenProblem, find_eigenvalues
from .freespace import FreespaceProblem
from .bounded_green import BoundedProblem
from .inviscid import InviscidProblem

__version__ = "0.1.0"
