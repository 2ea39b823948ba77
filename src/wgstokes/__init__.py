"""Lowest-order weak Galerkin discretization of Stokes flow.

Velocity is approximated by constants on element interiors and on facets,
pressure by constants on interiors. The discrete saddle-point system is
singular (constant pressures span the kernel); the right-hand side is made
consistent by redistributing the boundary-flux mismatch, after which
preconditioned MINRES and restarted GMRES converge mesh-independently.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .assembly import SaddleSystem, build_saddle_system, export_system
from .krylov import SolveReport, StokesSolution, solve_stokes, solve_system
from .mesh import Mesh, load_mesh, structured_simplex_mesh, write_mesh
from .problems import StokesProblem, builtin_problem, problem_from_expressions
from .verification import (
    ConvergenceTable,
    ErrorReport,
    SpectralReport,
    compute_errors,
    convergence_study,
    inconsistency_demo,
    residual_bound_check,
    spectral_report,
)
from .wg_core import PressureField, WGField

__all__ = [
    "ConvergenceTable",
    "ErrorReport",
    "Mesh",
    "PressureField",
    "SaddleSystem",
    "SolveReport",
    "SpectralReport",
    "StokesProblem",
    "StokesSolution",
    "WGField",
    "build_saddle_system",
    "builtin_problem",
    "compute_errors",
    "convergence_study",
    "export_system",
    "inconsistency_demo",
    "load_mesh",
    "problem_from_expressions",
    "residual_bound_check",
    "solve_stokes",
    "solve_system",
    "spectral_report",
    "structured_simplex_mesh",
    "write_mesh",
    "__version__",
]
