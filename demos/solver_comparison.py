"""Iteration counts for the preconditioned saddle-point solvers.

The discrete Stokes system

    [ A  -B^T ] [ u ]   [ b1 ]
    [ -B   0  ] [ p ] = [ b2~ ]

is symmetric indefinite and singular (constant pressures span the kernel).
Two preconditioners built from the velocity stiffness A and the pressure
mass matrix Mp are compared:

  block_diag       diag(A, Mp), symmetric positive definite -> MINRES
  block_lower_tri  [[A, 0], [-B, -Mp]], applied on the right -> GMRES(30)

Both replace the Schur complement B A^-1 B^T by Mp, which is spectrally
equivalent to it with constants tied to the inf-sup constant of the
discretization. The payoff is mesh-independent-ish iteration counts: the
table below stays in the low dozens while the unpreconditioned runs burn
through the full iteration budget without converging.

Usage::

    python demos/solver_comparison.py
    python demos/solver_comparison.py --dim 3 --levels 4 8
"""

from __future__ import annotations

import argparse

from wgstokes import builtin_problem, solve_system, structured_simplex_mesh
from wgstokes.assembly import each_viscosity


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dim", type=int, default=2, choices=(2, 3))
    ap.add_argument("--levels", type=int, nargs="+", default=None)
    ap.add_argument("--skip-unpreconditioned", action="store_true")
    args = ap.parse_args()
    levels = args.levels or ([8, 16, 32] if args.dim == 2 else [2, 4, 8])
    name = "stokes2d_exp" if args.dim == 2 else "stokes3d_trig"

    print(f"{args.dim}D problem {name}, tolerance "
          f"{'1e-9' if args.dim == 2 else '1e-8'} on the true relative residual\n")
    runs = [("MINRES+diag", "minres", None), ("GMRES+tri", "gmres", None)]
    if not args.skip_unpreconditioned:
        runs.append(("MINRES alone", "minres", "none"))
    print(f"{'N':>8} {'mu':>8} " + " ".join(f"{label:>{len(label) + 1}}" for label, *_ in runs))

    def row(system):
        cells = [f"{system.mesh.num_elements:>8} {system.mu:>8g}"]
        for label, method, precond in runs:
            rep = solve_system(system, method, precond).report
            mark = "" if rep.converged else "*"
            cells.append(f"{f'{rep.iterations}{mark}':>{len(label) + 1}}")
        return " ".join(cells)

    problem = builtin_problem(name, 1.0)
    for n in levels:
        # the two viscosities of one mesh share its factor and solve concurrently
        mesh = structured_simplex_mesh(args.dim, n)
        print("\n".join(each_viscosity(mesh, problem, (1.0, 1e-4), "barycenter", True, row)))
    print("\n* hit the iteration cap (1000) before reaching the tolerance")


if __name__ == "__main__":
    main()
