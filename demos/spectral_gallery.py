"""Dense spectral verification of the preconditioner theory at small sizes.

Three quantities are computed exactly (dense eigensolves) on coarse meshes:

1. Generalized Schur eigenvalues  B A^-1 B^T q = gamma Mp q.
   Exactly one gamma is zero (the constant-pressure kernel); the rest lie
   in [beta^2, d] where d is the space dimension and beta is the discrete
   inf-sup constant. beta is never assumed: it is read off as the square
   root of the smallest positive gamma.

2. Eigenvalues of the block-diagonal preconditioned operator. The theory
   places them in [neg] u {0} u {1} u [pos]: two intervals bracketing 0,
   with endpoints given by the quadratic map lambda^2 - lambda = gamma, the
   zero of the constant-pressure kernel, and the point 1. Every velocity
   field with zero weak divergence pairs with zero pressure to give an
   eigenvector with lambda = 1 exactly, and 1 lies strictly below the
   positive interval. The map checks out to machine precision and every
   eigenvalue lies in the set. The gallery prints the multiplicity of
   lambda = 1 (n_u - N + 1) so the structure is visible.

3. Worst-case residual bound checks: the measured MINRES residuals are
   compared against the convergence bound built from beta at every odd
   iteration, and the GMRES residuals against the corresponding bound with
   the dense-computed extreme eigenvalues of Mp and A.

Usage::

    python demos/spectral_gallery.py
    python demos/spectral_gallery.py --levels 2 3 4 5
"""

from __future__ import annotations

import argparse

from wgstokes import (
    build_saddle_system,
    builtin_problem,
    residual_bound_check,
    solve_system,
    spectral_report,
    structured_simplex_mesh,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--levels", type=int, nargs="+", default=[2, 3, 4])
    args = ap.parse_args()
    problem = builtin_problem("stokes2d_exp")

    for n in args.levels:
        mesh = structured_simplex_mesh(2, n)
        report = spectral_report(mesh)
        n_p = mesh.num_elements
        n_u = len(report.lambdas) - n_p
        print(f"1/h = {n} ({n_u} velocity + {n_p} pressure unknowns)")
        print("  " + report.summary().replace("\n", "\n  "))
        print(f"  divergence-free modes with lambda = 1: {n_u - n_p + 1}\n")

    print("residual bounds on the finest of the levels above:")
    system = build_saddle_system(mesh, problem)
    for method in ("minres", "gmres"):
        sol = solve_system(system, method)
        check = residual_bound_check(sol.report, report)
        state = "holds" if check.passed else "violated"
        print(f"  {method}: bound {state} at {len(check.checked)} checkpoints, "
              f"decay factor {check.rho:.4f}, "
              f"smallest margin {check.worst_margin:.2e}")


if __name__ == "__main__":
    main()
