"""Convergence study for the lowest-order weak Galerkin Stokes solver.

Solves the built-in 2D manufactured problem

    u = (-exp(x) * (y*cos(y) + sin(y)), exp(x) * y*sin(y))  (divergence free)
    p = 2 * exp(x) * sin(y)  (shifted to zero mean)

on a sequence of uniformly refined triangulations of the unit square and
prints four error columns with their observed orders:

  l2_velocity     ||u - u_h||          expected O(h)
  superconv       ||Q0 u - u_h0||      expected O(h^2): the interior values
                                       sit much closer to the exact cell
                                       averages than the field itself
  grad_error      broken H1 distance   expected O(h)
  pressure_error  ||p - p_h||          expected O(h)

Two viscosities are run on identical meshes. The velocity columns agree to
many significant digits because the discretization is pressure robust: the
velocity error does not see the pressure (and hence not 1/mu).

The last column tracks alpha_h, the boundary-flux defect of the projected
boundary datum. It decays at O(h^2) and is redistributed across the
pressure equations to keep the singular system consistent.

Usage::

    python demos/convergence_tables.py
    python demos/convergence_tables.py --levels 4 8 16 32 --qg gauss2
"""

from __future__ import annotations

import argparse

from wgstokes import builtin_problem, convergence_study


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--levels", type=int, nargs="+", default=[4, 8, 16, 32])
    ap.add_argument("--qg", default="barycenter",
                    choices=("barycenter", "gauss2", "gauss3"))
    args = ap.parse_args()

    problem = builtin_problem("stokes2d_exp")
    table = convergence_study(
        problem, args.levels, mu_values=(1.0, 1e-4), qg_method=args.qg
    )

    for name, label in (
        ("l2_velocity", "velocity L2 error (expected order 1)"),
        ("superconv", "interior distance to exact cell averages (expected order 2)"),
        ("grad_error", "broken gradient error (expected order 1)"),
        ("pressure_error", "pressure L2 error (expected order 1)"),
    ):
        print(f"\n{label}")
        print(table.to_markdown(name))

    print("\nboundary-flux defect alpha_h (expected ratio 4 per refinement)")
    alphas = [table.reports[(1.0, i)].alpha_h for i in range(len(args.levels))]
    for i, a in enumerate(alphas):
        ratio = f"  ratio {abs(alphas[i - 1] / a):.3f}" if i else ""
        print(f"  1/h = {args.levels[i]:3d}   alpha_h = {a:+.6e}{ratio}")


if __name__ == "__main__":
    main()
