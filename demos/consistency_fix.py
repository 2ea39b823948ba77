"""Why the right-hand side needs a consistency correction, shown live.

The pressure block of the Stokes system enforces one divergence equation
per element, but the rows sum to the net boundary flux of the projected
boundary datum. Projecting a curved datum facet by facet leaves a small
defect

    alpha_h = - sum over boundary facets of |e| g(barycenter).n = O(h^2),

so the raw right-hand side is (slightly) outside the range of the singular
operator. Krylov methods notice: MINRES first reduces the residual, then
hits a floor at |alpha_h| / (sqrt(N) ||b||) -- the least-squares distance
to the range -- and finally the iterates blow up along the kernel while
the stagnation detector trips.

Subtracting alpha_h / N from every pressure equation restores solvability
exactly, and the same solver converges to 1e-9 without drama. With a
boundary datum that is zero (or piecewise linear), alpha_h = 0 and the
correction changes nothing: both residual histories are bit-identical.

Usage::

    python demos/consistency_fix.py
    python demos/consistency_fix.py --level 16
"""

from __future__ import annotations

import argparse

import numpy as np

from wgstokes import builtin_problem, problem_from_expressions, structured_simplex_mesh
from wgstokes.verification import inconsistency_demo


def sparkline(residuals, width=64):
    marks = " .:-=+*#%@"
    vals = np.log10(np.clip(residuals, 1e-16, None))
    idx = np.linspace(0, len(vals) - 1, num=min(width, len(vals))).astype(int)
    lo, hi = vals.min(), vals.max()
    scale = (len(marks) - 1) / (hi - lo if hi > lo else 1.0)
    return "".join(marks[int((vals[i] - lo) * scale)] for i in idx)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--level", type=int, default=8)
    args = ap.parse_args()

    mesh = structured_simplex_mesh(2, args.level)
    demo = inconsistency_demo(mesh, builtin_problem("stokes2d_exp"))
    print(demo.summary())
    print("\nlog-residual shape (left = iteration 0):")
    print(f"  raw   |{sparkline(demo.report_raw.residuals)}|")
    print(f"  fixed |{sparkline(demo.report_fixed.residuals)}|")
    best = min(demo.report_raw.residuals)
    print(f"\nleast-squares floor |alpha_h|/(sqrt(N)||b||) = {demo.residual_floor:.3e}; "
          f"the raw solve bottoms out at {best:.3e}")

    print("\nzero boundary datum (driven lid turned off):")
    cavity = problem_from_expressions(
        2,
        ["2*x**2*(1-x)**2*y*(1-y)*(1-2*y)", "-2*x*(1-x)*(1-2*x)*y**2*(1-y)**2"],
        "x*y - 1/4",
        name="cavity",
    )
    quiet = inconsistency_demo(structured_simplex_mesh(2, args.level), cavity)
    same = quiet.report_raw.residuals == quiet.report_fixed.residuals
    print(f"  alpha_h = {quiet.alpha_h:.1e}; raw and corrected histories "
          f"{'identical' if same else 'DIFFER'} "
          f"({quiet.report_fixed.iterations} iterations)")


if __name__ == "__main__":
    main()
