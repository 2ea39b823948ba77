"""Manufactured Stokes problems: -mu*Lap(u) + grad p = f, div u = 0, u = g on the boundary.

Two built-in solutions on the unit square/cube, plus custom problems given
as expression strings (velocity and pressure; the forcing and the velocity
gradient are derived symbolically, so (u, p) is the exact solution).

Problem callables evaluate batches; see `StokesProblem`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "StokesProblem",
    "BUILTIN_PROBLEMS",
    "builtin_problem",
    "problem_from_expressions",
    "boundary_compatibility",
    "evaluate_batch",
    "facet_means",
]

Vec = Callable[[np.ndarray], np.ndarray]
_COMPAT_DEGREE = 8  # exactness degree of the facet rule in boundary_compatibility


@dataclass(frozen=True)
class StokesProblem:
    """A Stokes problem with known exact solution.

    Batch contract: `velocity`, `forcing` and `boundary` take an (n, d)
    array of points and return (n, d) values; `pressure` returns (n,);
    `velocity_gradient` returns (n, d, d) with [i, r, c] = du_r/dx_c at
    point i. The library calls each one once on all the points it needs
    and checks the shape of the result (`evaluate_batch`), raising a
    ValueError that names the callable. Wrap a point-wise function once,
    visibly, with `np.vectorize(f, signature="(d)->(d)")` (`"(d)->()"` for
    the pressure, `"(d)->(d,d)"` for the gradient).

    The gradient is needed only by `compute_errors`; a problem without one
    can be assembled and solved.
    """

    name: str
    dim: int
    mu: float
    velocity: Vec
    pressure: Callable[[np.ndarray], float]
    forcing: Vec
    boundary: Vec  # trace of the velocity; kept separate for clarity at call sites
    velocity_gradient: Callable[[np.ndarray], np.ndarray] | None = None
    rebuild: Callable[[float], "StokesProblem"] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError("viscosity must be positive")

    def with_mu(self, mu: float) -> "StokesProblem":
        """Same exact solution rebuilt with a different viscosity.

        The velocity, pressure, velocity gradient and boundary datum stay
        the same functions of the point; only `mu`, and a forcing derived
        from it, change.
        `convergence_study` and `SaddleSystem.for_viscosity` rely on this:
        they reuse the boundary projection, b2, alpha_h and the sampled
        exact solution across viscosities.
        """
        if self.rebuild is None:
            raise ValueError(f"cannot rebuild problem {self.name!r} with a new viscosity")
        return self.rebuild(mu)


def _problem_2d(mu: float) -> StokesProblem:
    # numpy ufuncs over the last axis: a batch of points costs one call
    def u(p):
        p = np.asarray(p, dtype=float)
        x, y = p[..., 0], p[..., 1]
        return np.stack(
            [
                -np.exp(x) * (y * np.cos(y) + np.sin(y)),
                np.exp(x) * y * np.sin(y),
            ],
            axis=-1,
        )

    def pres(p):
        p = np.asarray(p, dtype=float)
        x, y = p[..., 0], p[..., 1]
        return 2.0 * np.exp(x) * np.sin(y)

    def grad(p):
        p = np.asarray(p, dtype=float)
        x, y = p[..., 0], p[..., 1]
        ex, sy, cy = np.exp(x), np.sin(y), np.cos(y)
        rows = [
            [-ex * (y * cy + sy), -ex * (2.0 * cy - y * sy)],
            [ex * y * sy, ex * (sy + y * cy)],
        ]
        return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)

    def f(p):
        p = np.asarray(p, dtype=float)
        x, y = p[..., 0], p[..., 1]
        c = 2.0 * (1.0 - mu) * np.exp(x)
        return np.stack([c * np.sin(y), c * np.cos(y)], axis=-1)

    return StokesProblem("stokes2d_exp", 2, mu, u, pres, f, u, grad, rebuild=_problem_2d)


def _problem_3d(mu: float) -> StokesProblem:
    pi = math.pi

    def u(p):
        p = np.asarray(p, dtype=float)
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        return np.stack(
            [
                2.0 * np.sin(pi * x),
                -pi * y * np.cos(pi * x),
                -pi * z * np.cos(pi * x),
            ],
            axis=-1,
        )

    def grad(p):
        p = np.asarray(p, dtype=float)
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        sx, cx = np.sin(pi * x), np.cos(pi * x)
        zero = np.zeros_like(x)
        rows = [
            [2.0 * pi * cx, zero, zero],
            [pi**2 * y * sx, -pi * cx, zero],
            [pi**2 * z * sx, zero, -pi * cx],
        ]
        return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)

    def pres(p):
        p = np.asarray(p, dtype=float)
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        return np.sin(pi * x) * np.cos(pi * y) * np.sin(pi * z)

    def f(p):
        p = np.asarray(p, dtype=float)
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        sx, cx = np.sin(pi * x), np.cos(pi * x)
        sy, cy = np.sin(pi * y), np.cos(pi * y)
        sz, cz = np.sin(pi * z), np.cos(pi * z)
        return np.stack(
            [
                2.0 * mu * pi**2 * sx + pi * cx * cy * sz,
                -mu * pi**3 * y * cx - pi * sx * sy * sz,
                -mu * pi**3 * z * cx + pi * sx * cy * cz,
            ],
            axis=-1,
        )

    return StokesProblem("stokes3d_trig", 3, mu, u, pres, f, u, grad, rebuild=_problem_3d)


_BUILTIN_FACTORIES = {
    "stokes2d_exp": _problem_2d,
    "stokes3d_trig": _problem_3d,
}

BUILTIN_PROBLEMS = tuple(_BUILTIN_FACTORIES)


def builtin_problem(name: str, mu: float = 1.0) -> StokesProblem:
    try:
        factory = _BUILTIN_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r}; built-ins: {', '.join(BUILTIN_PROBLEMS)}"
        ) from None
    return factory(mu)


_ALLOWED_FUNCS = {"exp", "sin", "cos"}


def problem_from_expressions(
    dim: int,
    velocity_exprs: list[str],
    pressure_expr: str,
    mu: float = 1.0,
    name: str = "custom",
) -> StokesProblem:
    """Build a problem from expression strings in x, y(, z), pi, exp, sin, cos.

    The forcing f = -mu*Lap(u) + grad p and the velocity gradient are derived
    symbolically, so the supplied pair (u, p) is the exact solution.
    """
    import sympy as sp

    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    if len(velocity_exprs) != dim:
        raise ValueError(f"need {dim} velocity components, got {len(velocity_exprs)}")
    coords = sp.symbols("x y z")[:dim]
    local = {"x": coords[0], "y": coords[1], "pi": sp.pi}
    if dim == 3:
        local["z"] = coords[2]
    local.update({fn: getattr(sp, fn) for fn in _ALLOWED_FUNCS})

    def parse(text):
        expr = sp.sympify(text, locals=local)
        bad = expr.free_symbols - set(coords)
        if bad:
            raise ValueError(f"unknown symbols {sorted(map(str, bad))} in {text!r}")
        for fn in expr.atoms(sp.Function):
            if fn.func.__name__ not in _ALLOWED_FUNCS:
                raise ValueError(f"function {fn.func.__name__!r} not allowed in {text!r}")
        return expr

    u_sym = [parse(t) for t in velocity_exprs]
    p_sym = parse(pressure_expr)
    f_sym = [
        -mu * sum(sp.diff(ui, c, 2) for c in coords) + sp.diff(p_sym, coords[r])
        for r, ui in enumerate(u_sym)
    ]

    u_fns = [sp.lambdify(coords, e, "numpy") for e in u_sym]
    f_fns = [sp.lambdify(coords, e, "numpy") for e in f_sym]
    grad_fns = [[sp.lambdify(coords, sp.diff(e, c), "numpy") for c in coords] for e in u_sym]
    p_fn = sp.lambdify(coords, p_sym, "numpy")

    def vec(fns):
        # constant expressions lambdify to scalar-returning functions, so
        # broadcast every component against the input points
        def call(pt):
            pt = np.asarray(pt, dtype=float)
            args = [pt[..., j] for j in range(dim)]
            comps = [np.broadcast_to(fn(*args), pt.shape[:-1]) for fn in fns]
            return np.stack(comps, axis=-1).astype(float)

        return call

    def pres(pt):
        pt = np.asarray(pt, dtype=float)
        args = [pt[..., j] for j in range(dim)]
        return np.asarray(
            np.broadcast_to(p_fn(*args), pt.shape[:-1]), dtype=float
        )[()]

    u = vec(u_fns)
    f = vec(f_fns)
    grad_rows = [vec(row) for row in grad_fns]

    def grad(pt):
        return np.stack([row(pt) for row in grad_rows], axis=-2)

    def again(new_mu):
        return problem_from_expressions(dim, velocity_exprs, pressure_expr, new_mu, name)

    return StokesProblem(name, dim, mu, u, pres, f, u, grad, rebuild=again)


def evaluate_batch(fn, points: np.ndarray, name: str, rank: int = 1) -> np.ndarray:
    """Call fn once on a (..., d) array of points and check the result.

    Returns (...) values for a scalar field (rank 0), (..., d) for a vector
    field (rank 1) and (..., d, d) for a matrix field (rank 2). A result of
    any other shape raises a ValueError that names the callable.
    """
    flat = points.reshape(-1, points.shape[-1])
    expected = flat.shape[:1] + flat.shape[1:] * rank
    vals = np.asarray(fn(flat), dtype=float)
    if vals.shape != expected:
        raise ValueError(
            f"{name} returned shape {vals.shape} for {len(flat)} points, expected "
            f"{expected}: problem callables evaluate (n, d) batches (wrap a "
            f"point-wise function with np.vectorize)"
        )
    return vals.reshape(points.shape[:-1] + expected[1:])


def facet_means(mesh, fn, facets: np.ndarray, rule: tuple, name: str) -> np.ndarray:
    """Mean of the vector field fn over each listed facet, (len(facets), d).

    rule is a barycentric (points, weights) pair on the facet simplex with
    weights summing to one; fn is evaluated once on all points.
    """
    bary, w = rule
    pts = bary @ mesh.vertices[mesh.facets[facets]]  # (nf, q, d)
    return np.einsum("q,fqd->fd", w, evaluate_batch(fn, pts, name))


def boundary_compatibility(problem: StokesProblem, mesh) -> float:
    """integral over the boundary of g.n (zero for a well-posed problem)."""
    from .quadrature import facet_rule

    bf = mesh.boundary_facets
    rule = facet_rule(mesh.dim, _COMPAT_DEGREE)
    means = facet_means(mesh, problem.boundary, bf, rule, "boundary")
    flux = np.einsum("fd,fd->f", means, mesh.facet_normals[bf])
    return float(mesh.facet_measures[bf] @ flux)
