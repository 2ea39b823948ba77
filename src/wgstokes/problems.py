"""Manufactured Stokes problems: -mu*Lap(u) + grad p = f, div u = 0, u = g on the boundary.

Two built-in solutions on the unit square/cube, plus custom problems given
as expression strings (velocity and pressure; the forcing terms and the
velocity gradient are derived symbolically, so (u, p) is the exact solution).
The forcing is kept as its two terms -Lap(u) and grad p, which do not
depend on the viscosity.

Problem callables evaluate batches; see `StokesProblem`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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

    Batch contract: `velocity` takes an (n, d) array of points and
    returns (n, d) values; `pressure` returns (n,);
    `velocity_gradient` returns (n, d, d) with [i, r, c] = du_r/dx_c at
    point i. `forcing_terms` returns (n, 2, d): [i, 0] is -Lap(u) and
    [i, 1] is grad p, so the forcing is mu*[i, 0] + [i, 1] and no callable
    depends on the viscosity. The library calls each one once
    on all the points it needs and checks the shape of the result
    (`evaluate_batch`), raising a ValueError that names the callable. Wrap
    a point-wise function once, visibly, with
    `np.vectorize(f, signature="(d)->(d)")` (`"(d)->()"` for the pressure,
    `"(d)->(d,d)"` for the gradient, `"(d)->(t,d)"` for the forcing terms).

    The boundary datum is the trace of `velocity`. The gradient is needed
    only by `compute_errors`; a problem without one can be assembled and
    solved.
    """

    name: str
    dim: int
    mu: float
    velocity: Vec
    pressure: Callable[[np.ndarray], float]
    forcing_terms: Callable[[np.ndarray], np.ndarray]  # (-Lap(u), grad p)
    velocity_gradient: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not 0 < self.mu < math.inf:
            raise ValueError("viscosity must be positive and finite")

    def with_mu(self, mu: float) -> "StokesProblem":
        """The same problem, every callable kept, at viscosity `mu`."""
        return replace(self, mu=mu)


def _entries_last(entries, rank: int) -> np.ndarray:
    """A view with the first `rank` axes last of one contiguous array of
    `entries`, so each entry is written and read contiguously."""
    block = np.asarray(entries, dtype=float)
    return np.moveaxis(block, range(rank), range(block.ndim - rank, block.ndim))


def _problem_2d() -> StokesProblem:
    # numpy ufuncs over the last axis: a batch of points costs one call
    def u(p):
        p = np.asarray(p, dtype=float)
        x, y = p[..., 0], p[..., 1]
        ex, sy, cy = np.exp(x), np.sin(y), np.cos(y)
        return np.stack([-ex * (y * cy + sy), ex * y * sy], axis=-1)

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

    def terms(p):
        p = np.asarray(p, dtype=float)
        x, y = p[..., 0], p[..., 1]
        c = 2.0 * np.exp(x)
        grad_p = [c * np.sin(y), c * np.cos(y)]
        # -Lap(u) = -2 e^x (sin y, cos y) = -grad p: the load vanishes at mu=1
        return _entries_last([[-g for g in grad_p], grad_p], 2)

    return StokesProblem("stokes2d_exp", 2, 1.0, u, pres, terms, grad)


def _problem_3d() -> StokesProblem:
    pi = math.pi

    def u(p):
        p = np.asarray(p, dtype=float)
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        cx = np.cos(pi * x)
        return np.stack([2.0 * np.sin(pi * x), -pi * y * cx, -pi * z * cx], axis=-1)

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

    def terms(p):
        p = np.asarray(p, dtype=float)
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        sx, cx = np.sin(pi * x), np.cos(pi * x)
        sy, cy = np.sin(pi * y), np.cos(pi * y)
        sz, cz = np.sin(pi * z), np.cos(pi * z)
        rows = [
            [2.0 * pi**2 * sx, -pi**3 * y * cx, -pi**3 * z * cx],  # -Lap(u)
            [pi * cx * cy * sz, -pi * sx * sy * sz, pi * sx * cy * cz],  # grad p
        ]
        return _entries_last(rows, 2)

    return StokesProblem("stokes3d_trig", 3, 1.0, u, pres, terms, grad)


_BUILTIN_FACTORIES = {"stokes2d_exp": _problem_2d, "stokes3d_trig": _problem_3d}

BUILTIN_PROBLEMS = tuple(_BUILTIN_FACTORIES)


def builtin_problem(name: str, mu: float = 1.0) -> StokesProblem:
    if name not in _BUILTIN_FACTORIES:
        raise ValueError(f"unknown problem {name!r}; built-ins: {', '.join(BUILTIN_PROBLEMS)}")
    return _BUILTIN_FACTORIES[name]().with_mu(mu)


_ALLOWED_FUNCS = {"exp", "sin", "cos"}


def problem_from_expressions(
    velocity_exprs: list[str],
    pressure_expr: str,
    mu: float = 1.0,
    name: str = "custom",
) -> StokesProblem:
    """Build a problem from expression strings in x, y(, z), pi, exp, sin, cos;
    the number of velocity components, 2 or 3, is the dimension.

    The forcing terms -Lap(u) and grad p and the velocity gradient are
    derived symbolically, so the supplied pair (u, p) is the exact solution
    at every viscosity. Both forcing terms are one lambdified function, so
    the subexpressions they share are evaluated once per batch.
    """
    import sympy as sp

    dim = len(velocity_exprs)
    if dim not in (2, 3):
        raise ValueError(f"need 2 or 3 velocity components, got {dim}")
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
    viscous = [-sum(sp.diff(ui, c, 2) for c in coords) for ui in u_sym]
    grad_p = [sp.diff(p_sym, c) for c in coords]

    def batch(exprs, shape, cse):
        # one function of all the entries; a constant entry lambdifies to a
        # scalar, so each is broadcast against the points
        fn = sp.lambdify(coords, exprs, "numpy", cse=cse)

        def call(pt):
            pt = np.asarray(pt, dtype=float)
            out = np.empty((len(exprs),) + pt.shape[:-1])
            for j, val in enumerate(fn(*(pt[..., k] for k in range(dim)))):
                out[j] = val
            return _entries_last(out.reshape(shape + pt.shape[:-1]), len(shape))[()]

        return call

    u = batch(u_sym, (dim,), False)
    grad = batch([sp.diff(e, c) for e in u_sym for c in coords], (dim, dim), False)
    terms = batch(viscous + grad_p, (2, dim), True)
    pres = batch([p_sym], (), False)
    return StokesProblem(name, dim, mu, u, pres, terms, grad)


def evaluate_batch(fn, points: np.ndarray, name: str, shape: tuple) -> np.ndarray:
    """(..., *shape) values of fn, called once on a (..., d) array of points;
    `shape` is one point's value shape, e.g. () for a scalar field or (d,)
    for a vector field. Any other result raises a ValueError naming fn."""
    flat = points.reshape(-1, points.shape[-1])
    expected = (len(flat), *shape)
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
    return np.einsum("q,fqd->fd", w, evaluate_batch(fn, pts, name, pts.shape[-1:]))


def boundary_compatibility(problem: StokesProblem, mesh) -> float:
    """integral over the boundary of u.n (zero for a well-posed problem)."""
    from .quadrature import facet_rule

    bf = mesh.boundary_facets
    rule = facet_rule(mesh.dim, _COMPAT_DEGREE)
    means = facet_means(mesh, problem.velocity, bf, rule, "velocity")
    flux = np.einsum("fd,fd->f", means, mesh.facet_normals[bf])
    return float(mesh.facet_measures[bf] @ flux)
