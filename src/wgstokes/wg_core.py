"""Element calculus of the lowest-order weak Galerkin method.

Unknowns are constants on element interiors and constants on facets. The
weak gradient of such a function lives in the lowest-order Raviart-Thomas
space RT0(K) = {a + b(x - x_K)} and has the closed-form basis

    grad_w of the interior basis function:  -c * (x - x_K)
    grad_w of facet basis function i:        c/(d+1) * (x - x_K) + (|e_i|/|K|) n_i

with c = d|K|/m_K and m_K the centroid second moment. The lifting operator
maps facet values to the unique RT0(K) field whose facet-mean normal traces
match; it feeds the load term and makes the velocity error independent of
the pressure.

The single-element functions take an `ElementGeometry`; `lifting_matrix`
also takes the mesh's per-element arrays, and `field_weak_gradients` and
`interpolate_field` work on every element at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import ElementGeometry, Mesh
from .problems import evaluate_batch, facet_means
from .quadrature import facet_rule, simplex_rule

__all__ = [
    "RT0Function",
    "WGField",
    "PressureField",
    "weak_gradient_interior_basis",
    "weak_gradient_facet_basis",
    "weak_gradient_scalar",
    "field_weak_gradients",
    "weak_divergence",
    "lifting_matrix",
    "lifting_apply",
    "facet_projection_rule",
    "interpolate_field",
]


@dataclass(frozen=True)
class RT0Function:
    """a + b*(x - centroid) on one element; a may be a scalar-field gradient (d,)
    or, for vector fields, still a (d,) array with scalar b."""

    a: np.ndarray
    b: float
    centroid: np.ndarray

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.a + self.b * (x - self.centroid)

    @property
    def divergence(self) -> float:
        return len(self.centroid) * self.b


@dataclass
class WGField:
    """Velocity-type field: d-vector values on interiors and facets.

    Facet unknowns live on interior facets; boundary facets carry known
    data and are stored separately. A field with boundary == 0 belongs to
    the homogeneous space.
    """

    dim: int
    interior: np.ndarray  # (ne, d)
    facet: np.ndarray  # (n interior facets, d)
    boundary: np.ndarray  # (n boundary facets, d)

    def __post_init__(self):
        assert self.interior.shape[1] == self.dim
        assert self.facet.ndim == 2 and self.boundary.ndim == 2


@dataclass
class PressureField:
    values: np.ndarray  # one constant per element


def weak_gradient_interior_basis(geom: ElementGeometry, x: np.ndarray) -> np.ndarray:
    """Weak gradient of the interior basis function at point(s) x."""
    x = np.asarray(x, dtype=float)
    return -geom.grad_scale * (x - geom.centroid)


def weak_gradient_facet_basis(
    geom: ElementGeometry, i: int, x: np.ndarray
) -> np.ndarray:
    """Weak gradient of the basis function of facet i (opposite local vertex i)."""
    x = np.asarray(x, dtype=float)
    d = geom.dim
    radial = geom.grad_scale / (d + 1) * (x - geom.centroid)
    shift = (geom.facet_measures[i] / geom.volume) * geom.normals[i]
    return radial + shift


def weak_gradient_scalar(
    geom: ElementGeometry, interior: float, facet_values: np.ndarray
) -> RT0Function:
    """Weak gradient of a scalar unknown with the given interior/facet values."""
    facet_values = np.asarray(facet_values, dtype=float)
    d = geom.dim
    a = (geom.facet_measures[:, None] * geom.normals * facet_values[:, None]).sum(
        axis=0
    ) / geom.volume
    b = geom.grad_scale * (facet_values.sum() / (d + 1) - interior)
    return RT0Function(a=a, b=float(b), centroid=geom.centroid)


def field_weak_gradients(mesh: Mesh, field: WGField) -> tuple[np.ndarray, np.ndarray]:
    """Weak-gradient coefficients of a velocity field on every element at once.

    Returns (a, b) with a[k, r] the constant part and b[k, r] the radial
    coefficient of component r on element k, so the weak gradient of
    component r is a[k, r] + b[k, r] * (x - x_K). Boundary facets use the
    known data stored on the field.
    """
    d = mesh.dim
    vals = np.empty((mesh.num_facets, d))
    vals[mesh.interior_facets] = field.facet
    vals[mesh.boundary_facets] = field.boundary
    vals = vals[mesh.elem_facets]  # (ne, d+1, d)
    a = np.einsum(
        "ni,nir,nic->nrc", mesh.elem_facet_measures, vals, mesh.elem_normals
    ) / mesh.elem_volumes[:, None, None]
    b = mesh.elem_grad_scales[:, None] * (vals.sum(axis=1) / (d + 1) - field.interior)
    return a, b


def weak_divergence(geom: ElementGeometry, facet_values: np.ndarray) -> float:
    """Constant value of the weak divergence from facet vectors ((d+1, d) array).

    Depends on facet values only; the interior value drops out.
    """
    facet_values = np.asarray(facet_values, dtype=float)
    flux = np.einsum("i,id,id->", geom.facet_measures, facet_values, geom.normals)
    return float(flux / geom.volume)


def lifting_matrix(normals: np.ndarray, facet_measures: np.ndarray, volume) -> np.ndarray:
    """Rows [n_i^T, delta_i] of the local lifting system, (..., d+1, d+1).

    delta_i = d|K|/((d+1)|e_i|) is the constant value of (x - x_K).n_i on
    facet i. Leading axes broadcast: pass one element's geometry or the
    mesh's per-element arrays.
    """
    d = normals.shape[-1]
    delta = d * np.asarray(volume)[..., None] / ((d + 1) * facet_measures)
    return np.concatenate([normals, delta[..., None]], axis=-1)


def lifting_apply(geom: ElementGeometry, facet_values: np.ndarray) -> RT0Function:
    """RT0(K) field whose facet-mean normal traces equal those of the facet data.

    Solves the (d+1)x(d+1) system  a.n_i + b*delta_i = v_i.n_i  where
    delta_i is the constant value of (x - x_K).n_i on facet i. The output
    depends on facet values only.
    """
    facet_values = np.asarray(facet_values, dtype=float)
    d = geom.dim
    m = lifting_matrix(geom.normals, geom.facet_measures, geom.volume)
    rhs = np.einsum("id,id->i", facet_values, geom.normals)
    try:
        coef = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:  # unreachable for nondegenerate K
        raise RuntimeError(f"singular lifting system on element: {exc}") from exc
    return RT0Function(a=coef[:d], b=float(coef[d]), centroid=geom.centroid)


FACET_METHODS = ("barycenter", "gauss2", "gauss3")


def facet_projection_rule(dim: int, method: str) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric points/weights on the facet simplex for a projection method.

    barycenter: single midpoint evaluation (second-order facet means);
    gauss2/gauss3: short Gauss rules (2/3 points on edges, degree-2/4 rules
    on triangular facets).
    """
    if method == "barycenter":
        n = dim  # facet simplex has dim vertices
        return np.full((1, n), 1.0 / n), np.array([1.0])
    if method == "gauss2":
        return facet_rule(dim, 3 if dim == 2 else 2)
    if method == "gauss3":
        return facet_rule(dim, 5 if dim == 2 else 4)
    raise ValueError(f"unknown facet projection method {method!r}; use one of {FACET_METHODS}")


def interpolate_field(
    mesh: Mesh,
    u,
    facet_method: str = "gauss3",
    interior_degree: int = 4,
) -> WGField:
    """Interpolate a vector function into the discrete space by local averaging.

    u follows the batch contract of `StokesProblem` callables.
    """
    d = mesh.dim
    bary, w = simplex_rule(d, interior_degree)
    pts = bary @ mesh.vertices[mesh.elements]  # (ne, q, d)
    interior = np.einsum("q,nqd->nd", w, evaluate_batch(u, pts, "u"))
    rule = facet_projection_rule(d, facet_method)
    means = facet_means(mesh, u, np.arange(mesh.num_facets), rule, "u")
    return WGField(
        dim=d,
        interior=interior,
        facet=means[mesh.interior_facets],
        boundary=means[mesh.boundary_facets],
    )
