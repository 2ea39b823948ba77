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

Everything here works on every element at once from the mesh's per-element
arrays: the weak gradients of a field, the lifting system and the facet
rules of the boundary projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh
from .quadrature import facet_rule

__all__ = [
    "WGField",
    "PressureField",
    "field_weak_gradients",
    "lifting_matrix",
    "facet_projection_rule",
]


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


def lifting_matrix(normals: np.ndarray, facet_measures: np.ndarray, volume) -> np.ndarray:
    """Rows [n_i^T, delta_i] of the local lifting system, (..., d+1, d+1).

    delta_i = d|K|/((d+1)|e_i|) is the constant value of (x - x_K).n_i on
    facet i. Leading axes broadcast over elements.
    """
    d = normals.shape[-1]
    delta = d * np.asarray(volume)[..., None] / ((d + 1) * facet_measures)
    return np.concatenate([normals, delta[..., None]], axis=-1)


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
