"""Quadrature rules on reference simplices (triangles and tetrahedra).

All rules are returned in barycentric coordinates with weights that sum to
one, so that

    integral_K f dx  ~=  |K| * sum_q w_q f(x_q),   x_q = sum_i bary[q, i] * v_i.

Two short triangle rules, of degree 2 and 4, serve the facet projections
of 3D meshes. Every other degree gets a conical product rule (Stroud 1971,
ch. 2): a tensor Gauss-Jacobi rule on the unit cube collapsed onto the
simplex, with the Jacobian of the collapse absorbed into the Jacobi weights.
With m points per axis it is exact to degree 2m - 1 and all its weights are
positive.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "gauss_legendre_01",
    "gauss_jacobi_01",
    "conical_rule",
    "simplex_rule",
    "facet_rule",
]


def gauss_legendre_01(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on the unit interval (0, 1)."""
    x, w = leggauss(npts)
    return 0.5 * (x + 1.0), 0.5 * w


def gauss_jacobi_01(npts: int, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights on (0, 1) for the weight (1 - u)^alpha.

    The nodes are the eigenvalues of the Jacobi matrix of the monic Jacobi
    recurrence with beta = 0 (Golub-Welsch), on (-1, 1) with x = 2u - 1.
    Each weight is the Christoffel number 1 / sum_k p_k(x)^2 of the
    orthonormal polynomials, times the weight's mass 1 / (alpha + 1). This
    equals Golub-Welsch's squared first eigenvector components, and needs
    only `eigvalsh`, the LAPACK routine `leggauss` already loads.
    """
    k = np.arange(1.0, npts)
    s = 2.0 * k + alpha
    # a_0 is written apart: the general term is 0/0 at n = alpha = 0
    diag = np.concatenate([[-alpha / (alpha + 2.0)], -(alpha**2) / (s * (s + 2.0))])
    off = np.sqrt(4.0 * k**2 * (k + alpha) ** 2 / (s**2 * (s + 1.0) * (s - 1.0)))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    total = np.ones_like(x)
    for j in range(npts - 1):
        below = off[j - 1] * p_prev if j else 0.0
        p_prev, p = p, ((x - diag[j]) * p - below) / off[j]
        total += p**2
    return 0.5 * (x + 1.0), 1.0 / ((alpha + 1.0) * total)


# Triangle, degree 2, 3 points (midpoint-family rule).
_TRI_DEG2_BARY = np.array(
    [
        [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
        [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
        [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
    ]
)
_TRI_DEG2_W = np.full(3, 1.0 / 3.0)

# Triangle, degree 4, 6 points (two symmetric orbits).
_TRI_A1 = 0.445948490915965
_TRI_W1 = 0.223381589678011
_TRI_A2 = 0.091576213509771
_TRI_W2 = 0.109951743655322


def _orbit3(a: float) -> np.ndarray:
    b = 1.0 - 2.0 * a
    return np.array([[b, a, a], [a, b, a], [a, a, b]])


_TRI_DEG4_BARY = np.vstack([_orbit3(_TRI_A1), _orbit3(_TRI_A2)])
_TRI_DEG4_W = np.concatenate([np.full(3, _TRI_W1), np.full(3, _TRI_W2)])


def conical_rule(dim: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Conical product rule on the unit dim-simplex, exact to degree 2*m - 1.

    Axis k (0-based) carries m Gauss-Jacobi points for the weight
    (1 - u_k)^(dim - 1 - k), the Jacobian of the collapse
    x_k = u_k * prod_{j<k} (1 - u_j). Returns (bary, w) with bary of shape
    (m**dim, dim+1); the weights are positive and sum to one.
    """
    axes = [gauss_jacobi_01(m, dim - 1 - k) for k in range(dim)]
    u = np.stack(np.meshgrid(*(x for x, _ in axes), indexing="ij"), axis=-1).reshape(-1, dim)
    w = np.prod(np.meshgrid(*(wk for _, wk in axes), indexing="ij"), axis=0).ravel()
    rest = np.cumprod(1.0 - u, axis=1)  # rest[:, k] = prod_{j<=k} (1 - u_j)
    x = u * np.column_stack([np.ones(len(u)), rest[:, :-1]])
    return np.column_stack([rest[:, -1], x]), math.factorial(dim) * w


def simplex_rule(dim: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature rule on the dim-simplex, exact for the given total degree."""
    if dim == 1:
        n = max(1, (degree + 2) // 2)
        x, w = gauss_legendre_01(n)
        return np.column_stack([1.0 - x, x]), w
    if dim not in (2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    if dim == 2 and degree == 2:
        return _TRI_DEG2_BARY.copy(), _TRI_DEG2_W.copy()
    if dim == 2 and degree in (3, 4):
        return _TRI_DEG4_BARY.copy(), _TRI_DEG4_W.copy()
    return conical_rule(dim, (degree + 2) // 2)


def facet_rule(dim: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Rule on the facet of a dim-simplex (a segment for dim=2, triangle for dim=3)."""
    return simplex_rule(dim - 1, degree)
