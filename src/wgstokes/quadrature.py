"""Quadrature rules on reference simplices (triangles and tetrahedra).

All rules are returned in barycentric coordinates with weights that sum to
one, so that

    integral_K f dx  ~=  |K| * sum_q w_q f(x_q),   x_q = sum_i bary[q, i] * v_i.

Short fixed-degree rules cover the assembly paths; a collapsed tensor
Gauss-Legendre rule (Duffy transform) provides arbitrary-order rules for
oracles, load integration and error norms.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "gauss_legendre_01",
    "simplex_rule",
    "duffy_rule",
    "facet_rule",
]


def gauss_legendre_01(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on the unit interval (0, 1)."""
    x, w = leggauss(npts)
    return 0.5 * (x + 1.0), 0.5 * w


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

# Tetrahedron, degree 2, 4 points.
_TET_A = (5.0 + 3.0 * math.sqrt(5.0)) / 20.0
_TET_B = (5.0 - math.sqrt(5.0)) / 20.0
_TET_DEG2_BARY = np.array(
    [
        [_TET_A, _TET_B, _TET_B, _TET_B],
        [_TET_B, _TET_A, _TET_B, _TET_B],
        [_TET_B, _TET_B, _TET_A, _TET_B],
        [_TET_B, _TET_B, _TET_B, _TET_A],
    ]
)
_TET_DEG2_W = np.full(4, 0.25)


def duffy_rule(dim: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Collapsed tensor Gauss rule on the unit simplex.

    Uses the Duffy transform of the m^dim tensor Gauss-Legendre rule.
    Exact for polynomials of total degree <= 2*m - dim.

    Returns (bary, w) with bary of shape (m**dim, dim+1), weights sum to 1.
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    x1, w1 = gauss_legendre_01(m)
    if dim == 2:
        u, v = np.meshgrid(x1, x1, indexing="ij")
        wu, wv = np.meshgrid(w1, w1, indexing="ij")
        x = u.ravel()
        y = (v * (1.0 - u)).ravel()
        # Jacobian of (u,v) -> (x,y) is (1-u); reference triangle area 1/2.
        w = (wu * wv * (1.0 - u)).ravel()
        bary = np.column_stack([1.0 - x - y, x, y])
        return bary, w / 0.5
    u, v, s = np.meshgrid(x1, x1, x1, indexing="ij")
    wu, wv, ws = np.meshgrid(w1, w1, w1, indexing="ij")
    x = u
    y = v * (1.0 - u)
    z = s * (1.0 - u) * (1.0 - v)
    w = wu * wv * ws * (1.0 - u) ** 2 * (1.0 - v)
    bary = np.column_stack(
        [(1.0 - x - y - z).ravel(), x.ravel(), y.ravel(), z.ravel()]
    )
    return bary, w.ravel() / (1.0 / 6.0)


def simplex_rule(dim: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature rule on the dim-simplex, exact for the given total degree."""
    if dim == 1:
        n = max(1, (degree + 2) // 2)
        x, w = gauss_legendre_01(n)
        return np.column_stack([1.0 - x, x]), w
    if dim == 2:
        if degree <= 1:
            return np.array([[1.0, 1.0, 1.0]]) / 3.0, np.array([1.0])
        if degree == 2:
            return _TRI_DEG2_BARY.copy(), _TRI_DEG2_W.copy()
        if degree <= 4:
            return _TRI_DEG4_BARY.copy(), _TRI_DEG4_W.copy()
        return duffy_rule(2, (degree + 3) // 2)
    if dim == 3:
        if degree <= 1:
            return np.array([[1.0, 1.0, 1.0, 1.0]]) / 4.0, np.array([1.0])
        if degree == 2:
            return _TET_DEG2_BARY.copy(), _TET_DEG2_W.copy()
        return duffy_rule(3, (degree + 4) // 2)
    raise ValueError(f"dim must be 1, 2 or 3, got {dim}")


def facet_rule(dim: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Rule on the facet of a dim-simplex (a segment for dim=2, triangle for dim=3)."""
    return simplex_rule(dim - 1, degree)
