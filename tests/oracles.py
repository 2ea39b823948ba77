"""Independent brute-force oracles used by unit and acceptance tests.

Everything here avoids the closed-form Gram/lifting shortcuts of the
library: stiffness entries come from pointwise basis evaluation under a
quadrature rule, divergence entries from raw facet geometry recomputed
from vertex coordinates.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss

from wgstokes.assembly import build_dofmap
from wgstokes.mesh import Mesh, generate_structured_tet
from wgstokes.quadrature import simplex_rule
from wgstokes.wg_core import (
    weak_gradient_facet_basis,
    weak_gradient_interior_basis,
)


def map_to_physical(vertices, bary):
    """Barycentric points -> physical coordinates of the simplex with these vertices."""
    return np.asarray(bary) @ np.asarray(vertices)


def duffy_rule(dim, m):
    """Collapsed tensor Gauss rule on the unit simplex.

    Uses the Duffy transform of the m^dim tensor Gauss-Legendre rule, with
    the Jacobian of the collapse multiplied into the weights. Exact for
    polynomials of total degree <= 2*m - dim.

    Returns (bary, w) with bary of shape (m**dim, dim+1), weights sum to 1.
    """
    x1, w1 = leggauss(m)
    x1, w1 = 0.5 * (x1 + 1.0), 0.5 * w1
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


def jittered_tet(n, seed):
    """Structured unit-cube mesh with interior vertices moved by up to 0.1*h."""
    base = generate_structured_tet(n)
    vertices = base.vertices.copy()
    interior = np.all((vertices > 0.0) & (vertices < 1.0), axis=1)
    step = 0.1 / n
    rng = np.random.default_rng(seed)
    vertices[interior] += rng.uniform(-step, step, size=(int(interior.sum()), 3))
    return Mesh(vertices, base.elements)


def dense_A_oracle(mesh, degree=4):
    """Assemble the velocity stiffness densely by quadrature of basis products."""
    dof = build_dofmap(mesh)
    d = mesh.dim
    a = np.zeros((dof.n_u, dof.n_u))
    bary, w = simplex_rule(d, degree)
    for k in range(mesh.num_elements):
        g = mesh.element_geometry(k)
        pts = map_to_physical(g.vertices, bary)
        # basis gradient values at quadrature points: index 0 interior, 1..d+1 facets
        vals = [np.array([weak_gradient_interior_basis(g, p) for p in pts])]
        for i in range(d + 1):
            vals.append(np.array([weak_gradient_facet_basis(g, i, p) for p in pts]))
        base = [dof.interior_dof(k, 0)]
        for f in mesh.elem_facets[k]:
            base.append(None if dof.facet_slot[f] < 0 else dof.facet_dof(f, 0))
        for p, bp in enumerate(base):
            if bp is None:
                continue
            for q, bq in enumerate(base):
                if bq is None:
                    continue
                entry = g.volume * float(w @ np.einsum("qd,qd->q", vals[p], vals[q]))
                for r in range(d):
                    a[bp + r, bq + r] += entry
    return a


def dense_B_oracle(mesh):
    """Assemble the divergence block from raw facet vertex coordinates."""
    dof = build_dofmap(mesh)
    d = mesh.dim
    b = np.zeros((mesh.num_elements, dof.n_u))
    for k in range(mesh.num_elements):
        centroid = mesh.vertices[mesh.elements[k]].mean(axis=0)
        for i in range(d + 1):
            f = mesh.elem_facets[k, i]
            if dof.facet_slot[f] < 0:
                continue
            fv = mesh.vertices[mesh.facets[f]]
            if d == 2:
                t = fv[1] - fv[0]
                measure = np.linalg.norm(t)
                n = np.array([t[1], -t[0]]) / measure
            else:
                c = np.cross(fv[1] - fv[0], fv[2] - fv[0])
                measure = 0.5 * np.linalg.norm(c)
                n = c / np.linalg.norm(c)
            if n @ (fv.mean(axis=0) - centroid) < 0:
                n = -n
            for r in range(d):
                b[k, dof.facet_dof(f, r)] += measure * n[r]
    return b
