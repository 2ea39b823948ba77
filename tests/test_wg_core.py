"""Weak gradient / weak divergence / lifting properties, checked through the
batched `field_weak_gradients` and `lifting_matrix` on one-element meshes."""

import math

import numpy as np
import pytest

from oracles import local_weak_gradients, map_to_physical
from wgstokes.mesh import Mesh, generate_structured_tet, generate_structured_tri
from wgstokes.problems import facet_means
from wgstokes.quadrature import facet_rule, simplex_rule
from wgstokes.wg_core import (
    WGField,
    facet_projection_rule,
    field_weak_gradients,
    interpolate_field,
    lifting_matrix,
)


def one_element(verts):
    verts = np.asarray(verts, dtype=float)
    return Mesh(verts, np.arange(len(verts))[None])


def reference_triangle():
    return one_element([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def scaled_triangle(s):
    return one_element(s * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))


def some_tet():
    m = generate_structured_tet(1)
    return one_element(m.vertices[m.elements[2]])


def on_facets(mesh, local):
    """Values indexed by global facet from values on the local facets of element 0."""
    out = np.zeros((mesh.num_facets,) + np.shape(local)[1:])
    out[mesh.elem_facets[0]] = local
    return out


def field(mesh, interior, facet_vals):
    """WGField from per-element interior values and values on every (global) facet."""
    return WGField(
        mesh.dim, interior, facet_vals[mesh.interior_facets], facet_vals[mesh.boundary_facets]
    )


def weak_gradient(mesh, u0, ub):
    """(a, b) of the weak gradient a + b*(x - x_K) of the scalar with interior
    value u0 and value ub[i] on local facet i of a one-element mesh."""
    d = mesh.dim
    interior = np.zeros((1, d))
    interior[0, 0] = u0
    facet_vals = np.zeros((mesh.num_facets, d))
    facet_vals[:, 0] = on_facets(mesh, ub)
    a, b = field_weak_gradients(mesh, field(mesh, interior, facet_vals))
    return a[0, 0], b[0, 0]


def basis_gradient(mesh, p, x):
    """Weak gradient at x of local basis p (0 interior, 1 + i facet i)."""
    d = mesh.dim
    ub = np.zeros(d + 1)
    if p > 0:
        ub[p - 1] = 1.0
    a, b = weak_gradient(mesh, float(p == 0), ub)
    return a + b * (x - mesh.elem_centroids[0])


def weak_divergence(mesh, facet_vals):
    """Per-element weak divergence: the trace of field_weak_gradients' a."""
    interior = np.zeros((mesh.num_elements, mesh.dim))
    a, _ = field_weak_gradients(mesh, field(mesh, interior, facet_vals))
    return np.trace(a, axis1=1, axis2=2)


def lift(mesh, vals):
    """(a, b) of the lifting a + b*(x - x_K) on element 0 through lifting_matrix."""
    d = mesh.dim
    m = lifting_matrix(mesh.elem_normals, mesh.elem_facet_measures, mesh.elem_volumes)[0]
    coef = np.linalg.solve(m, np.einsum("id,id->i", vals, mesh.elem_normals[0]))
    return coef[:d], coef[d]


def test_interior_basis_vanishes_at_centroid():
    g = reference_triangle()
    assert np.allclose(basis_gradient(g, 0, g.elem_centroids[0]), 0.0)


def test_interior_basis_reference_value():
    g = reference_triangle()
    # grad_scale = 2*(1/2)/(1/18) = 18 on the reference triangle
    val = basis_gradient(g, 0, np.array([1.0, 0.0]))
    assert np.allclose(val, -18.0 * np.array([2.0 / 3.0, -1.0 / 3.0]))


@pytest.mark.parametrize("s", [0.5, 2.0])
def test_interior_basis_scaling(s):
    g1 = reference_triangle()
    gs = scaled_triangle(s)
    x = np.array([0.7, 0.1])
    v1 = basis_gradient(g1, 0, x)
    vs = basis_gradient(gs, 0, s * x)
    assert np.allclose(vs, v1 / s, rtol=1e-13)


@pytest.mark.parametrize("geom", [reference_triangle(), some_tet()])
def test_basis_sum_identity(geom):
    # interior basis + sum of facet bases = weak gradient of the all-ones field = 0
    rng = np.random.default_rng(11)
    for _ in range(4):
        x = geom.elem_centroids[0] + 0.3 * rng.normal(size=geom.dim)
        total = sum(basis_gradient(geom, p, x) for p in range(geom.dim + 2))
        scale = geom.elem_facet_measures[0].max() / geom.elem_volumes[0]
        assert np.linalg.norm(total) < 1e-12 * scale


def test_facet_basis_at_centroid():
    g = reference_triangle()
    for i in range(3):
        val = basis_gradient(g, 1 + i, g.elem_centroids[0])
        expect = g.elem_facet_measures[0, i] / g.elem_volumes[0] * g.elem_normals[0, i]
        assert np.allclose(val, expect)
    # facet opposite vertex 0 is the hypotenuse: (|e|/|K|) n = (2, 2)
    hyp = basis_gradient(g, 1, g.elem_centroids[0])
    assert np.allclose(hyp, [2.0, 2.0])


@pytest.mark.parametrize("geom", [reference_triangle(), some_tet()])
def test_weak_gradient_of_constants_vanishes(geom):
    d = geom.dim
    a, b = weak_gradient(geom, 3.7, np.full(d + 1, 3.7))
    assert np.linalg.norm(a) < 1e-11
    assert abs(b) < 1e-11


def test_weak_gradient_single_facet_value():
    # the batched closed form against the weak gradient solved from its
    # defining relation by quadrature
    g = reference_triangle()
    V = g.vertices[g.elements[0]]
    ub = np.zeros(3)
    ub[1] = 1.0
    a, b = weak_gradient(g, 0.0, ub)
    coef = local_weak_gradients(V)[0][2]
    rng = np.random.default_rng(5)
    for _ in range(3):
        x = rng.normal(size=2)
        oracle = coef[:2] + coef[2] * (x - V[0])
        assert np.allclose(a + b * (x - g.elem_centroids[0]), oracle, rtol=1e-12)


@pytest.mark.parametrize("geom", [reference_triangle(), some_tet()])
def test_weak_gradient_of_identity_map(geom):
    # x: interior value at the centroid, facet values at the barycenters
    d = geom.dim
    a, b = field_weak_gradients(geom, field(geom, geom.elem_centroids, geom.facet_barycenters))
    for r in range(d):
        assert abs(b[0, r]) < 1e-10 * geom.elem_grad_scales[0]
        expect = np.zeros(d)
        expect[r] = 1.0
        assert np.allclose(a[0, r], expect, atol=1e-11)


@pytest.mark.parametrize("geom", [reference_triangle(), some_tet()])
def test_defining_relation(geom):
    # (grad_w u, w)_K = (u_facet, w.n)_dK - (u_int, div w)_K for all w in RT0(K),
    # evaluated with the exact closed-form integrals on both sides
    d = geom.dim
    volume, moment = geom.elem_volumes[0], geom.elem_second_moments[0]
    measures, normals = geom.elem_facet_measures[0], geom.elem_normals[0]
    delta = d * volume / ((d + 1) * measures)
    rng = np.random.default_rng(23)
    for _ in range(5):
        u0 = rng.normal()
        ub = rng.normal(size=d + 1)
        a, b = weak_gradient(geom, u0, ub)
        basis = [(np.eye(d)[j], 0.0) for j in range(d)] + [(np.zeros(d), 1.0)]
        for c, e in basis:
            lhs = a @ c * volume + b * e * moment
            bnd = sum(
                ub[i] * measures[i] * (c @ normals[i] + e * delta[i])
                for i in range(d + 1)
            )
            rhs = bnd - u0 * d * e * volume
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


@pytest.mark.parametrize("geom", [reference_triangle(), some_tet()])
def test_weak_divergence_of_constants(geom):
    d = geom.dim
    vals = np.tile(np.arange(1.0, d + 1.0), (geom.num_facets, 1))
    assert weak_divergence(geom, vals)[0] == pytest.approx(0.0, abs=1e-11)


@pytest.mark.parametrize("geom", [reference_triangle(), some_tet()])
def test_weak_divergence_of_identity_map(geom):
    assert weak_divergence(geom, geom.facet_barycenters)[0] == pytest.approx(
        geom.dim, rel=1e-12
    )


def test_weak_divergence_matches_dense_reevaluation():
    g = reference_triangle()
    rng = np.random.default_rng(2)
    vals = rng.normal(size=(3, 2))
    brute = sum(
        g.elem_facet_measures[0, i] * vals[i] @ g.elem_normals[0, i] for i in range(3)
    ) / g.elem_volumes[0]
    assert weak_divergence(g, on_facets(g, vals))[0] == pytest.approx(brute, rel=1e-13)


@pytest.mark.parametrize("geom", [reference_triangle(), some_tet()])
def test_lifting_of_constants(geom):
    d = geom.dim
    c = np.arange(1.0, d + 1.0)
    a, b = lift(geom, np.tile(c, (d + 1, 1)))
    assert np.allclose(a, c, rtol=1e-12)
    assert abs(b) < 1e-12


@pytest.mark.parametrize("geom", [reference_triangle(), some_tet()])
def test_lifting_of_radial_field(geom):
    # facet values of x - x_K are the facet barycenters shifted; lifting gives a=0, b=1
    vals = geom.facet_barycenters[geom.elem_facets[0]] - geom.elem_centroids[0]
    a, b = lift(geom, vals)
    assert np.allclose(a, 0.0, atol=1e-12)
    assert b == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("geom", [reference_triangle(), some_tet()])
def test_lifting_trace_reproduction(geom):
    d = geom.dim
    rng = np.random.default_rng(9)
    vals = rng.normal(size=(d + 1, d))
    a, b = lift(geom, vals)
    normals = geom.elem_normals[0]
    # re-integrate (lifting.n) over each facet with a dense rule
    bary, w = facet_rule(d, 6)
    # facet i vertices = element vertices excluding local vertex i
    for i in range(d + 1):
        fverts = np.delete(geom.vertices[geom.elements[0]], i, axis=0)
        pts = map_to_physical(fverts, bary)
        mean = w @ ((a + b * (pts - geom.elem_centroids[0])) @ normals[i])
        assert mean == pytest.approx(vals[i] @ normals[i], abs=1e-12)


@pytest.mark.parametrize("geom", [reference_triangle(), some_tet()])
def test_lifting_divergence_compatibility(geom):
    d = geom.dim
    rng = np.random.default_rng(31)
    vals = rng.normal(size=(d + 1, d))
    _, b = lift(geom, vals)
    assert d * b == pytest.approx(weak_divergence(geom, on_facets(geom, vals))[0], rel=1e-12)


def test_commuting_divergence_identity():
    # weak divergence of the interpolant equals the mean of div u for quadratics
    def u(p):
        x, y = p[..., 0], p[..., 1]
        return np.stack([x * x + 2 * x * y, y * y - x * y], axis=-1)

    def divu(p):
        x, y = p[..., 0], p[..., 1]
        return 2 * x + 2 * y + 2 * y - x

    mesh = generate_structured_tri(2)
    a, _ = field_weak_gradients(mesh, interpolate_field(mesh, u))
    div = np.trace(a, axis1=1, axis2=2)
    for k in range(mesh.num_elements):
        mean_div = divu(mesh.elem_centroids[k])  # mean of a linear function
        assert div[k] == pytest.approx(mean_div, abs=1e-12)


def facet_mean(g, verts, method):
    # mean of g over the edge verts[0]-verts[1], the first facet of one triangle
    tri = Mesh(np.vstack([verts, [verts[0, 0], 1.0]]), np.array([[0, 1, 2]]))
    f = np.flatnonzero((tri.facets == [0, 1]).all(axis=1))
    return facet_means(tri, g, f, facet_projection_rule(2, method), "g")[0]


def test_project_boundary_datum_constant_and_linear():
    fverts = np.array([[0.2, 0.0], [0.7, 0.0]])
    const = lambda p: np.tile([4.0, -1.0], (len(p), 1))
    lin = lambda p: np.stack([2.0 * p[:, 0] + 1.0, p[:, 0]], axis=-1)
    for method in ("barycenter", "gauss2", "gauss3"):
        assert np.allclose(facet_mean(const, fverts, method), [4.0, -1.0])
    # midpoint rule is exact on linears
    assert np.allclose(facet_mean(lin, fverts, "barycenter"), [2.0 * 0.45 + 1.0, 0.45])


def test_project_boundary_datum_gauss2_order():
    g = lambda p: np.stack([np.sin(math.pi * p[:, 0]), np.cos(p[:, 0])], axis=-1)
    errs = []
    for h in (0.2, 0.1):
        fverts = np.array([[0.3, 0.0], [0.3 + h, 0.0]])
        approx = facet_mean(g, fverts, "gauss2")
        dense = facet_mean(g, fverts, "gauss3")
        errs.append(np.linalg.norm(approx - dense))
    # two-point Gauss error is O(h^4) relative to the dense reference
    assert errs[1] < errs[0] / 12.0


def test_project_interior_linear_and_smooth():
    # the interior value of interpolate_field is the element average
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = Mesh(verts, np.array([[0, 1, 2]]))
    centroid = mesh.elem_centroids[0]
    lin = lambda p: 3.0 * p[..., 0] - p[..., 1] + 0.5
    as_vec = lambda fn: (lambda p: np.stack([fn(p), fn(p)], axis=-1))
    interior = interpolate_field(mesh, as_vec(lin), interior_degree=2).interior[0]
    assert interior == pytest.approx([lin(centroid)] * 2, rel=1e-13)
    smooth = lambda p: np.sin(math.pi * p[..., 0])
    dense_bary, dense_w = simplex_rule(2, 20)
    oracle = float(dense_w @ smooth(map_to_physical(verts, dense_bary)))
    interior = interpolate_field(mesh, as_vec(smooth), interior_degree=12).interior[0]
    assert interior == pytest.approx([oracle] * 2, abs=1e-10)


def test_interpolate_field_shapes():
    mesh = generate_structured_tri(2)
    f = interpolate_field(mesh, lambda p: p * [1.0, -1.0])
    assert f.interior.shape == (8, 2)
    assert f.facet.shape == (len(mesh.interior_facets), 2)
    assert f.boundary.shape == (len(mesh.boundary_facets), 2)
