"""Element-level weak gradient / weak divergence / lifting properties."""

import math

import numpy as np
import pytest

from oracles import map_to_physical
from wgstokes.mesh import Mesh, generate_structured_tet, generate_structured_tri
from wgstokes.problems import facet_means
from wgstokes.quadrature import facet_rule, simplex_rule
from wgstokes.wg_core import (
    facet_projection_rule,
    interpolate_field,
    lifting_apply,
    weak_divergence,
    weak_gradient_facet_basis,
    weak_gradient_interior_basis,
    weak_gradient_scalar,
)


def reference_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return Mesh(verts, np.array([[0, 1, 2]])).element_geometry(0)


def scaled_triangle(s):
    verts = s * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return Mesh(verts, np.array([[0, 1, 2]])).element_geometry(0)


def some_tet():
    return generate_structured_tet(1).element_geometry(2)


def test_interior_basis_vanishes_at_centroid():
    g = reference_triangle()
    assert np.allclose(weak_gradient_interior_basis(g, g.centroid), 0.0)


def test_interior_basis_reference_value():
    g = reference_triangle()
    # grad_scale = 2*(1/2)/(1/18) = 18 on the reference triangle
    val = weak_gradient_interior_basis(g, np.array([1.0, 0.0]))
    assert np.allclose(val, -18.0 * np.array([2.0 / 3.0, -1.0 / 3.0]))


@pytest.mark.parametrize("s", [0.5, 2.0])
def test_interior_basis_scaling(s):
    g1 = reference_triangle()
    gs = scaled_triangle(s)
    x = np.array([0.7, 0.1])
    v1 = weak_gradient_interior_basis(g1, x)
    vs = weak_gradient_interior_basis(gs, s * x)
    assert np.allclose(vs, v1 / s, rtol=1e-13)


@pytest.mark.parametrize("geom", [reference_triangle(), some_tet()])
def test_basis_sum_identity(geom):
    # interior basis + sum of facet bases = weak gradient of the all-ones field = 0
    rng = np.random.default_rng(11)
    for _ in range(4):
        x = geom.centroid + 0.3 * rng.normal(size=geom.dim)
        total = weak_gradient_interior_basis(geom, x).copy()
        for i in range(geom.dim + 1):
            total += weak_gradient_facet_basis(geom, i, x)
        scale = geom.facet_measures.max() / geom.volume
        assert np.linalg.norm(total) < 1e-12 * scale


def test_facet_basis_at_centroid():
    g = reference_triangle()
    for i in range(3):
        val = weak_gradient_facet_basis(g, i, g.centroid)
        expect = g.facet_measures[i] / g.volume * g.normals[i]
        assert np.allclose(val, expect)
    # facet opposite vertex 0 is the hypotenuse: (|e|/|K|) n = (2, 2)
    hyp = weak_gradient_facet_basis(g, 0, g.centroid)
    assert np.allclose(hyp, [2.0, 2.0])


@pytest.mark.parametrize("geom", [reference_triangle(), some_tet()])
def test_weak_gradient_of_constants_vanishes(geom):
    d = geom.dim
    rt = weak_gradient_scalar(geom, 3.7, np.full(d + 1, 3.7))
    assert np.linalg.norm(rt.a) < 1e-11
    assert abs(rt.b) < 1e-11


def test_weak_gradient_single_facet_value():
    g = reference_triangle()
    ub = np.zeros(3)
    ub[1] = 1.0
    rt = weak_gradient_scalar(g, 0.0, ub)
    rng = np.random.default_rng(5)
    for _ in range(3):
        x = rng.normal(size=2)
        assert np.allclose(rt(x), weak_gradient_facet_basis(g, 1, x), rtol=1e-12)


@pytest.mark.parametrize("geom", [reference_triangle(), some_tet()])
def test_weak_gradient_of_identity_map(geom):
    d = geom.dim
    for r in range(d):
        # component r of x: interior value at the centroid, facet values at barycenters
        rt = weak_gradient_scalar(geom, geom.centroid[r], geom.facet_barycenters[:, r])
        assert abs(rt.b) < 1e-10 * geom.grad_scale
        expect = np.zeros(d)
        expect[r] = 1.0
        assert np.allclose(rt.a, expect, atol=1e-11)


@pytest.mark.parametrize("geom", [reference_triangle(), some_tet()])
def test_defining_relation(geom):
    # (grad_w u, w)_K = (u_facet, w.n)_dK - (u_int, div w)_K for all w in RT0(K),
    # evaluated with the exact closed-form integrals on both sides
    d = geom.dim
    delta = d * geom.volume / ((d + 1) * geom.facet_measures)
    rng = np.random.default_rng(23)
    for _ in range(5):
        u0 = rng.normal()
        ub = rng.normal(size=d + 1)
        rt = weak_gradient_scalar(geom, u0, ub)
        basis = [(np.eye(d)[j], 0.0) for j in range(d)] + [(np.zeros(d), 1.0)]
        for c, e in basis:
            lhs = rt.a @ c * geom.volume + rt.b * e * geom.second_moment
            bnd = sum(
                ub[i] * geom.facet_measures[i] * (c @ geom.normals[i] + e * delta[i])
                for i in range(d + 1)
            )
            rhs = bnd - u0 * d * e * geom.volume
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


@pytest.mark.parametrize("geom", [reference_triangle(), some_tet()])
def test_weak_divergence_of_constants(geom):
    d = geom.dim
    vals = np.tile(np.arange(1.0, d + 1.0), (d + 1, 1))
    assert weak_divergence(geom, vals) == pytest.approx(0.0, abs=1e-11)


@pytest.mark.parametrize("geom", [reference_triangle(), some_tet()])
def test_weak_divergence_of_identity_map(geom):
    assert weak_divergence(geom, geom.facet_barycenters) == pytest.approx(
        geom.dim, rel=1e-12
    )


def test_weak_divergence_matches_dense_reevaluation():
    g = reference_triangle()
    rng = np.random.default_rng(2)
    vals = rng.normal(size=(3, 2))
    brute = sum(
        g.facet_measures[i] * vals[i] @ g.normals[i] for i in range(3)
    ) / g.volume
    assert weak_divergence(g, vals) == pytest.approx(brute, rel=1e-13)


@pytest.mark.parametrize("geom", [reference_triangle(), some_tet()])
def test_lifting_of_constants(geom):
    d = geom.dim
    c = np.arange(1.0, d + 1.0)
    rt = lifting_apply(geom, np.tile(c, (d + 1, 1)))
    assert np.allclose(rt.a, c, rtol=1e-12)
    assert abs(rt.b) < 1e-12


@pytest.mark.parametrize("geom", [reference_triangle(), some_tet()])
def test_lifting_of_radial_field(geom):
    # facet values of x - x_K are the facet barycenters shifted; lifting gives a=0, b=1
    vals = geom.facet_barycenters - geom.centroid
    rt = lifting_apply(geom, vals)
    assert np.allclose(rt.a, 0.0, atol=1e-12)
    assert rt.b == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("geom", [reference_triangle(), some_tet()])
def test_lifting_trace_reproduction(geom):
    d = geom.dim
    rng = np.random.default_rng(9)
    vals = rng.normal(size=(d + 1, d))
    rt = lifting_apply(geom, vals)
    # re-integrate (lifting.n) over each facet with a dense rule
    bary, w = facet_rule(d, 6)
    # facet i vertices = element vertices excluding local vertex i
    for i in range(d + 1):
        fverts = np.delete(geom.vertices, i, axis=0)
        pts = map_to_physical(fverts, bary)
        mean = w @ np.array([rt(p) @ geom.normals[i] for p in pts])
        assert mean == pytest.approx(vals[i] @ geom.normals[i], abs=1e-12)


@pytest.mark.parametrize("geom", [reference_triangle(), some_tet()])
def test_lifting_divergence_compatibility(geom):
    d = geom.dim
    rng = np.random.default_rng(31)
    vals = rng.normal(size=(d + 1, d))
    rt = lifting_apply(geom, vals)
    assert rt.divergence == pytest.approx(weak_divergence(geom, vals), rel=1e-12)


def test_commuting_divergence_identity():
    # weak divergence of the interpolant equals the mean of div u for quadratics
    def u(p):
        x, y = p[..., 0], p[..., 1]
        return np.stack([x * x + 2 * x * y, y * y - x * y], axis=-1)

    def divu(p):
        x, y = p[..., 0], p[..., 1]
        return 2 * x + 2 * y + 2 * y - x

    mesh = generate_structured_tri(2)
    field = interpolate_field(mesh, u, facet_method="gauss3")
    for k in range(mesh.num_elements):
        g = mesh.element_geometry(k)
        vals = np.empty((3, 2))
        for i in range(3):
            f = mesh.elem_facets[k, i]
            pos = np.searchsorted(mesh.interior_facets, f)
            if pos < len(mesh.interior_facets) and mesh.interior_facets[pos] == f:
                vals[i] = field.facet[pos]
            else:
                pos = np.searchsorted(mesh.boundary_facets, f)
                vals[i] = field.boundary[pos]
        mean_div = divu(g.centroid)  # mean of a linear function
        assert weak_divergence(g, vals) == pytest.approx(mean_div, abs=1e-12)


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
    g = mesh.element_geometry(0)
    lin = lambda p: 3.0 * p[..., 0] - p[..., 1] + 0.5
    as_vec = lambda fn: (lambda p: np.stack([fn(p), fn(p)], axis=-1))
    interior = interpolate_field(mesh, as_vec(lin), interior_degree=2).interior[0]
    assert interior == pytest.approx([lin(g.centroid)] * 2, rel=1e-13)
    smooth = lambda p: np.sin(math.pi * p[..., 0])
    dense_bary, dense_w = simplex_rule(2, 20)
    oracle = float(dense_w @ smooth(map_to_physical(g.vertices, dense_bary)))
    interior = interpolate_field(mesh, as_vec(smooth), interior_degree=12).interior[0]
    assert interior == pytest.approx([oracle] * 2, abs=1e-10)


def test_interpolate_field_shapes():
    mesh = generate_structured_tri(2)
    f = interpolate_field(mesh, lambda p: p * [1.0, -1.0])
    assert f.interior.shape == (8, 2)
    assert f.facet.shape == (len(mesh.interior_facets), 2)
    assert f.boundary.shape == (len(mesh.boundary_facets), 2)
