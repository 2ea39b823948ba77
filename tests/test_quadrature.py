"""Quadrature rules against closed-form barycentric monomial integrals.

On any d-simplex K,  integral_K prod_i lam_i^(a_i) dx
    = d! |K| * prod_i a_i! / (sum_i a_i + d)!
which gives an exact oracle for every rule at every stated degree.
"""

import itertools
import math

import numpy as np
import pytest

import scipy.special

from oracles import duffy_rule, map_to_physical
from wgstokes.quadrature import (
    conical_rule,
    facet_rule,
    gauss_jacobi_01,
    gauss_legendre_01,
    simplex_rule,
)


def bary_monomial_integral(alpha, volume):
    d = len(alpha) - 1
    num = math.factorial(d) * volume
    for a in alpha:
        num *= math.factorial(a)
    return num / math.factorial(sum(alpha) + d)


def multi_indices(ncoords, max_total):
    for alpha in itertools.product(range(max_total + 1), repeat=ncoords):
        if sum(alpha) <= max_total:
            yield alpha


def check_rule_exactness(bary, w, dim, degree, tol=1e-13):
    assert abs(w.sum() - 1.0) < 1e-14
    vol = 1.0 / math.factorial(dim)  # reference simplex
    for alpha in multi_indices(dim + 1, degree):
        vals = np.prod(bary ** np.array(alpha), axis=1)
        approx = vol * float(w @ vals)
        exact = bary_monomial_integral(alpha, vol)
        assert approx == pytest.approx(exact, abs=tol, rel=tol), (alpha, dim, degree)


@pytest.mark.parametrize(
    "dim,degree", [(2, 1), (2, 2), (2, 4), (2, 7), (3, 1), (3, 2), (3, 4), (3, 7)]
)
def test_simplex_rules_exact(dim, degree):
    bary, w = simplex_rule(dim, degree)
    check_rule_exactness(bary, w, dim, degree)


@pytest.mark.parametrize(
    "dim,degree,npts", [(2, 4, 6), (2, 5, 9), (2, 7, 16), (3, 3, 8), (3, 4, 27), (3, 7, 64)]
)
def test_simplex_rule_sizes(dim, degree, npts):
    # the load (degree 7) and the error norms (degree 4) pay per point
    assert simplex_rule(dim, degree)[0].shape == (npts, dim + 1)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_conical_rules_exact(dim, m):
    bary, w = conical_rule(dim, m)
    assert bary.shape == (m**dim, dim + 1)
    assert np.all(w > 0.0)
    assert np.all(bary >= 0.0)
    check_rule_exactness(bary, w, dim, 2 * m - 1)


@pytest.mark.parametrize("alpha", [0, 1, 2])
@pytest.mark.parametrize("npts", [1, 2, 3, 4, 5, 6, 8])
def test_gauss_jacobi_matches_scipy(alpha, npts):
    x, w = gauss_jacobi_01(npts, alpha)
    # scipy: nodes on (-1, 1) for the weight (1 - t)^alpha; t = 2u - 1
    t, wt = scipy.special.roots_jacobi(npts, alpha, 0.0)
    assert np.allclose(x, 0.5 * (t + 1.0), rtol=0.0, atol=1e-14)
    assert np.allclose(w, wt / 2.0 ** (alpha + 1), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_duffy_rules_exact(dim, m):
    bary, w = duffy_rule(dim, m)
    check_rule_exactness(bary, w, dim, 2 * m - dim)


@pytest.mark.parametrize("degree", [1, 2, 3, 5, 7])
def test_segment_rules_exact(degree):
    bary, w = simplex_rule(1, degree)
    x = bary[:, 1]
    for k in range(degree + 1):
        assert float(w @ x**k) == pytest.approx(1.0 / (k + 1), rel=1e-14)


@pytest.mark.parametrize("dim,degree", [(2, 2), (2, 4), (3, 2), (3, 4)])
def test_facet_rules_match_lower_dim(dim, degree):
    bf, wf = facet_rule(dim, degree)
    bs, ws = simplex_rule(dim - 1, degree)
    assert np.array_equal(bf, bs)
    assert np.array_equal(wf, ws)


def test_gauss_legendre_01():
    x, w = gauss_legendre_01(4)
    for k in range(8):
        assert float(w @ x**k) == pytest.approx(1.0 / (k + 1), rel=1e-14)


def test_affine_invariance_of_barycentric_integrals():
    # value of int_K prod lam^a depends on the simplex only through |K|
    rng = np.random.default_rng(7)
    for dim in (2, 3):
        verts = rng.normal(size=(dim + 1, dim))
        vol = abs(np.linalg.det(verts[1:] - verts[0])) / math.factorial(dim)
        assert vol > 0
        bary, w = duffy_rule(dim, 6)
        pts = map_to_physical(verts, bary)
        assert pts.shape == (len(w), dim)
        for alpha in [(2, 1, 0) + (0,) * (dim - 2), (1,) * (dim + 1)]:
            vals = np.prod(bary ** np.array(alpha), axis=1)
            approx = vol * float(w @ vals)
            exact = bary_monomial_integral(alpha, vol)
            assert approx == pytest.approx(exact, rel=1e-12)

