"""Exact A-block inverse: one sparse LU of the scalar stiffness in the dof
map's order, applied to every velocity component at once."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from oracles import jittered_mesh
from wgstokes import sparse_linalg
from wgstokes.assembly import assemble_A, build_dofmap
from wgstokes.mesh import generate_structured_tet, generate_structured_tri
from wgstokes.sparse_linalg import InnerSolver


SYMMETRIC = {"diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}


def relres(a, x, r):
    """Relative residual of x against kron(a, I_d), d = len(r) / a.shape[0]."""
    d = len(r) // a.shape[0]
    ax = (a @ x.reshape(-1, d)).ravel()
    return np.linalg.norm(ax - r) / np.linalg.norm(r)


def fill(lu):
    return lu.L.nnz + lu.U.nnz


def condensed_fill(a, ni):
    """Fill of the factor of a whose first ni rows form a diagonal block, had
    they been eliminated by hand: L+U of the Schur complement
    S = F - C^T D^-1 C in its given order, plus one column of L and one row
    of U, diagonal included, per eliminated row."""
    a = sp.csr_matrix(a)
    c = a[:ni, ni:]
    schur = a[ni:, ni:] - c.T @ sp.diags(1.0 / a.diagonal()[:ni]) @ c
    lu = spla.splu(schur.tocsc(), permc_spec="NATURAL", **SYMMETRIC)
    return fill(lu) + 2 * (ni + c.nnz)


@pytest.fixture
def factored(monkeypatch):
    """Record the matrix InnerSolver hands to splu, and the factor it gets back."""
    seen = {}

    def splu(m, **kwargs):
        seen["matrix"] = m
        seen["lu"] = spla.splu(m, **kwargs)
        return seen["lu"]

    monkeypatch.setattr(sparse_linalg, "spla", SimpleNamespace(splu=splu))
    return seen


@pytest.mark.parametrize(
    "mesh",
    [
        generate_structured_tri(4),
        generate_structured_tet(2),
        generate_structured_tet(4),
        jittered_mesh(3, 4, seed=11),
    ],
    ids=["2d-4", "3d-2", "3d-4", "3d-4-jittered"],
)
def test_inner_solver_reduces_assembled_stiffness(factored, mesh):
    # the interior rows come first with a diagonal block, so eliminating
    # them fills no entry outside the facet Schur complement
    a = assemble_A(mesh)
    dof = build_dofmap(mesh)
    inner = InnerSolver(a)
    assert fill(factored["lu"]) <= condensed_fill(a, dof.num_elements)
    r = np.random.default_rng(7).normal(size=mesh.dim * a.shape[0])
    assert relres(a, inner.solve(r), r) <= 1e-12


def test_inner_solver_general_spd_is_scalar_and_exact(factored):
    n = 12
    rng = np.random.default_rng(5)
    off = rng.uniform(-1.0, 1.0, n - 1)
    diag = 2.5 + rng.uniform(0.0, 1.0, n)  # diagonally dominant, hence SPD
    a = sp.diags([off, diag, off], [-1, 0, 1], format="csr")
    inner = InnerSolver(a)
    assert fill(factored["lu"]) <= condensed_fill(a, 1)
    for d in (1, 2, 3):
        r = rng.normal(size=d * n)
        assert relres(a, inner.solve(r), r) <= 1e-12


def test_inner_solver_rejects_bad_input():
    with pytest.raises(ValueError, match="square"):
        InnerSolver(sp.csr_matrix(np.ones((2, 3))))
    with pytest.raises(ValueError, match="symmetric"):
        InnerSolver(sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 2.0]])))
    with pytest.raises(ValueError, match="positive diagonal"):
        InnerSolver(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]])))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_facet_order_cuts_fill_against_minimum_degree(factored, seed):
    # the dof map's order, interior rows then facets in nested dissection,
    # factored as given, against minimum degree on the same matrix
    InnerSolver(assemble_A(jittered_mesh(3, 8, seed)))
    mmd = spla.splu(factored["matrix"], permc_spec="MMD_AT_PLUS_A", **SYMMETRIC)
    assert fill(factored["lu"]) <= 0.75 * fill(mmd)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_symmetric_ordering_cuts_fill_against_unsymmetric_defaults(factored, seed):
    InnerSolver(assemble_A(jittered_mesh(3, 8, seed)))
    thinned = factored["matrix"].copy()
    thinned.eliminate_zeros()
    ref = spla.splu(thinned)  # COLAMD and partial pivoting
    assert fill(factored["lu"]) <= 0.6 * fill(ref)


@pytest.mark.parametrize("dim,n", [(3, 3), (2, 8)], ids=["3d-n3-jittered", "2d-n8-jittered"])
def test_threads_share_one_factor(dim, n):
    # studies solve a mesh's viscosities on two threads against one factor;
    # each thread must get bitwise what one thread alone gets. Three threads
    # switching often make overlapping solves likely
    mesh = jittered_mesh(dim, n, 4)
    dof = build_dofmap(mesh)
    inner = InnerSolver(assemble_A(mesh, dof))
    rhs = np.random.default_rng(7).standard_normal((100, dof.n_u))
    alone = [inner.solve(r) for r in rhs]
    start = threading.Barrier(3)

    def run(shift):
        start.wait(timeout=30)
        order = np.roll(np.arange(len(rhs)), shift)  # each thread starts elsewhere
        return {k: inner.solve(rhs[k]) for k in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            runs = [pool.submit(run, shift) for shift in (0, 33, 67)]
            results = [f.result(timeout=60) for f in runs]
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        assert len(got) == len(rhs)
        assert all(np.array_equal(got[k], alone[k]) for k in range(len(rhs)))
