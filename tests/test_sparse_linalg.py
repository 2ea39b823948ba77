"""Exact A-block inverse: static condensation and sparse LU of the scalar
stiffness, applied to every velocity component at once."""

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


def relres(a, x, r):
    """Relative residual of x against kron(a, I_d), d = len(r) / a.shape[0]."""
    d = len(r) // a.shape[0]
    ax = (a @ x.reshape(-1, d)).ravel()
    return np.linalg.norm(ax - r) / np.linalg.norm(r)


@pytest.fixture
def factored(monkeypatch):
    """Record the matrix InnerSolver hands to splu, and the factor it gets back."""
    seen = {}

    def splu(m, **kwargs):
        seen["schur"] = m
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
def test_inner_solver_reduces_assembled_stiffness(mesh):
    a = assemble_A(mesh)
    dof = build_dofmap(mesh)
    inner = InnerSolver(a)
    assert inner.ni == dof.num_elements
    r = np.random.default_rng(7).normal(size=mesh.dim * a.shape[0])
    assert relres(a, inner.solve(r), r) <= 1e-12


def test_inner_solver_general_spd_is_scalar_and_exact():
    n = 12
    rng = np.random.default_rng(5)
    off = rng.uniform(-1.0, 1.0, n - 1)
    diag = 2.5 + rng.uniform(0.0, 1.0, n)  # diagonally dominant, hence SPD
    a = sp.diags([off, diag, off], [-1, 0, 1], format="csr")
    inner = InnerSolver(a)
    assert inner.ni == 1
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
    # the nested-dissection facet numbering of the dof map, factored as
    # given, against minimum degree on the same matrix
    InnerSolver(assemble_A(jittered_mesh(3, 8, seed)))
    lu = factored["lu"]
    mmd = spla.splu(
        factored["schur"],
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    assert lu.L.nnz + lu.U.nnz <= 0.75 * (mmd.L.nnz + mmd.U.nnz)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_symmetric_ordering_cuts_fill_against_unsymmetric_defaults(factored, seed):
    InnerSolver(assemble_A(jittered_mesh(3, 8, seed)))
    lu = factored["lu"]
    thinned = factored["schur"].copy()
    thinned.eliminate_zeros()
    ref = spla.splu(thinned)  # COLAMD and partial pivoting
    assert lu.L.nnz + lu.U.nnz <= 0.6 * (ref.L.nnz + ref.U.nnz)
