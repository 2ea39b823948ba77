"""Exact A-block inverse: Kronecker reduction, static condensation, sparse LU."""

import numpy as np
import pytest
import scipy.sparse as sp

from wgstokes.assembly import assemble_A, build_dofmap
from wgstokes.mesh import generate_structured_tet, generate_structured_tri
from wgstokes.sparse_linalg import InnerSolver


def relres(a, x, r):
    return np.linalg.norm(a @ x - r) / np.linalg.norm(r)


@pytest.mark.parametrize(
    "mesh", [generate_structured_tri(4), generate_structured_tet(2)], ids=["2d-4", "3d-2"]
)
def test_inner_solver_reduces_assembled_stiffness(mesh):
    a = assemble_A(mesh)
    dof = build_dofmap(mesh)
    inner = InnerSolver(a)
    assert inner.d == mesh.dim
    assert inner.ni == dof.n_interior // mesh.dim
    r = np.random.default_rng(7).normal(size=a.shape[0])
    assert relres(a, inner.solve(r), r) <= 1e-12


def test_inner_solver_general_spd_is_scalar_and_exact():
    n = 12
    rng = np.random.default_rng(5)
    off = rng.uniform(-1.0, 1.0, n - 1)
    diag = 2.5 + rng.uniform(0.0, 1.0, n)  # diagonally dominant, hence SPD
    a = sp.diags([off, diag, off], [-1, 0, 1], format="csr")
    inner = InnerSolver(a)
    assert inner.d == 1
    assert inner.ni == 1
    r = rng.normal(size=n)
    assert relres(a, inner.solve(r), r) <= 1e-12


def test_inner_solver_rejects_bad_input():
    with pytest.raises(ValueError, match="square"):
        InnerSolver(sp.csr_matrix(np.ones((2, 3))))
    with pytest.raises(ValueError, match="symmetric"):
        InnerSolver(sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 2.0]])))
    with pytest.raises(ValueError, match="positive diagonal"):
        InnerSolver(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]])))
