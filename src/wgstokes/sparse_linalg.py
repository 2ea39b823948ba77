"""Exact inverse of the velocity stiffness block A.

Two structural facts make one sparse LU enough:

- ``A == kron(A_s, I_d)``: the d velocity components decouple and share one
  scalar matrix ``A_s``, so one factorization serves all components at once
  as a multi-right-hand-side solve.
- The interior-interior block of ``A_s`` is diagonal (an interior unknown
  couples only to its own element's facets). Eliminating the interior
  unknowns leaves the Schur complement ``S = F - C^T D^{-1} C`` on the
  interior facets; this is static condensation (Cockburn, Gopalakrishnan &
  Lazarov, SINUM 2009).

``S`` is symmetric positive definite, as a Schur complement of the SPD
``A_s``, and is factored once as such: ``splu`` in SuperLU's symmetric mode
(X. S. Li, ACM TOMS 31, 2005), with a multiple minimum degree ordering of
``S + S^T`` (J. W. H. Liu, ACM TOMS 11, 1985) and no pivoting, which an SPD
matrix does not need. ``S`` is stored on its element pattern, one entry for
every pair of interior facets that share an element, with the exact zeros
that right-angled elements give kept on purpose: minimum degree orders the
thinned pattern worse than COLAMD does, while on the element pattern it
needs about a third of COLAMD's fill on perturbed 3D meshes.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["InnerSolver"]

DENSE_GUARD = 2000  # cubic-cost eigensolves are for verification scale only


class InnerSolver:
    """Reusable exact A^{-1}: Kronecker reduction, static condensation, sparse LU."""

    def __init__(self, a):
        a = sp.csr_matrix(a)
        if a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        if (abs(a - a.T) > 1e-12 * max(1.0, abs(a).max())).nnz:
            raise ValueError("matrix must be symmetric")
        if np.any(a.diagonal() <= 0):
            raise ValueError("matrix must have positive diagonal")
        n = a.shape[0]
        self.d = next(
            d for d in (3, 2, 1)
            if n % d == 0 and (a != sp.kron(a[::d, ::d], sp.identity(d), "csr")).nnz == 0
        )
        a_s = a[:: self.d, :: self.d].tocsr()
        # the rows before the first one with an entry left of the diagonal
        # have none, so by symmetry they form a diagonal leading block; with
        # no such row at all, ni = 0 and the LU covers all of A_s
        has_lower = np.diff(sp.tril(a_s, -1, "csr").indptr) > 0
        self.ni = ni = int(np.argmax(has_lower))
        self._dinv = 1.0 / a_s.diagonal()[:ni]
        self._c = a_s[:ni, ni:].tocsr()
        self._ct = self._c.T  # a view on the arrays of _c, built once
        # S = F - C^T D^{-1} C summed as triplets, plus a zero for every pair
        # of facets that share an element: sparse - and @ would drop the
        # exact cancellations, a pattern MMD orders badly (module docstring)
        c_abs = abs(self._c)
        parts = [
            a_s[ni:, ni:].tocoo(),
            (-(self._ct @ sp.diags(self._dinv) @ self._c)).tocoo(),
            (0.0 * (c_abs.T @ c_abs)).tocoo(),
        ]
        data, row, col = (
            np.concatenate([getattr(m, k) for m in parts]) for k in ("data", "row", "col")
        )
        # this constructor sums duplicates and keeps the zeros
        schur = sp.csc_matrix((data, (row, col)), shape=parts[0].shape)
        self._lu = spla.splu(
            schur,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
        # always 0 for an exact solve; kept because perfbench's traced replay reads it
        self.total_iterations = 0

    def solve(self, r: np.ndarray) -> np.ndarray:
        """Apply A^{-1} to a vector, all d components in one solve."""
        ni = self.ni
        rs = np.asarray(r, dtype=float).reshape(-1, self.d)
        ri = self._dinv[:, None] * rs[:ni]
        xf = self._lu.solve(rs[ni:] - self._ct @ ri)
        xi = ri - self._dinv[:, None] * (self._c @ xf)
        return np.concatenate([xi, xf]).reshape(-1)
