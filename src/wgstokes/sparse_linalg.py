"""Exact inverse of the velocity stiffness block A.

Two structural facts make one sparse LU enough:

- ``A == kron(A_s, I_d)``: the d velocity components decouple and share one
  scalar matrix ``A_s``, so one factorization serves all components at once
  as a multi-right-hand-side solve.
- The interior-interior block of ``A_s`` is diagonal (an interior unknown
  couples only to its own element's facets). Eliminating the interior
  unknowns leaves the Schur complement ``S = F - C^T D^{-1} C`` on the
  interior facets; this is static condensation (Cockburn, Gopalakrishnan &
  Lazarov, SINUM 2009). ``S`` is factored once with ``splu``.
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
        schur = a_s[ni:, ni:] - self._c.T @ sp.diags(self._dinv) @ self._c
        self._lu = spla.splu(schur.tocsc())
        # always 0 for an exact solve; kept because perfbench's traced replay reads it
        self.total_iterations = 0

    def solve(self, r: np.ndarray) -> np.ndarray:
        """Apply A^{-1} to a vector, all d components in one solve."""
        ni = self.ni
        rs = np.asarray(r, dtype=float).reshape(-1, self.d)
        ri = self._dinv[:, None] * rs[:ni]
        xf = self._lu.solve(rs[ni:] - self._c.T @ ri)
        xi = ri - self._dinv[:, None] * (self._c @ xf)
        return np.concatenate([xi, xf]).reshape(-1)
