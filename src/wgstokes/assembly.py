"""Global assembly of the velocity stiffness block, the divergence block and
the right-hand sides of the singular saddle system.

The assembled saddle system is kept in the rescaled form

    [ A   -B^T ] [ mu*u ]   [ b1      ]
    [ -B    0  ] [  p   ] = [ mu*b2~  ]

whose blocks are independent of the viscosity; the solver unscales the
velocity on return. The pressure equations sum to the total boundary flux
of the projected datum (alpha), which is generally nonzero; subtracting
alpha/N from each entry (b2~) puts the right-hand side into the range of
the operator. `SaddleSystem.rhs` applies this fix, and nothing else does.

Unknown ordering: interior velocity values (element-major, component-minor),
then interior-facet values (facet-major, component-minor). The components
decouple, so the velocity block is ``kron(A, I_d)`` with the scalar
stiffness ``A`` (one row per element and interior facet) that `SaddleSystem`
holds. Boundary facet values are eliminated at assembly time and their
stiffness coupling moves into b1.

The interior facets are numbered in nested-dissection order (A. George,
SINUM 10, 1973), not in `mesh.interior_facets` order: `DofMap.facet_slot`
maps one to the other, and `SaddleSystem.split` maps facet values back. The
facet Schur complement of A couples only facets that share an element, so
the facets between two halves of the elements separate its graph exactly.
The system keeps the parts of b1 that do not depend on the viscosity
(`LoadParts`) and forms b1 from them, so ``dataclasses.replace(system,
mu=...)`` is the system at another viscosity. The build makes neither the
load parts nor the factor of A: each is made once, when first read, and
every system derived from a build shares both, so work that never reads the
factor (`export_system`, an unpreconditioned solve) never factors. A
preconditioned solve queues the load parts on one worker thread and factors
A on its own thread, so the two largest setup stages overlap. In studies
the same worker runs every viscosity's solve but the last (`each_viscosity`).

Every block is built from the mesh's per-element arrays and the dof map's
element-to-dof table: local blocks for all elements at once, then one
scatter per block.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh
from .problems import StokesProblem, boundary_compatibility, evaluate_batch, facet_means
from .quadrature import simplex_rule
from .sparse_linalg import InnerSolver
from .wg_core import facet_projection_rule, lifting_matrix

__all__ = [
    "DofMap",
    "LoadParts",
    "SaddleSystem",
    "build_dofmap",
    "local_gram_matrices",
    "assemble_A",
    "assemble_B",
    "assemble_b1",
    "assemble_b2",
    "project_boundary_values",
    "build_saddle_system",
    "each_viscosity",
    "export_system",
]


@dataclass(frozen=True)
class DofMap:
    """Bijection from (entity, component) pairs onto [0, n_u): d*row + component."""

    dim: int
    num_elements: int
    facet_slot: np.ndarray  # global facet -> nested-dissection position, -1 if boundary
    elem_dofs: np.ndarray  # (ne, d+2) row of A of local basis 0..d+1, -1 if eliminated
    n_interior: int
    n_facet: int

    @property
    def n_u(self) -> int:
        return self.n_interior + self.n_facet

    @cached_property
    def velocity_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(kept, rows): the (ne, d+2, d) mask of the (element, local basis,
        component) slots that are unknowns, and their rows, in mask order."""
        base = self.elem_dofs[..., None]
        kept = np.repeat(base >= 0, self.dim, axis=2)
        return kept, (self.dim * base + np.arange(self.dim))[kept]


# parts of at most this many elements are not bisected further; 4 to 8 give
# the least fill at 2D n=64 and 3D n=12, smaller parts only add levels
_ND_LEAF = 6


def _nested_dissection(mesh: Mesh) -> np.ndarray:
    """Position of each interior facet, in `mesh.interior_facets` order, in a
    nested-dissection order of the facets.

    The elements are bisected recursively at the median centroid along each
    part's longest extent. The facets whose two elements land on different
    sides are that part's separator and come after both halves. Each level
    is one sort of all elements by (part, rank along the part's axis), keys
    with no ties, so no stable sort is needed, and there is no loop over the
    parts. Only the final sort of the facets, whose keys tie, is stable.
    """
    ne, d = mesh.num_elements, mesh.dim
    cent = mesh.elem_centroids
    # rank of each centroid coordinate among all elements, ties broken by
    # element id: (part, rank) then packs into one integer key with no ties
    rank = np.empty(cent.shape, dtype=np.int64)
    np.put_along_axis(
        rank, np.argsort(cent, axis=0, kind="stable"), np.arange(ne)[:, None], axis=0
    )
    rank = rank.ravel()  # coordinate a of element e at e*d + a
    e0, e1 = np.ascontiguousarray(mesh.facet_elems[mesh.interior_facets].T)
    position = np.arange(ne)
    order = position  # elements, each part in one contiguous run
    starts = np.zeros(1, dtype=np.int64)  # first position of each part in order
    side = np.empty(ne, dtype=np.int64)
    together = np.ones(len(e0), dtype=bool)
    # base-3 digits, one per level: 0 or 1 for the half that holds both
    # elements, 2 once they are apart or their part is a leaf, so each
    # separator sorts after both of its halves
    key = np.zeros(len(e0), dtype=np.int64)
    while True:
        sizes = np.diff(starts, append=ne)
        split = sizes > _ND_LEAF
        if not split.any():
            break
        part = np.repeat(np.arange(len(starts)), sizes)
        pts = np.take(cent, order, axis=0)
        extent = np.maximum.reduceat(pts, starts) - np.minimum.reduceat(pts, starts)
        along = np.take(rank, order * d + np.take(np.argmax(extent, axis=1), part))
        along += part * ne
        # the keys are unique, so any sort gives the same order
        order = np.take(order, np.argsort(along))
        half = starts + sizes // 2
        side[order] = np.where(np.take(split, part), position >= np.take(half, part), 2)
        s0, s1 = np.take(side, e0), np.take(side, e1)
        together &= s0 == s1
        key *= 3
        key += np.where(together, s0, 2)
        starts = np.sort(np.concatenate((starts, half[split])))
    slots = np.empty(len(e0), dtype=np.int64)
    slots[np.argsort(key, kind="stable")] = np.arange(len(e0))
    return slots


def build_dofmap(mesh: Mesh) -> DofMap:
    d, ne = mesh.dim, mesh.num_elements
    facet_slot = np.full(mesh.num_facets, -1, dtype=np.int64)
    facet_slot[mesh.interior_facets] = _nested_dissection(mesh)
    facet_row = np.where(facet_slot >= 0, ne + facet_slot, -1)
    return DofMap(
        dim=d,
        num_elements=ne,
        facet_slot=facet_slot,
        elem_dofs=np.column_stack([np.arange(ne), facet_row[mesh.elem_facets]]),
        n_interior=ne * d,
        n_facet=len(mesh.interior_facets) * d,
    )


def local_gram_matrices(mesh: Mesh) -> np.ndarray:
    """Exact (d+2)x(d+2) Gram matrix of the weak-gradient basis of one scalar
    unknown, for every element: (ne, d+2, d+2).

    Index 0 is the interior basis function, 1..d+1 the facet ones. Each basis
    gradient is a + b*(x - x_K); cross moments vanish, so the integral is
    a_p.a_q |K| + b_p b_q m_K with no quadrature error.
    """
    d, ne = mesh.dim, mesh.num_elements
    vol = mesh.elem_volumes[:, None, None]
    scale = mesh.elem_grad_scales[:, None]
    a = np.zeros((ne, d + 2, d))
    a[:, 1:] = mesh.elem_facet_measures[..., None] * mesh.elem_normals / vol
    b = np.concatenate([-scale, np.repeat(scale / (d + 1), d + 1, axis=1)], axis=1)
    return (a @ a.transpose(0, 2, 1)) * vol + (
        b[:, :, None] * b[:, None, :] * mesh.elem_second_moments[:, None, None]
    )


def _scatter(shape, rows, cols, vals, keep) -> sp.csr_matrix:
    """Sum the kept (row, col, val) triples into a CSR matrix; inputs broadcast."""
    rows, cols, vals, keep = np.broadcast_arrays(rows, cols, vals, keep)
    m = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])), shape=shape).tocsr()
    m.sum_duplicates()
    return m


def assemble_A(mesh: Mesh, dof: DofMap | None = None) -> sp.csr_matrix:
    """Scalar stiffness: weak-gradient Gram summed over elements.

    Exactly symmetric by construction (symmetric local blocks, symmetric
    scatter); boundary facet columns are eliminated.
    """
    return _stiffness(dof or build_dofmap(mesh), local_gram_matrices(mesh))


def _stiffness(dof: DofMap, gram: np.ndarray) -> sp.csr_matrix:
    """`assemble_A` from the elements' Gram matrices."""
    live = dof.elem_dofs >= 0
    return _scatter(
        (dof.n_u // dof.dim,) * 2,
        dof.elem_dofs[:, :, None],
        dof.elem_dofs[:, None, :],
        gram,
        live[:, :, None] & live[:, None, :],
    )


def assemble_B(mesh: Mesh, dof: DofMap | None = None) -> sp.csr_matrix:
    """Divergence block: row K holds |e|*n components of the interior facets of K."""
    dof = dof or build_dofmap(mesh)
    base = dof.elem_dofs[:, 1:, None]  # (ne, d+1, 1)
    return _scatter(
        (len(base), dof.n_u),
        np.arange(len(base))[:, None, None],
        mesh.dim * base + np.arange(mesh.dim),
        mesh.elem_facet_measures[..., None] * mesh.elem_normals,
        base >= 0,
    )


def project_boundary_values(
    mesh: Mesh, problem: StokesProblem, qg_method: str = "barycenter"
) -> np.ndarray:
    """Projected boundary datum, one d-vector per boundary facet (mesh ordering)."""
    rule = facet_projection_rule(mesh.dim, qg_method)
    return facet_means(mesh, problem.velocity, mesh.boundary_facets, rule, "velocity")


def _local_boundary_values(mesh: Mesh, g_proj: np.ndarray) -> np.ndarray:
    """Projected datum on each element's local facets, zero on interior ones."""
    g = np.zeros((mesh.num_facets, mesh.dim))
    g[mesh.boundary_facets] = g_proj
    return g[mesh.elem_facets]  # (ne, d+1, d)


_FORCING_DEGREE = 7  # exactness degree of the forcing rule
_FORCING_POINTS = 8192  # points per forcing evaluation: the temporaries stay in cache


def _forcing_moments(mesh: Mesh, problem: StokesProblem) -> tuple[np.ndarray, np.ndarray]:
    """Per-element integral of each forcing term t and of t.(x - x_K).

    These two moments determine (t, w)_K for every w = a + b*(x - x_K), which
    is all the load assembly needs. A degree-7 rule (16 points per triangle,
    64 per tetrahedron) keeps the quadrature error far below the
    discretization error. A lower degree leaks a pressure-dependent
    perturbation into the velocity at small viscosities: on jittered 3D
    meshes with n = 4, 6, degree 5 raises the relative difference between
    the mu=1 and mu=1e-4 velocity errors from about 6e-7 to about 2e-6.
    Evaluating the terms on chunks of about 8192 points (128 tetrahedra)
    keeps each temporary within cache on any mesh: at jittered 3D n=12, on
    a 2-core VM with one BLAS thread, this took 64-72 ms against 81-94 ms
    with chunks of 1024 elements.
    """
    d = mesh.dim
    bary, w = simplex_rule(d, _FORCING_DEGREE)
    f0 = np.empty((mesh.num_elements, 2, d))
    f1 = np.empty((mesh.num_elements, 2))
    chunk = max(1, _FORCING_POINTS // len(w))
    for lo in range(0, mesh.num_elements, chunk):
        k = slice(lo, lo + chunk)
        pts = bary @ mesh.vertices[mesh.elements[k]]  # (nk, nq, d)
        tvals = evaluate_batch(problem.forcing_terms, pts, "forcing_terms", (2, d))
        rel = pts - mesh.elem_centroids[k, None, :]
        f0[k] = mesh.elem_volumes[k, None, None] * np.einsum("q,nqtd->ntd", w, tvals)
        f1[k] = mesh.elem_volumes[k, None] * np.einsum("q,nqtd,nqd->nt", w, tvals, rel)
    return f0, f1


@dataclass(frozen=True)
class LoadParts:
    """The parts of b1 that do not depend on the viscosity. `b1` combines
    the forcing moments per element before the lifting, so where the terms
    cancel (stokes2d_exp at mu=1) the load is exactly zero."""

    moments: np.ndarray  # (ne, 2, d) integrals of -Lap(u) and grad p
    radial_moments: np.ndarray  # (ne, 2) the same against x - x_K
    lifting_inv: np.ndarray  # (ne, d+1, d+1) inverse of each element's lifting matrix
    gram_datum: np.ndarray  # (ne, d+2, d) Gram columns of the local facets times the datum

    def b1(self, mu: float, mesh: Mesh, dof: DofMap) -> np.ndarray:
        """The momentum right-hand side at viscosity mu."""
        d = mesh.dim
        f0 = mu * self.moments[:, 0] + self.moments[:, 1]
        f1 = mu * self.radial_moments[:, 0] + self.radial_moments[:, 1]
        minv = self.lifting_inv
        # load responses: value of (f, lifting of unit trace on facet i)_K
        load = np.einsum("nci,nc->ni", minv[:, :d], f0) + minv[:, d] * f1[:, None]
        # eliminated boundary facets: -mu * sum_i gram[q, 1+i] * ghat_i
        local = -mu * self.gram_datum
        local[:, 1:] += load[..., None] * mesh.elem_normals
        kept, rows = dof.velocity_rows
        return np.bincount(rows, weights=local[kept], minlength=dof.n_u)


def _load_parts(
    mesh: Mesh, problem: StokesProblem, g_proj: np.ndarray, gram: np.ndarray
) -> LoadParts:
    f0, f1 = _forcing_moments(mesh, problem)
    lifting = lifting_matrix(mesh.elem_normals, mesh.elem_facet_measures, mesh.elem_volumes)
    ghat = _local_boundary_values(mesh, g_proj)
    return LoadParts(
        moments=f0,
        radial_moments=f1,
        lifting_inv=np.linalg.inv(lifting),
        gram_datum=np.einsum("nqi,nir->nqr", gram[:, :, 1:], ghat),
    )


def assemble_b1(
    mesh: Mesh,
    problem: StokesProblem,
    qg_method: str = "barycenter",
    dof: DofMap | None = None,
    g_proj: np.ndarray | None = None,
) -> np.ndarray:
    """Momentum right-hand side: lifted load plus boundary elimination.

    The load pairs f with the lifting of each facet test function, so
    interior velocity dofs receive no load at all; the boundary term moves
    the eliminated facet columns of the stiffness block to the right-hand
    side, scaled by the viscosity (`LoadParts`).
    """
    if g_proj is None:
        g_proj = project_boundary_values(mesh, problem, qg_method)
    parts = _load_parts(mesh, problem, g_proj, local_gram_matrices(mesh))
    return parts.b1(problem.mu, mesh, dof or build_dofmap(mesh))


def assemble_b2(
    mesh: Mesh,
    problem: StokesProblem,
    qg_method: str = "barycenter",
    g_proj: np.ndarray | None = None,
) -> np.ndarray:
    """Per-element boundary flux of the projected datum."""
    if g_proj is None:
        g_proj = project_boundary_values(mesh, problem, qg_method)
    ghat = _local_boundary_values(mesh, g_proj)
    flux = np.einsum("nid,nid->ni", ghat, mesh.elem_normals)
    return (mesh.elem_facet_measures * flux).sum(axis=1)


class _Once:
    """`make()`, made by the first call of `result` that succeeds and
    returned by every later one. A lock lets one call at a time make it, so
    threads that call together get one object; a call whose making raises
    stores nothing, and the next call makes it again.

    `queue` has `_WORKER` make it ahead of the first read. A read that finds
    that job still queued (say, a read from a task running on the worker)
    cancels it and makes it inline, so no read waits on a job queued behind
    itself."""

    def __init__(self, make):
        self._make = make
        self._lock = threading.Lock()
        self._value = None
        self._job = None

    def queue(self) -> None:
        # unlocked: a second job from a racing call finds the value made
        if self._value is None and self._job is None:
            self._job = _WORKER.submit(self.result)

    def result(self):
        if self._job is not None:
            self._job.cancel()
        with self._lock:
            if self._value is None:
                self._value = self._make()
                self._make = None  # frees what making it needed
            return self._value


@dataclass
class SaddleSystem:
    """Rescaled singular saddle system and everything needed to solve/verify it.

    alpha_h is formed from `b2` on construction and b1 from `load` and `mu`
    on first read, so ``dataclasses.replace(system, mu=...)`` gives the
    system at another viscosity, sharing every block, the load parts and the
    factor of A. The load parts and the factor are each made once, on first
    read; `solve_system` queues the load parts on the worker first, so they
    are formed there while the reading thread factors A.
    """

    mesh: Mesh
    dof: DofMap
    mu: float
    A: sp.csr_matrix  # scalar stiffness; the velocity block is kron(A, I_d)
    B: sp.csr_matrix
    b2: np.ndarray
    consistent: bool
    g_boundary: np.ndarray  # projected datum per boundary facet
    # what b1 is made of at any viscosity, and the factor of A; each a
    # `_Once` that replace() copies share
    load: _Once = field(compare=False, repr=False)
    factor: _Once = field(compare=False, repr=False)
    alpha_h: float = field(init=False)  # sum of b2, the boundary-flux defect; 0 iff consistent

    def __post_init__(self):
        if not 0 < self.mu < math.inf:
            raise ValueError("viscosity must be positive and finite")
        self.alpha_h = float(np.sum(self.b2))

    @cached_property
    def b1(self) -> np.ndarray:
        """The momentum right-hand side; raises what forming the load raised."""
        return self.load.result().b1(self.mu, self.mesh, self.dof)

    @property
    def Mp(self) -> np.ndarray:
        """Diagonal of the pressure mass matrix: the element measures."""
        return self.mesh.elem_volumes

    @property
    def n_u(self) -> int:
        return self.dof.n_u

    @property
    def n_p(self) -> int:
        return self.mesh.num_elements

    @property
    def inner(self) -> InnerSolver:
        """The factor of A, made by the first read on any thread; raises what
        factoring raised."""
        return self.factor.result()

    def rhs(self) -> np.ndarray:
        """[b1; mu*b2], with b2~ = b2 - alpha_h/N in place of b2 if `consistent`."""
        b2 = self.b2 - self.alpha_h / self.n_p if self.consistent else self.b2
        return np.concatenate([self.b1, self.mu * b2])

    @cached_property
    def _Bt(self) -> sp.csc_matrix:
        # a CSR matrix's transpose is a CSC view of the same arrays; kept so
        # the Krylov loop does not build a new one on every product
        return self.B.T

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Operator product [kron(A, I_d), -B^T; -B, 0] x."""
        au = self.A @ x[: self.n_u].reshape(-1, self.dof.dim)
        return self.apply_given(x, au.ravel())

    def apply_given(self, x: np.ndarray, au: np.ndarray) -> np.ndarray:
        """`apply(x)` given ``au = kron(A, I_d) x_u``, with no stiffness product."""
        n_u = self.n_u
        y = np.empty(len(x))
        np.subtract(au, self._Bt @ x[n_u:], out=y[:n_u])
        np.negative(self.B @ x[:n_u], out=y[n_u:])
        return y

    def split(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unscaled (interior velocity, facet velocity, pressure) from a solution
        vector; the facet rows follow `mesh.interior_facets`."""
        d = self.dof.dim
        u = x[: self.n_u] / self.mu
        interior = u[: self.dof.n_interior].reshape(self.dof.num_elements, d)
        slots = self.dof.facet_slot[self.mesh.interior_facets]
        facet = u[self.dof.n_interior :].reshape(-1, d)[slots]
        return interior, facet, x[self.n_u :].copy()


# the one worker: it forms a system's load parts while the solving thread
# factors A (`_Once.queue`), and in studies it runs every viscosity's solve
# but the last. SuperLU and numpy release the GIL, so the two overlap
_WORKER = ThreadPoolExecutor(max_workers=1)


def build_saddle_system(
    mesh: Mesh,
    problem: StokesProblem,
    qg_method: str = "barycenter",
    consistent: bool = True,
) -> SaddleSystem:
    if problem.dim != mesh.dim:
        raise ValueError(f"problem is {problem.dim}D but mesh is {mesh.dim}D")
    compat = boundary_compatibility(problem, mesh)
    if abs(compat) > 1e-8:
        raise ValueError(
            f"boundary datum violates the compatibility condition: "
            f"integral of g.n = {compat:.3e}"
        )
    dof = build_dofmap(mesh)
    g_proj = project_boundary_values(mesh, problem, qg_method)
    gram = local_gram_matrices(mesh)
    a = _stiffness(dof, gram)
    b = assemble_B(mesh, dof)
    return SaddleSystem(
        mesh=mesh,
        dof=dof,
        mu=problem.mu,
        A=a,
        B=b,
        b2=assemble_b2(mesh, problem, qg_method, g_proj),
        consistent=consistent,
        g_boundary=g_proj,
        load=_Once(lambda: _load_parts(mesh, problem, g_proj, gram)),
        factor=_Once(lambda: InnerSolver(a)),
    )


def each_viscosity(
    mesh: Mesh, problem: StokesProblem, mu_values, qg_method: str, consistent: bool, task
) -> list:
    """`task(system)` for each viscosity's system on `mesh`, in `mu_values` order.

    One build; the other systems are ``replace(system, mu=mu)`` and share
    its A, B, load parts and factor. The load parts are queued on the worker
    first, so it forms them while the first solve to read the factor makes
    it; the other tasks wait for each. Every task but the last then runs on
    the worker while this thread derives the next system, and the last runs
    here. Every task has finished when this returns or raises, and an
    exception from either thread reaches the caller.
    """
    system = build_saddle_system(mesh, problem.with_mu(mu_values[0]), qg_method, consistent)
    system.load.queue()
    pending = []
    try:
        for mu in mu_values[1:]:
            pending.append(_WORKER.submit(task, system))
            system = replace(system, mu=mu)
        last = task(system)
    finally:
        done = [f.result() for f in pending]
    return done + [last]


def export_system(system: SaddleSystem) -> dict[str, sp.coo_matrix]:
    """kron(A, I_d), B and the right-hand side (one column) in coordinate
    form, keyed "A", "B" and "rhs"; the rows of each are in row-major order."""
    return {
        "A": sp.kron(system.A, sp.identity(system.dof.dim), "csr").tocoo(),
        "B": system.B.tocoo(),
        "rhs": sp.coo_matrix(system.rhs().reshape(-1, 1)),
    }
