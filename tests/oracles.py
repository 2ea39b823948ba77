"""Independent brute-force oracles used by unit and acceptance tests.

The oracles compute from raw vertex coordinates and quadrature alone. They
read the mesh's connectivity (vertices, elements, facets, interior facets),
never its per-element geometry arrays, and nothing from `wgstokes.wg_core`:

- each weak gradient is solved from its defining relation
  (grad_w v, q)_K = -(v_0, div q)_K + <v_b, q.n>_dK for all q in RT0(K),
  with the Gram matrix of the RT0 basis {e_1, ..., e_d, x - V[0]} by volume
  quadrature and the facet terms by facet quadrature;
- the lifting solves its trace conditions with facet means computed by
  quadrature, not with the closed-form constant (x - x_K).n_i;
- facet normals and measures are recomputed from each element's vertices;
- the mesh topology is rebuilt from the elements alone, with `np.unique`
  numbering and the adjacent elements collected facet by facet.

Dofs are numbered from the ordering documented in `wgstokes.assembly`:
interior values element-major, then interior-facet values, component-minor.
The facets take their positions from `build_dofmap(mesh).facet_slot`, the
one numbering the oracles share with the code they check; `_facet_dofs` is
the only place that reads it.

Two helpers here are references rather than oracles: `interpolate_field`,
which builds a `WGField` from a function by local averaging, and the plain
Krylov loops `reference_minres` and `reference_gmres_restart`.
"""

import math
import time

import numpy as np
from numpy.polynomial.legendre import leggauss

from wgstokes.assembly import SaddleSystem, build_dofmap
from wgstokes.krylov import _MINRES_TRI, SaddlePreconditioner, SolveReport
from wgstokes.mesh import Mesh, structured_simplex_mesh
from wgstokes.problems import evaluate_batch, facet_means
from wgstokes.quadrature import facet_rule, simplex_rule
from wgstokes.wg_core import WGField


def map_to_physical(vertices, bary):
    """Barycentric points -> physical coordinates of the simplex with these vertices."""
    return np.asarray(bary) @ np.asarray(vertices)


def duffy_rule(dim, m):
    """Collapsed tensor Gauss rule on the unit simplex.

    Uses the Duffy transform of the m^dim tensor Gauss-Legendre rule, with
    the Jacobian of the collapse multiplied into the weights. Exact for
    polynomials of total degree <= 2*m - dim.

    Returns (bary, w) with bary of shape (m**dim, dim+1), weights sum to 1.
    """
    x1, w1 = leggauss(m)
    x1, w1 = 0.5 * (x1 + 1.0), 0.5 * w1
    if dim == 2:
        u, v = np.meshgrid(x1, x1, indexing="ij")
        wu, wv = np.meshgrid(w1, w1, indexing="ij")
        x = u.ravel()
        y = (v * (1.0 - u)).ravel()
        # Jacobian of (u,v) -> (x,y) is (1-u); reference triangle area 1/2.
        w = (wu * wv * (1.0 - u)).ravel()
        bary = np.column_stack([1.0 - x - y, x, y])
        return bary, w / 0.5
    u, v, s = np.meshgrid(x1, x1, x1, indexing="ij")
    wu, wv, ws = np.meshgrid(w1, w1, w1, indexing="ij")
    x = u
    y = v * (1.0 - u)
    z = s * (1.0 - u) * (1.0 - v)
    w = wu * wv * ws * (1.0 - u) ** 2 * (1.0 - v)
    bary = np.column_stack(
        [(1.0 - x - y - z).ravel(), x.ravel(), y.ravel(), z.ravel()]
    )
    return bary, w.ravel() / (1.0 / 6.0)


def jittered_mesh(dim, n, seed):
    """Structured unit-square or unit-cube mesh with interior vertices moved
    by up to 0.1*h per coordinate."""
    base = structured_simplex_mesh(dim, n)
    vertices = base.vertices.copy()
    interior = np.all((vertices > 0.0) & (vertices < 1.0), axis=1)
    step = 0.1 / n
    rng = np.random.default_rng(seed)
    vertices[interior] += rng.uniform(-step, step, size=(int(interior.sum()), dim))
    return Mesh(vertices, base.elements)


def mesh_topology_oracle(elements, vertices):
    """Facet topology, facet normals and element diameters, built the way
    `Mesh` built them before it numbered facets with one lexicographic sort.

    Facets are numbered by `np.unique(..., axis=0)` of the sorted local
    facets. The elements of each facet are collected facet by facet and
    ordered by id. Each normal is computed on its own and turned away from
    the vertex of the facet's first element that is not on the facet. A
    diameter is the largest of all (d+1)^2 vertex distances of its element.
    """
    elements = np.asarray(elements)
    V = np.asarray(vertices, dtype=float)
    ne, d = elements.shape[0], elements.shape[1] - 1
    local = np.array([np.delete(e, i) for e in elements for i in range(d + 1)])
    facets, inverse = np.unique(np.sort(local, axis=1), axis=0, return_inverse=True)
    elem_facets = inverse.reshape(ne, d + 1)
    owners = [[] for _ in facets]
    for k in range(ne):
        for f in elem_facets[k]:
            owners[f].append(k)
    facet_elems = np.array([sorted(o) + [-1] * (2 - len(o)) for o in owners])
    normals = np.empty((len(facets), d))
    for f, (on, k) in enumerate(zip(facets, facet_elems[:, 0])):
        fv = V[on]
        t = fv[1:] - fv[0]
        n = np.array([t[0, 1], -t[0, 0]]) if d == 2 else np.cross(t[0], t[1])
        n /= np.sqrt((n * n).sum())
        off = V[np.setdiff1d(elements[k], on)[0]] - fv[0]
        normals[f] = -n if n @ off > 0 else n
    ev = V[elements]
    diameters = np.array(
        [np.sqrt(((v[:, None] - v[None]) ** 2).sum(-1)).max() for v in ev]
    )
    return {
        "facets": facets,
        "elem_facets": elem_facets,
        "facet_elems": facet_elems,
        "boundary_facets": np.flatnonzero(facet_elems[:, 1] < 0),
        "interior_facets": np.flatnonzero(facet_elems[:, 1] >= 0),
        "facet_normals": normals,
        "elem_diameters": diameters,
    }


def simplex_volume(V):
    """Volume of the simplex with vertex rows V."""
    d = V.shape[1]
    return abs(np.linalg.det(V[1:] - V[0])) / math.factorial(d)


def facet_geometry(V):
    """Outward unit normals and measures of the facets of the simplex V.

    Facet i is the one opposite vertex i.
    """
    d = V.shape[1]
    normals, measures = np.empty((d + 1, d)), np.empty(d + 1)
    for i in range(d + 1):
        fv = np.delete(V, i, axis=0)
        if d == 2:
            t = fv[1] - fv[0]
            n = np.array([t[1], -t[0]])
            measures[i] = np.linalg.norm(t)
        else:
            n = np.cross(fv[1] - fv[0], fv[2] - fv[0])
            measures[i] = 0.5 * np.linalg.norm(n)
        n /= np.linalg.norm(n)
        normals[i] = n if n @ (fv.mean(axis=0) - V[i]) > 0 else -n
    return normals, measures


def facet_points(V, i):
    """Gauss points and weights (summing to 1) on the facet opposite vertex i;
    exact to degree 7 on edges and 6 on triangles."""
    fv = np.delete(V, i, axis=0)
    if V.shape[1] == 2:
        x, w = leggauss(4)
        return np.outer(0.5 * (1.0 - x), fv[0]) + np.outer(0.5 * (1.0 + x), fv[1]), 0.5 * w
    bary, w = duffy_rule(2, 4)
    return map_to_physical(fv, bary), w


def rt0_basis(V, x):
    """Values (n, d+1, d) at the points x of the RT0 basis e_1, ..., e_d, x - V[0]."""
    d = V.shape[1]
    return np.concatenate([np.broadcast_to(np.eye(d), (len(x), d, d)), (x - V[0])[:, None]], axis=1)


def local_weak_gradients(V):
    """Weak gradients of the d+2 local basis functions of one scalar unknown.

    Basis 0 is the interior function (v_0 = 1, v_b = 0), basis 1 + i the
    function of facet i (v_0 = 0, v_b = 1 on facet i). Returns (C, G): row p
    of C holds the coefficients of grad_w of basis p in `rt0_basis`, and G
    is the Gram matrix (q_j, q_k)_K of that basis.
    """
    d = V.shape[1]
    bary, w = duffy_rule(d, 4)
    pts = map_to_physical(V, bary)
    w = simplex_volume(V) * w
    q = rt0_basis(V, pts)
    gram = np.einsum("p,pjc,pkc->jk", w, q, q)
    div_q = np.append(np.zeros(d), float(d))
    rhs = np.empty((d + 2, d + 1))
    rhs[0] = -(w.sum() * div_q)  # -(1, div q_j)_K
    normals, measures = facet_geometry(V)
    for i in range(d + 1):
        fpts, fw = facet_points(V, i)
        rhs[1 + i] = measures[i] * (fw @ (rt0_basis(V, fpts) @ normals[i]))  # <1, q_j.n_i>_{e_i}
    return np.linalg.solve(gram, rhs.T).T, gram


def _facet_dofs(mesh):
    """Component-0 dof of every interior facet, keyed by its sorted vertex tuple."""
    first = mesh.num_elements * mesh.dim
    slot = build_dofmap(mesh).facet_slot
    return {
        tuple(mesh.facets[f]): first + slot[f] * mesh.dim
        for f in mesh.interior_facets
    }


def _local_dofs(mesh, facet_dofs, k):
    """Component-0 dofs of the local basis of element k; None on boundary facets."""
    e = mesh.elements[k]
    facets = [tuple(sorted(np.delete(e, i))) for i in range(mesh.dim + 1)]
    return [k * mesh.dim] + [facet_dofs.get(f) for f in facets]


def dense_A_oracle(mesh):
    """Assemble the velocity stiffness densely from weak gradients solved per element."""
    d = mesh.dim
    facet_dofs = _facet_dofs(mesh)
    n_u = d * (mesh.num_elements + len(mesh.interior_facets))
    a = np.zeros((n_u, n_u))
    for k in range(mesh.num_elements):
        coef, gram = local_weak_gradients(mesh.vertices[mesh.elements[k]])
        local = coef @ gram @ coef.T  # (grad_w phi_p, grad_w phi_q)_K
        base = _local_dofs(mesh, facet_dofs, k)
        for p, bp in enumerate(base):
            for q, bq in enumerate(base):
                if bp is not None and bq is not None:
                    for r in range(d):
                        a[bp + r, bq + r] += local[p, q]
    return a


def dense_B_oracle(mesh):
    """Assemble the divergence block from raw facet vertex coordinates."""
    d = mesh.dim
    facet_dofs = _facet_dofs(mesh)
    n_u = d * (mesh.num_elements + len(mesh.interior_facets))
    b = np.zeros((mesh.num_elements, n_u))
    for k in range(mesh.num_elements):
        normals, measures = facet_geometry(mesh.vertices[mesh.elements[k]])
        for i, base in enumerate(_local_dofs(mesh, facet_dofs, k)[1:]):
            if base is not None:
                b[k, base : base + d] += measures[i] * normals[i]
    return b


def lifting_oracle(V, vals):
    """RT0 field on the simplex V whose facet-mean normal traces equal vals[i].n_i.

    Returns (a, b) of the field a + b*(x - c), c the vertex average of V.
    The (d+1)x(d+1) trace system is set up with facet quadrature.
    """
    d = V.shape[1]
    normals, _ = facet_geometry(V)
    c = V.mean(axis=0)
    system = np.empty((d + 1, d + 1))
    for i in range(d + 1):
        fpts, fw = facet_points(V, i)
        system[i] = np.append(normals[i], fw @ ((fpts - c) @ normals[i]))
    coef = np.linalg.solve(system, np.einsum("id,id->i", vals, normals))
    return coef[:d], coef[d]


def lifted_load_oracle(mesh, forcing):
    """Load (f, lifting of each facet test function) for every velocity dof.

    forcing maps (n, d) points to (n, d) values; the volume integrals use
    duffy_rule(d, 6) on each element. Interior dofs receive no load.
    """
    d = mesh.dim
    bary, w = duffy_rule(d, 6)
    facet_dofs = _facet_dofs(mesh)
    load = np.zeros(d * (mesh.num_elements + len(mesh.interior_facets)))
    for k in range(mesh.num_elements):
        V = mesh.vertices[mesh.elements[k]]
        pts = map_to_physical(V, bary)
        fw = simplex_volume(V) * w[:, None] * forcing(pts)
        for i, base in enumerate(_local_dofs(mesh, facet_dofs, k)[1:]):
            if base is None:
                continue
            for r in range(d):
                vals = np.zeros((d + 1, d))
                vals[i, r] = 1.0
                a, b_rad = lifting_oracle(V, vals)
                load[base + r] += np.sum(fw * (a + b_rad * (pts - V.mean(axis=0))))
    return load


def interpolate_field(mesh: Mesh, u, interior_degree: int = 4) -> WGField:
    """Interpolate a vector function into the discrete space by local averaging:
    a degree-`interior_degree` rule on each element, the gauss3 rule on facets.

    u follows the batch contract of `StokesProblem` callables.
    """
    d = mesh.dim
    bary, w = simplex_rule(d, interior_degree)
    pts = bary @ mesh.vertices[mesh.elements]  # (ne, q, d)
    interior = np.einsum("q,nqd->nd", w, evaluate_batch(u, pts, "u", (d,)))
    rule = facet_rule(d, 5 if d == 2 else 4)  # the gauss3 facet projection rule
    means = facet_means(mesh, u, np.arange(mesh.num_facets), rule, "u")
    return WGField(
        dim=d,
        interior=interior,
        facet=means[mesh.interior_facets],
        boundary=means[mesh.boundary_facets],
    )


# Reference Krylov loops: `minres` and `gmres_restart` written with plain
# array expressions, one new array per update. The library's loops write
# their updates into preallocated arrays, and tests pin them to these.


def reference_minres(
    system: SaddleSystem,
    precond: SaddlePreconditioner,
    tol: float,
    maxit: int,
) -> tuple[np.ndarray, SolveReport]:
    """Preconditioned MINRES with zero initial guess and true-residual stopping."""
    if precond.kind == "block_lower_tri":
        raise ValueError(_MINRES_TRI)
    t0 = time.perf_counter()
    b = system.rhs()
    normb = float(np.linalg.norm(b))
    n = b.shape[0]
    x = np.zeros(n)
    if normb == 0.0:
        report = SolveReport(
            "minres", precond.kind, [0.0], [0.0], tol, time.perf_counter() - t0
        )
        return x, report

    # Lanczos in the preconditioner inner product with Givens QR updates
    r2 = b.copy()
    y = precond.apply(r2)
    beta1 = math.sqrt(float(r2 @ y))
    residuals = [1.0]
    precond_res = [1.0]
    r1 = r2.copy()
    oldb = 0.0
    beta = beta1
    dbar = epsln = 0.0
    phibar = beta1
    cs, sn = -1.0, 0.0
    w = np.zeros(n)
    w2 = np.zeros(n)
    it = 0
    while it < maxit:
        it += 1
        v = y / beta
        y = precond.product(v, r2 / beta)
        if it >= 2:
            y -= (beta / oldb) * r1
        alfa = float(v @ y)
        y -= (alfa / beta) * r2
        r1 = r2
        r2 = y
        y = precond.apply(r2)
        oldb = beta
        beta2 = float(r2 @ y)
        if beta2 < 0.0:
            raise RuntimeError(
                "preconditioner lost positive definiteness "
                f"(r'My = {beta2:.3e} at iteration {it})"
            )
        beta = math.sqrt(beta2)

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(math.hypot(gbar, beta), np.finfo(float).eps)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w

        precond_res.append(abs(phibar) / beta1)
        true_rel = float(np.linalg.norm(b - system.apply(x))) / normb
        residuals.append(true_rel)
        if true_rel <= tol:
            break

    report = SolveReport(
        "minres", precond.kind, residuals, precond_res, tol, time.perf_counter() - t0
    )
    return x, report


def reference_gmres_restart(
    system: SaddleSystem,
    precond: SaddlePreconditioner,
    tol: float,
    maxit: int,
    restart: int,
) -> tuple[np.ndarray, SolveReport]:
    """Restarted GMRES, right preconditioning, zero initial guess.

    With right preconditioning the least-squares recurrence residual equals
    the true residual, so the per-iteration history needs no extra products;
    the true residual is still recomputed at every restart and on claimed
    convergence as a safeguard.
    """
    t0 = time.perf_counter()
    b = system.rhs()
    normb = float(np.linalg.norm(b))
    n = b.shape[0]
    x = np.zeros(n)
    if normb == 0.0:
        report = SolveReport(
            "gmres", precond.kind, [0.0], [0.0], tol, time.perf_counter() - t0
        )
        return x, report

    residuals = [1.0]
    it = 0
    while it < maxit:
        r = b - system.apply(x)
        beta = float(np.linalg.norm(r))
        if beta / normb <= tol:
            break
        m = min(restart, maxit - it)
        v = np.zeros((m + 1, n))
        v[0] = r / beta
        h = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        j = -1
        for j in range(m):
            it += 1
            z = precond.apply(v[j])
            wv = precond.product(z, v[j])
            for i in range(j + 1):
                h[i, j] = float(v[i] @ wv)
                wv -= h[i, j] * v[i]
            h[j + 1, j] = float(np.linalg.norm(wv))
            breakdown = h[j + 1, j] == 0.0
            if not breakdown:
                v[j + 1] = wv / h[j + 1, j]
            for i in range(j):
                t = cs[i] * h[i, j] + sn[i] * h[i + 1, j]
                h[i + 1, j] = -sn[i] * h[i, j] + cs[i] * h[i + 1, j]
                h[i, j] = t
            denom = math.hypot(h[j, j], h[j + 1, j])
            cs[j] = h[j, j] / denom
            sn[j] = h[j + 1, j] / denom
            h[j, j] = denom
            h[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            relres = abs(g[j + 1]) / normb
            residuals.append(relres)
            if relres <= tol or breakdown:
                break
        # solve the small triangular system and fold the correction back
        k = j + 1
        ysmall = np.linalg.solve(h[:k, :k], g[:k]) if k else np.zeros(0)
        if k:
            x = x + precond.apply(v[:k].T @ ysmall)
        true_rel = float(np.linalg.norm(b - system.apply(x))) / normb
        residuals[-1] = true_rel
        if true_rel <= tol:
            break

    report = SolveReport(
        "gmres", precond.kind, residuals, list(residuals), tol, time.perf_counter() - t0
    )
    return x, report
