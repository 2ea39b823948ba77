"""Global assembly against dense oracles and the consistency bookkeeping."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.io
import scipy.linalg
import scipy.sparse as sp

from oracles import (
    dense_A_oracle,
    dense_B_oracle,
    duffy_rule,
    jittered_mesh,
    lifted_load_oracle,
    lifting_oracle,
    local_weak_gradients,
)
from wgstokes import assembly
from wgstokes.assembly import (
    assemble_A,
    assemble_B,
    assemble_b1,
    assemble_b2,
    build_dofmap,
    build_saddle_system,
    export_system,
    local_gram_matrices,
    project_boundary_values,
)
from wgstokes.mesh import Mesh, generate_structured_tet, generate_structured_tri
from wgstokes.problems import StokesProblem, builtin_problem
from wgstokes.sparse_linalg import InnerSolver
from wgstokes.wg_core import FACET_METHODS, WGField, field_weak_gradients, lifting_matrix

# problem callables take (n, d) point batches: vectors -> (n, d), pressure -> (n,),
# forcing terms -> (n, 2, d)
zeros_vec = np.zeros_like


def zeros_scalar(p):
    return np.zeros(len(p))


def zero_terms(p):
    return np.zeros((len(p), 2, p.shape[1]))


def halves(forcing):
    """Forcing terms whose forcing at mu=1 is exactly `forcing`: half of it
    in each term."""
    return lambda p: np.stack([0.5 * forcing(p)] * 2, axis=1)


def zero_problem(dim, mu=1.0):
    return StokesProblem("zero", dim, mu, zeros_vec, zeros_scalar, zero_terms)


def linear_forcing(p):
    return np.column_stack([p[:, 0] + 0.3, 2.0 * p[:, 1] - p[:, 0]])


def linear_problem(mu=1.0, scale=1.0):
    # u = scale*(x + y, x - y) is divergence free; f = grad p with p = 0
    u = lambda p: scale * np.stack([p[:, 0] + p[:, 1], p[:, 0] - p[:, 1]], axis=-1)
    return StokesProblem("linear", 2, mu, u, zeros_scalar, zero_terms)


def oracle_mesh(dim, n, jitter):
    """Structured mesh, with interior vertices moved by up to 0.1*h per
    coordinate when jitter is set: unstructured element shapes, so a sign or
    index slip in the batched gather cannot hide behind the symmetry of the
    structured split."""
    base = (generate_structured_tri if dim == 2 else generate_structured_tet)(n)
    if not jitter:
        return base
    verts = base.vertices.copy()
    inside = np.all((verts > 0.0) & (verts < 1.0), axis=1)
    rng = np.random.default_rng(5)
    verts[inside] += rng.uniform(-0.1 / n, 0.1 / n, size=(int(inside.sum()), dim))
    return Mesh(verts, base.elements)


def velocity_block(mesh):
    """Dense kron(A, I_d) of the assembled scalar stiffness, the oracle's matrix."""
    return np.kron(assemble_A(mesh).toarray(), np.eye(mesh.dim))


oracle_inputs_2d = pytest.mark.parametrize(
    "n,jitter", [(1, False), (2, False), (3, True)], ids=["1", "2", "jittered-3"]
)


@oracle_inputs_2d
def test_A_matches_dense_oracle_2d(n, jitter):
    mesh = oracle_mesh(2, n, jitter)
    a = velocity_block(mesh)
    oracle = dense_A_oracle(mesh)
    assert np.max(np.abs(a - oracle)) < 1e-12


def test_A_matches_dense_oracle_3d():
    for mesh in (oracle_mesh(3, 1, False), oracle_mesh(3, 2, True)):
        a = velocity_block(mesh)
        oracle = dense_A_oracle(mesh)
        assert np.max(np.abs(a - oracle)) < 1e-12


@pytest.mark.parametrize("dim,n", [(2, 3), (3, 2)], ids=["2d-jittered-3", "3d-jittered-2"])
def test_A_oracle_ignores_mesh_geometry_arrays(dim, n):
    # the oracle recomputes the geometry from the vertices, so it must see a
    # corrupted scale that the assembly reads
    mesh = oracle_mesh(dim, n, True)
    mesh.elem_grad_scales *= 1.01
    assert np.max(np.abs(velocity_block(mesh) - dense_A_oracle(mesh))) > 1e-3


@oracle_inputs_2d
def test_B_matches_dense_oracle_2d(n, jitter):
    mesh = oracle_mesh(2, n, jitter)
    b = assemble_B(mesh).toarray()
    oracle = dense_B_oracle(mesh)
    assert np.max(np.abs(b - oracle)) < 1e-12


@pytest.mark.parametrize(
    "n,jitter", [(1, False), (2, False), (2, True)], ids=["1", "2", "jittered-2"]
)
def test_B_matches_dense_oracle_3d(n, jitter):
    mesh = oracle_mesh(3, n, jitter)
    b = assemble_B(mesh).toarray()
    oracle = dense_B_oracle(mesh)
    assert np.max(np.abs(b - oracle)) < 1e-12


def test_A_symmetric_positive_definite():
    mesh = generate_structured_tri(1)
    a = assemble_A(mesh)
    assert (a != a.T).nnz == 0
    eigs = np.linalg.eigvalsh(a.toarray())
    assert eigs[0] > 0


def test_local_gram_against_quadrature():
    mesh = generate_structured_tri(1)
    gram = local_gram_matrices(mesh)[0]
    # weak gradients solved from the defining relation, products by quadrature
    coef, rt0_gram = local_weak_gradients(mesh.vertices[mesh.elements[0]])
    oracle = coef @ rt0_gram @ coef.T
    for p in range(4):
        for q in range(4):
            assert gram[p, q] == pytest.approx(oracle[p, q], abs=1e-12)


def test_constant_field_has_zero_energy():
    mesh = generate_structured_tet(1)
    grams = local_gram_matrices(mesh)
    assert grams.shape == (mesh.num_elements, mesh.dim + 2, mesh.dim + 2)
    assert np.abs(grams.sum(axis=(1, 2))).max() < 1e-10


def test_B_sparsity_single_interior_facet():
    mesh = generate_structured_tri(1)
    b = assemble_B(mesh)
    assert b.shape == (2, 6)
    for k in range(2):
        row = b.getrow(k)
        assert row.nnz == 2  # d components of the single interior facet


def test_B_closed_surface_row_identity():
    # constant facet field: interior part through B plus boundary part sums to 0
    mesh = generate_structured_tri(3)
    dof = build_dofmap(mesh)
    b = assemble_B(mesh)
    c = np.array([0.8, -0.3])
    u = np.zeros(dof.n_u)
    u[dof.n_interior :] = np.tile(c, len(mesh.interior_facets))
    interior_part = b @ u
    for k in range(mesh.num_elements):
        bnd = sum(
            mesh.elem_facet_measures[k, i] * (c @ mesh.elem_normals[k, i])
            for i in range(3)
            if dof.facet_slot[mesh.elem_facets[k, i]] < 0
        )
        assert interior_part[k] + bnd == pytest.approx(0.0, abs=1e-12)


def test_B_matches_weak_divergence():
    mesh = generate_structured_tri(2)
    dof = build_dofmap(mesh)
    b = assemble_B(mesh)
    rng = np.random.default_rng(17)
    u = rng.normal(size=dof.n_u)
    bu = b @ u
    # weak divergence: trace of the constant part of the weak gradient
    field = WGField(
        2,
        u[: dof.n_interior].reshape(-1, 2),
        u[dof.n_interior :].reshape(-1, 2)[dof.facet_slot[mesh.interior_facets]],
        np.zeros((len(mesh.boundary_facets), 2)),
    )
    div = np.trace(field_weak_gradients(mesh, field)[0], axis1=1, axis2=2)
    for k in range(mesh.num_elements):
        assert bu[k] / mesh.elem_volumes[k] == pytest.approx(div[k], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize(
    "mesh",
    [generate_structured_tri(1), jittered_mesh(2, 8, 1), jittered_mesh(3, 4, 1)],
    ids=["2d-1", "2d-8-jittered", "3d-4-jittered"],
)
def test_facet_slot_numbers_interior_facets_one_to_one(mesh):
    dof = build_dofmap(mesh)
    nf = len(mesh.interior_facets)
    assert np.array_equal(np.sort(dof.facet_slot[mesh.interior_facets]), np.arange(nf))
    assert np.all(dof.facet_slot[mesh.boundary_facets] == -1)
    assert dof.n_facet == nf * mesh.dim


def test_split_returns_facet_values_in_mesh_order():
    mesh = jittered_mesh(2, 6, 2)
    mu = 2.0  # a power of two, so scaling by mu and back is exact
    system = build_saddle_system(mesh, builtin_problem("stokes2d_exp", mu=mu))
    dof = system.dof
    # the dof order must differ from the mesh order for the round trip to mean anything
    assert np.any(dof.facet_slot[mesh.interior_facets] != np.arange(len(mesh.interior_facets)))
    # each facet's barycenter, written into its dofs through the element-to-dof table
    x = np.zeros(system.size)
    base = dof.elem_dofs[:, 1:]
    live = base >= 0
    x[2 * base[live][:, None] + np.arange(2)] = mu * mesh.facet_barycenters[mesh.elem_facets[live]]
    x[: dof.n_interior] = mu * mesh.elem_centroids.ravel()
    x[dof.n_u :] = np.arange(mesh.num_elements)
    interior, facet, p = system.split(x)
    assert np.array_equal(interior, mesh.elem_centroids)
    assert np.array_equal(facet, mesh.facet_barycenters[mesh.interior_facets])
    assert np.array_equal(p, np.arange(mesh.num_elements))


def test_ones_in_left_null_space_of_B():
    for mesh in (generate_structured_tri(3), generate_structured_tet(2)):
        b = assemble_B(mesh)
        resid = np.abs(np.ones(mesh.num_elements) @ b.toarray()).max()
        assert resid < 1e-13


def test_b1_zero_data():
    mesh = generate_structured_tri(2)
    b1 = assemble_b1(mesh, zero_problem(2))
    assert np.all(b1 == 0.0)


def test_b1_interior_dofs_receive_no_load():
    # pressure robustness hinges on the load acting through facet liftings
    # only; a zero velocity gives a zero boundary datum, so b1 is the load
    mesh = generate_structured_tri(2)
    prob = builtin_problem("stokes2d_exp", mu=0.5)
    prob_nog = StokesProblem("noload", 2, 0.5, zeros_vec, prob.pressure, prob.forcing_terms)
    dof = build_dofmap(mesh)
    b1 = assemble_b1(mesh, prob_nog)
    assert np.all(b1[: dof.n_interior] == 0.0)


def test_b1_constant_forcing_against_lifting_quadrature():
    # A constant forcing cannot see the radial coefficient of the lifting, and
    # on the structured mesh the radial parts of a facet's two neighbours
    # cancel; the linear forcing on the jittered mesh sees both.
    fconst = np.array([0.7, -1.2])
    cases = [
        (generate_structured_tri(2), lambda p: np.tile(fconst, (len(p), 1))),
        (oracle_mesh(2, 3, True), linear_forcing),
    ]
    for mesh, forcing in cases:
        prob = StokesProblem("f", 2, 1.0, zeros_vec, zeros_scalar, halves(forcing))
        dof = build_dofmap(mesh)
        b1 = assemble_b1(mesh, prob)
        expected = lifted_load_oracle(mesh, forcing)
        assert b1[dof.n_interior :] == pytest.approx(expected[dof.n_interior :], rel=1e-12)


def test_b1_oracle_ignores_mesh_geometry_arrays():
    mesh = oracle_mesh(2, 3, True)
    prob = StokesProblem("f", 2, 1.0, zeros_vec, zeros_scalar, halves(linear_forcing))
    mesh.elem_volumes *= 1.01
    b1 = assemble_b1(mesh, prob)
    expected = lifted_load_oracle(mesh, linear_forcing)
    assert np.abs(b1 - expected).max() > 1e-3 * np.abs(expected).max()


@pytest.mark.parametrize(
    "make_mesh,name,mu,bound",
    [
        (lambda: jittered_mesh(3, 4, seed=11), "stokes3d_trig", 1.0, 1e-9),
        (lambda: generate_structured_tri(8), "stokes2d_exp", 1e-4, 1e-12),
    ],
    ids=["3d-4-jittered", "2d-8-small-mu"],
)
def test_b1_forcing_rule_against_dense_rule(monkeypatch, make_mesh, name, mu, bound):
    # Each bound sits between the difference at the forcing rule's degree 7
    # and at degree 5: 1.7e-10 and 2.5e-8 in 3D, 3.9e-15 and 8.9e-11 in 2D.
    mesh = make_mesh()
    prob = builtin_problem(name, mu)
    b1 = assemble_b1(mesh, prob)
    monkeypatch.setattr(assembly, "simplex_rule", lambda dim, degree: duffy_rule(dim, 8))
    dense = assemble_b1(mesh, prob)
    assert np.abs(b1 - dense).max() <= bound * np.abs(dense).max()


def test_b1_boundary_term_linear_in_mu():
    mesh = generate_structured_tri(2)
    b1_1 = assemble_b1(mesh, linear_problem(mu=1.0))
    b1_10 = assemble_b1(mesh, linear_problem(mu=10.0))
    assert np.allclose(b1_10, 10.0 * b1_1, rtol=1e-13)


def test_lifting_matrix_matches_lifting_oracle():
    # the batched lifting system that assemble_b1 inverts, against the trace
    # conditions solved by facet quadrature on the element's vertices
    mesh = generate_structured_tet(1)
    minv = np.linalg.inv(
        lifting_matrix(mesh.elem_normals, mesh.elem_facet_measures, mesh.elem_volumes)
    )[4]
    rng = np.random.default_rng(8)
    vals = rng.normal(size=(4, 3))
    a, b = lifting_oracle(mesh.vertices[mesh.elements[4]], vals)
    coef = minv @ np.einsum("id,id->i", vals, mesh.elem_normals[4])
    assert np.allclose(coef[:3], a, rtol=1e-12)
    assert coef[3] == pytest.approx(b, rel=1e-12)


def test_b2_zero_datum_and_interior_elements():
    mesh = generate_structured_tri(4)
    assert np.all(assemble_b2(mesh, zero_problem(2)) == 0.0)
    b2 = assemble_b2(mesh, builtin_problem("stokes2d_exp"))
    boundary_elems = set(
        int(mesh.facet_elems[f, 0]) for f in mesh.boundary_facets
    )
    for k in range(mesh.num_elements):
        if k not in boundary_elems:
            assert b2[k] == 0.0


def test_b2_against_facet_loop_oracle():
    mesh = generate_structured_tri(4)
    prob = builtin_problem("stokes2d_exp")
    g_proj = project_boundary_values(mesh, prob)
    b2 = assemble_b2(mesh, prob, g_proj=g_proj)
    oracle = np.zeros(mesh.num_elements)
    for j, f in enumerate(mesh.boundary_facets):
        k = int(mesh.facet_elems[f, 0])
        oracle[k] += mesh.facet_measures[f] * (g_proj[j] @ mesh.facet_normals[f])
    assert np.max(np.abs(b2 - oracle)) < 1e-13


def test_alpha_zero_for_linear_datum():
    # midpoint projection is exact on linears, so no flux defect survives
    mesh = generate_structured_tri(3)
    assert abs(build_saddle_system(mesh, linear_problem()).alpha_h) < 1e-13


def test_alpha_second_order_decay():
    prob = builtin_problem("stokes2d_exp")
    alphas = []
    for n in (4, 8):
        sys_ = build_saddle_system(generate_structured_tri(n), prob)
        assert sys_.alpha_h == float(np.sum(sys_.b2))
        alphas.append(sys_.alpha_h)
    assert 3.0 < abs(alphas[0]) / abs(alphas[1]) < 5.0


def test_enforce_consistency():
    # the pressure part of rhs() is b2 - alpha_h/N: its entries sum to zero
    mesh = generate_structured_tri(5)
    sys_ = build_saddle_system(mesh, builtin_problem("stokes2d_exp"))
    n_u = sys_.n_u
    assert sys_.n_p == 50 and sys_.mu == 1.0
    out = sys_.rhs()[n_u:]
    assert abs(out.sum()) < 1e-13 * np.abs(sys_.b2).sum()
    assert np.all(build_saddle_system(mesh, zero_problem(2)).rhs()[n_u:] == 0.0)
    const = np.full(50, 3.3)
    fixed = replace(sys_, b2=const)
    assert fixed.alpha_h == float(np.sum(const))
    assert np.allclose(fixed.rhs()[n_u:], 0.0)


def test_pressure_mass():
    prob2, prob3 = builtin_problem("stokes2d_exp"), builtin_problem("stokes3d_trig")
    m1 = build_saddle_system(generate_structured_tri(1), prob2).Mp
    assert np.allclose(m1, [0.5, 0.5])
    m2 = build_saddle_system(generate_structured_tri(5), prob2).Mp
    assert m2.sum() == pytest.approx(1.0, abs=1e-13)
    m3 = build_saddle_system(generate_structured_tet(1), prob3).Mp
    assert len(m3) == 6 and m3.sum() == pytest.approx(1.0, abs=1e-13)


def dense_operator(system):
    """[kron(A, I_d), -B^T; -B, 0] as a dense matrix."""
    a = np.kron(system.A.toarray(), np.eye(system.dof.dim))
    b = system.B.toarray()
    return np.block([[a, -b.T], [-b, np.zeros((system.n_p, system.n_p))]])


def test_saddle_operator_matches_dense():
    mesh = generate_structured_tri(1)
    sys_ = build_saddle_system(mesh, builtin_problem("stokes2d_exp"))
    dense = dense_operator(sys_)
    rng = np.random.default_rng(12)
    for _ in range(3):
        x = rng.normal(size=sys_.size)
        assert np.allclose(sys_.apply(x), dense @ x, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("dim,n", [(2, 8), (3, 3)], ids=["2d-8-jittered", "3d-3-jittered"])
def test_velocity_block_is_kron_of_scalar_stiffness(dim, n):
    # A has one row per element and interior facet; apply and the A-block
    # inverse both act on the velocity block kron(A, I_d)
    mesh = jittered_mesh(dim, n, 4)
    sys_ = build_saddle_system(mesh, zero_problem(dim))
    n_rows = mesh.num_elements + len(mesh.interior_facets)
    assert sys_.A.shape == (n_rows, n_rows)
    assert sys_.n_u == dim * n_rows
    kron = sp.kron(sys_.A, sp.identity(dim), "csr")
    u = np.random.default_rng(8).normal(size=sys_.n_u)
    au = sys_.apply(np.concatenate([u, np.zeros(sys_.n_p)]))[: sys_.n_u]
    assert np.array_equal(au, kron @ u)
    x = InnerSolver(sys_.A).solve(au)
    assert np.linalg.norm(kron @ x - au) <= 1e-12 * np.linalg.norm(au)


@pytest.mark.parametrize("qg", FACET_METHODS)
@pytest.mark.parametrize("consistent", [True, False], ids=["consistent", "raw"])
@pytest.mark.parametrize("dim,n", [(2, 4), (3, 2)], ids=["2d-4-jittered", "3d-2-jittered"])
def test_system_for_viscosity_equals_fresh_build(dim, n, consistent, qg):
    # only b1 and mu depend on the viscosity: a system replaced at another
    # viscosity has the b1 and right-hand side of a fresh build, bit for bit,
    # and every other block is the base system's own object
    mesh = jittered_mesh(dim, n, 6)
    prob = builtin_problem("stokes2d_exp" if dim == 2 else "stokes3d_trig")
    base = build_saddle_system(mesh, prob, qg, consistent)
    derived = replace(base, mu=1e-4)
    fresh = build_saddle_system(mesh, prob.with_mu(1e-4), qg, consistent)
    assert derived.mu == fresh.mu == 1e-4 and base.mu == 1.0
    assert derived.b1.tobytes() == fresh.b1.tobytes()
    assert derived.rhs().tobytes() == fresh.rhs().tobytes()
    assert derived.b1.tobytes() != base.b1.tobytes()
    for name in ("A", "B", "dof", "Mp", "g_boundary", "b2", "mesh", "load", "factor"):
        assert getattr(derived, name) is getattr(base, name), name
    # one factor of A serves the base, the derived and any replace() copy
    assert derived.inner is base.inner is replace(base, consistent=not consistent).inner
    assert derived.alpha_h == base.alpha_h == fresh.alpha_h
    assert derived.consistent == consistent


def counted_callables(problem, calls):
    """`problem` with every callable counting its calls in `calls`, by field name."""
    names = ("velocity", "pressure", "forcing_terms", "velocity_gradient")

    def counted(name):
        real = getattr(problem, name)

        def call(p):
            calls[name] = calls.get(name, 0) + 1
            return real(p)

        return call

    return replace(problem, **{name: counted(name) for name in names})


@pytest.mark.parametrize("dim", [2, 3])
def test_for_viscosity_calls_no_problem_callable(dim):
    # the forcing terms do not depend on mu, so a new viscosity recombines
    # the kept moments and evaluates nothing
    calls = {}
    prob = counted_callables(
        builtin_problem("stokes2d_exp" if dim == 2 else "stokes3d_trig"), calls
    )
    base = build_saddle_system(jittered_mesh(dim, 3, 6), prob)
    assert calls["forcing_terms"] >= 1 and calls["velocity"] >= 1
    calls.clear()
    derived = replace(base, mu=1e-4)
    assert calls == {}
    assert derived.mu == 1e-4 and derived.b1.tobytes() != base.b1.tobytes()
    with pytest.raises(ValueError, match="viscosity must be positive"):
        replace(base, mu=0.0)


@pytest.mark.parametrize("mu", [0.0, -1.0, float("nan")])
def test_replace_rejects_a_nonpositive_viscosity(mu):
    # the system checks its own viscosity, however it is made
    system = build_saddle_system(generate_structured_tri(2), builtin_problem("stokes2d_exp"))
    with pytest.raises(ValueError, match="viscosity must be positive"):
        replace(system, mu=mu)


@pytest.mark.parametrize("n,jitter", [(16, False), (16, True)], ids=["16", "jittered-16"])
def test_b1_of_stokes2d_exp_at_mu_1_is_its_boundary_term(n, jitter):
    # -Lap(u) = -grad p for stokes2d_exp, and the terms are combined per
    # element before the lifting, so at mu=1 the load is exactly zero and b1
    # is bitwise the boundary term alone, whether built at mu=1 or derived
    # from another viscosity's system
    mesh = oracle_mesh(2, n, jitter)
    prob = builtin_problem("stokes2d_exp")
    boundary_only = build_saddle_system(mesh, replace(prob, forcing_terms=zero_terms)).b1
    assert np.abs(boundary_only).max() > 0.0
    built = build_saddle_system(mesh, prob).b1
    derived = replace(build_saddle_system(mesh, prob.with_mu(1e-4)), mu=1.0).b1
    assert built.tobytes() == boundary_only.tobytes()
    assert derived.tobytes() == boundary_only.tobytes()


def test_consistent_rhs_orthogonal_to_ones():
    mesh = generate_structured_tri(4)
    sys_ = build_saddle_system(mesh, builtin_problem("stokes2d_exp"))
    second = sys_.rhs()[sys_.n_u :]
    assert abs(second.sum()) < 1e-13 * np.abs(second).sum()


def test_consistency_controls_solvability():
    mesh = generate_structured_tri(2)
    prob = builtin_problem("stokes2d_exp")
    sys_c = build_saddle_system(mesh, prob, consistent=True)
    dense = dense_operator(sys_c)
    rhs_c = sys_c.rhs()
    x, *_ = np.linalg.lstsq(dense, rhs_c, rcond=None)
    assert np.linalg.norm(dense @ x - rhs_c) < 1e-10 * np.linalg.norm(rhs_c)

    sys_r = build_saddle_system(mesh, prob, consistent=False)
    rhs_r = sys_r.rhs()
    xr, *_ = np.linalg.lstsq(dense, rhs_r, rcond=None)
    floor = abs(sys_r.alpha_h) / np.sqrt(mesh.num_elements)
    assert np.linalg.norm(dense @ xr - rhs_r) > 0.99 * floor


def test_full_field_divergence_theorem():
    # sum of element divergences weighted by volume equals the boundary flux
    mesh = generate_structured_tet(2)
    rng = np.random.default_rng(21)
    facet_vals = rng.normal(size=(mesh.num_facets, 3))
    field = WGField(
        3,
        np.zeros((mesh.num_elements, 3)),
        facet_vals[mesh.interior_facets],
        facet_vals[mesh.boundary_facets],
    )
    a, _ = field_weak_gradients(mesh, field)
    total = (np.trace(a, axis1=1, axis2=2) * mesh.elem_volumes).sum()
    flux = sum(
        mesh.facet_measures[f] * (facet_vals[f] @ mesh.facet_normals[f])
        for f in mesh.boundary_facets
    )
    assert total == pytest.approx(flux, rel=1e-12, abs=1e-12)


def test_incompatible_boundary_datum_rejected():
    mesh = generate_structured_tri(2)
    bad = StokesProblem(
        "bad", 2, 1.0,
        lambda p: p.copy(),  # u = (x, y): div u = 2, net outflow
        zeros_scalar,
        zero_terms,
    )
    with pytest.raises(ValueError, match="compatibility"):
        build_saddle_system(mesh, bad)


def test_pointwise_forcing_rejected_by_name():
    # a callable that ignores the batch and returns one (2, d) pair of terms
    # is named in the error instead of being evaluated point by point
    mesh = generate_structured_tri(2)
    prob = StokesProblem(
        "fixed_f", 2, 1.0, zeros_vec, zeros_scalar,
        lambda p: np.array([[1.0, 0.0], [0.0, 0.0]]),
    )
    with pytest.raises(ValueError, match="forcing"):
        build_saddle_system(mesh, prob)


def test_export_system_roundtrip(tmp_path):
    mesh = generate_structured_tri(1)
    sys_ = build_saddle_system(mesh, builtin_problem("stokes2d_exp"))
    paths = export_system(sys_, tmp_path)
    assert [p.name for p in paths] == ["system_A.mtx", "system_B.mtx", "system_rhs.mtx"]
    a_back = scipy.io.mmread(paths[0]).toarray()
    assert np.allclose(a_back, np.kron(sys_.A.toarray(), np.eye(2)), rtol=1e-12)
    rhs_back = np.asarray(scipy.io.mmread(paths[2]).todense()).ravel()
    assert np.allclose(rhs_back, sys_.rhs())
