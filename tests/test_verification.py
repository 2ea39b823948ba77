"""Error measurement, convergence rates, spectral checks, residual bounds."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from wgstokes.assembly import build_dofmap, build_saddle_system
from wgstokes.krylov import SolveReport, StokesSolution, solve_system
from wgstokes.mesh import structured_simplex_mesh
from wgstokes.problems import StokesProblem, builtin_problem, problem_from_expressions
from wgstokes.quadrature import simplex_rule
from wgstokes.verification import (
    compute_errors,
    convergence_study,
    inconsistency_demo,
    residual_bound_check,
    spectral_report,
)
from wgstokes.wg_core import PressureField, WGField

_TABLES = {}


def study(qg):
    if qg not in _TABLES:
        prob = builtin_problem("stokes2d_exp")
        _TABLES[qg] = convergence_study(prob, [4, 8, 16], mu_values=(1.0,), qg_method=qg)
    return _TABLES[qg]


def dummy_report():
    return SolveReport(
        "minres", "block_diag", 0, True, False, [0.0], [0.0], 1e-9, 1000, 0.0
    )


def projected_solution(mesh, problem, degree=4):
    """Interior values set to exact cell averages, pressure likewise."""
    d = mesh.dim
    bary, w = simplex_rule(d, degree)
    pts = np.einsum("qj,njd->nqd", bary, mesh.vertices[mesh.elements])
    uex = problem.velocity(pts.reshape(-1, d)).reshape(pts.shape)
    means = np.einsum("q,nqd->nd", w, uex)
    pex = problem.pressure(pts.reshape(-1, d)).reshape(pts.shape[:2])
    pmeans = np.einsum("q,nq->n", w, pex)
    nf = len(mesh.interior_facets)
    nb = len(mesh.boundary_facets)
    field = WGField(
        dim=d,
        interior=means,
        facet=np.zeros((nf, d)),
        boundary=np.zeros((nb, d)),
    )
    sol = StokesSolution(field, PressureField(pmeans), dummy_report(), np.zeros(1), 0.0)
    return sol


def test_projected_interior_values_have_zero_superconv_error():
    mesh = structured_simplex_mesh(2, 3)
    prob = builtin_problem("stokes2d_exp")
    sol = projected_solution(mesh, prob)
    rep = compute_errors(mesh, prob, sol)
    assert rep.superconv < 1e-12
    # and the velocity error reduces to the pure projection error
    bary, w = simplex_rule(2, 4)
    pts = np.einsum("qj,njd->nqd", bary, mesh.vertices[mesh.elements])
    uex = prob.velocity(pts.reshape(-1, 2)).reshape(pts.shape)
    means = np.einsum("q,nqd->nd", w, uex)
    diff = uex - means[:, None, :]
    proj = math.sqrt(
        float(np.einsum("q,nqd,nqd,n->", w, diff, diff, mesh.elem_volumes))
    )
    assert rep.l2_velocity == pytest.approx(proj, rel=1e-12)


def test_constant_solution_gives_zero_errors():
    mesh = structured_simplex_mesh(2, 2)
    c = np.array([1.0, -2.0])
    prob = StokesProblem(
        "const", 2, 1.0,
        lambda p: np.broadcast_to(c, np.shape(p)),
        lambda p: 0.7 * np.ones(np.shape(p)[:-1])[()],
        lambda p: np.zeros(np.shape(p)),
        lambda p: np.broadcast_to(c, np.shape(p)),
        lambda p: np.zeros(np.shape(p) + np.shape(p)[-1:]),
    )
    nf, nb = len(mesh.interior_facets), len(mesh.boundary_facets)
    field = WGField(
        dim=2,
        interior=np.tile(c, (mesh.num_elements, 1)),
        facet=np.tile(c, (nf, 1)),
        boundary=np.tile(c, (nb, 1)),
    )
    sol = StokesSolution(
        field, PressureField(np.full(mesh.num_elements, 0.7)), dummy_report(),
        np.zeros(1), 0.0,
    )
    rep = compute_errors(mesh, prob, sol)
    assert rep.l2_velocity < 1e-13
    assert rep.superconv < 1e-13
    assert rep.grad_error < 1e-13
    assert rep.pressure_error < 1e-13


def test_velocity_converges_at_first_order():
    table = study("barycenter")
    rates = table.rates(1.0, "l2_velocity")
    assert 0.9 <= rates[-1] <= 1.1
    assert 0.9 <= rates[-2] <= 1.1


def test_gradient_and_pressure_converge_at_first_order():
    table = study("barycenter")
    assert 0.7 <= table.rates(1.0, "grad_error")[-1] <= 1.2
    assert 0.8 <= table.rates(1.0, "pressure_error")[-1] <= 1.3


def test_interior_projection_distance_second_order_with_edge_quadrature():
    table = study("gauss2")
    rates = table.rates(1.0, "superconv")
    assert 1.8 <= rates[-1] <= 2.2


def test_boundary_flux_defect_decays_at_second_order():
    table = study("barycenter")
    alphas = [table.reports[(1.0, i)].alpha_h for i in range(3)]
    for coarse, fine in zip(alphas, alphas[1:]):
        assert 3.4 <= abs(coarse / fine) <= 4.6


def test_velocity_errors_independent_of_viscosity():
    prob = builtin_problem("stokes2d_exp")
    table = convergence_study(
        prob, [4, 8], mu_values=(1.0, 1e-4), tol=1e-12, maxit=3000
    )
    for i in range(2):
        e1 = table.reports[(1.0, i)].l2_velocity
        e2 = table.reports[(1e-4, i)].l2_velocity
        assert abs(e1 - e2) / e1 < 1e-6


def test_convergence_study_factors_each_mesh_once(monkeypatch):
    # A does not depend on mu, so both viscosities share one factorization
    # per mesh, and each mesh gets its own
    import wgstokes.verification as verification

    built = []
    real = verification.InnerSolver

    def counting(a):
        built.append(a.shape[0])
        return real(a)

    monkeypatch.setattr(verification, "InnerSolver", counting)
    meshes = [structured_simplex_mesh(2, n) for n in (2, 3)]
    convergence_study(builtin_problem("stokes2d_exp"), meshes, mu_values=(1.0, 1e-3))
    assert built == [build_dofmap(m).n_u // 2 for m in meshes]


def test_compute_errors_accepts_batch_only_velocity():
    # rotation u = (y, -x), p = 0, f = 0 is an exact Stokes solution; this
    # velocity indexes p[:, j], so it only works on (n, d) batches
    def u(p):
        return np.stack([p[:, 1], -p[:, 0]], -1)

    def zero_p(p):
        return np.zeros(len(p))

    def zero_f(p):
        return np.zeros_like(p)

    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def grad(p):
        return np.broadcast_to(rotation, (len(p), 2, 2))

    batch_only = StokesProblem("rotation", 2, 1.0, u, zero_p, zero_f, u, grad)
    u_pt = np.vectorize(lambda x: np.array([x[1], -x[0]]), signature="(d)->(d)")
    grad_pt = np.vectorize(lambda x: rotation, signature="(d)->(d,d)")
    pointwise = StokesProblem("rotation", 2, 1.0, u_pt, zero_p, zero_f, u_pt, grad_pt)
    mesh = structured_simplex_mesh(2, 3)
    sol = solve_system(build_saddle_system(mesh, batch_only))
    rep = compute_errors(mesh, batch_only, sol)
    ref = compute_errors(mesh, pointwise, sol)
    for name in ("l2_velocity", "superconv", "grad_error", "pressure_error"):
        assert getattr(rep, name) == pytest.approx(getattr(ref, name), rel=1e-12, abs=1e-15)


def test_compute_errors_needs_the_velocity_gradient():
    mesh = structured_simplex_mesh(2, 2)
    prob = builtin_problem("stokes2d_exp")
    sol = solve_system(build_saddle_system(mesh, prob))
    no_gradient = replace(prob, name="gradient-free", velocity_gradient=None)
    with pytest.raises(ValueError, match="'gradient-free' has no velocity_gradient"):
        compute_errors(mesh, no_gradient, sol)
    # one row per point, as the velocity returns, is not a gradient
    flat = replace(prob, velocity_gradient=prob.velocity)
    with pytest.raises(ValueError, match=r"velocity_gradient returned shape \(\d+, 2\)"):
        compute_errors(mesh, flat, sol)


def test_compute_errors_reports_the_systems_alpha_h():
    mesh = structured_simplex_mesh(2, 4)
    prob = builtin_problem("stokes2d_exp")
    system = build_saddle_system(mesh, prob)
    assert system.alpha_h != 0.0
    rep = compute_errors(mesh, prob, solve_system(system))
    assert rep.alpha_h == system.alpha_h


def test_convergence_study_needs_two_meshes():
    prob = builtin_problem("stokes2d_exp")
    with pytest.raises(ValueError):
        convergence_study(prob, [4])


def test_convergence_table_serialization(tmp_path):
    table = study("barycenter")
    path = tmp_path / "table.csv"
    table.write_csv(path)
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "N" and "l2_velocity" in header
    assert len(lines) == 1 + 3  # one viscosity, three levels
    md = table.to_markdown("l2_velocity")
    assert "conv. rate" in md
    rows = md.strip().splitlines()
    assert len(rows) == 2 + 3
    assert rows[2].split("|")[3].strip() == "-"  # no rate on the first level


def test_spectral_report_gamma_side():
    prob = builtin_problem("stokes2d_exp")
    for n in (2, 3):
        sys_ = build_saddle_system(structured_simplex_mesh(2, n), prob)
        rep = spectral_report(sys_)
        assert rep.zero_gamma_count == 1
        assert rep.gamma_upper_ok
        assert rep.gammas[-1] <= 2.0 + 1e-8
        assert 0.0 < rep.beta < math.sqrt(2.0)
        assert rep.zero_lambda_count == 1
        assert rep.quad_map_max_dist < 1e-8
        # read from the scalar A: the velocity block kron(A, I_d) has its spectrum
        block = np.kron(sys_.A.toarray(), np.eye(2))
        smallest = scipy.linalg.eigh(block, eigvals_only=True)[0]
        assert rep.lambda_min_A == pytest.approx(smallest, rel=1e-12)


def test_spectral_interval_outliers_are_exactly_the_divergence_free_modes():
    # velocity fields with zero weak divergence pair with zero pressure and
    # are fixed points of the preconditioned operator, so the eigenvalue 1
    # appears with multiplicity n_u - N + 1; the checked set admits that
    # point, while the positive interval itself starts strictly above 1
    prob = builtin_problem("stokes2d_exp")
    sys_ = build_saddle_system(structured_simplex_mesh(2, 2), prob)
    rep = spectral_report(sys_)
    assert rep.lambda_interval_violations.size == 0
    near_one = np.abs(rep.lambdas - 1.0) < 1e-9
    assert int(np.sum(near_one)) == sys_.n_u - sys_.n_p + 1
    lo_pos = rep.intervals()[2][0]
    assert lo_pos > 1.0 + 1e-3


def test_inf_sup_estimate_stable_under_refinement():
    prob = builtin_problem("stokes2d_exp")
    betas = []
    for n in (2, 4, 8):
        sys_ = build_saddle_system(structured_simplex_mesh(2, n), prob)
        betas.append(spectral_report(sys_).beta)
    for b0, b1 in zip(betas, betas[1:]):
        assert abs(b1 - b0) / b0 < 0.2


def test_spectral_report_guards_large_systems():
    prob = builtin_problem("stokes2d_exp")
    sys_ = build_saddle_system(structured_simplex_mesh(2, 16), prob)
    with pytest.raises(ValueError):
        spectral_report(sys_)


def test_minres_residual_bound_holds_at_odd_iterations():
    prob = builtin_problem("stokes2d_exp")
    sys_ = build_saddle_system(structured_simplex_mesh(2, 4), prob)
    spec = spectral_report(sys_)
    sol = solve_system(sys_, "minres")
    check = residual_bound_check(sol.report, spec)
    assert check.passed
    assert check.worst_margin > 0.0
    assert all(j % 2 == 1 for j, _, _ in check.checked)
    assert check.rho == pytest.approx(
        (math.sqrt(2) - spec.beta) / (math.sqrt(2) + spec.beta)
    )


def test_gmres_residual_bound_holds_from_iteration_two():
    prob = builtin_problem("stokes2d_exp")
    sys_ = build_saddle_system(structured_simplex_mesh(2, 4), prob)
    spec = spectral_report(sys_)
    sol = solve_system(sys_, "gmres")
    check = residual_bound_check(sol.report, spec)
    assert check.passed
    assert min(j for j, _, _ in check.checked) == 2
    assert check.prefactor > 2.0


def test_residual_bound_check_rejects_flat_history():
    prob = builtin_problem("stokes2d_exp")
    sys_ = build_saddle_system(structured_simplex_mesh(2, 4), prob)
    spec = spectral_report(sys_)
    flat = [1.0] * 40
    fake = SolveReport(
        "minres", "block_diag", 39, False, False, flat, flat, 1e-9, 39, 0.0
    )
    check = residual_bound_check(fake, spec)
    assert not check.passed
    assert check.worst_margin < 0.0


def test_inconsistency_demo_contrasts_raw_and_corrected():
    mesh = structured_simplex_mesh(2, 4)
    prob = builtin_problem("stokes2d_exp")
    demo = inconsistency_demo(mesh, prob, maxit=200)
    assert demo.alpha_h != 0.0
    assert not demo.report_raw.converged
    assert demo.report_raw.stagnated
    assert demo.report_fixed.converged
    assert demo.residual_floor is not None
    assert min(demo.report_raw.residuals) >= 0.999 * demo.residual_floor
    assert "alpha_h" in demo.summary()


def test_inconsistency_demo_builds_the_system_once(monkeypatch):
    # raw and corrected systems differ only in which pressure right-hand side
    # they use, so one assembly serves both
    import wgstokes.verification as verification

    calls = []
    real = verification.build_saddle_system

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(verification, "build_saddle_system", counting)
    demo = inconsistency_demo(structured_simplex_mesh(2, 3), builtin_problem("stokes2d_exp"))
    assert len(calls) == 1
    assert demo.report_fixed.converged


def test_inconsistency_demo_no_op_for_zero_boundary_data():
    u0 = "2*x**2*(1-x)**2*y*(1-y)*(1-2*y)"
    u1 = "-2*x*(1-x)*(1-2*x)*y**2*(1-y)**2"
    prob = problem_from_expressions(2, [u0, u1], "x*y - 1/4", name="cavity")
    mesh = structured_simplex_mesh(2, 3)
    demo = inconsistency_demo(mesh, prob)
    assert demo.alpha_h == 0.0
    assert demo.report_raw.residuals == demo.report_fixed.residuals
