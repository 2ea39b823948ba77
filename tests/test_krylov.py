"""Block preconditioners, MINRES/GMRES behavior, and solution post-processing."""

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from oracles import jittered_mesh, reference_gmres_restart, reference_minres
from wgstokes import assembly
from wgstokes.assembly import build_saddle_system, export_system
from wgstokes.krylov import (
    PRECONDITIONERS,
    SaddlePreconditioner,
    gmres_restart,
    minres,
    preconditioner_for,
    solve_stokes,
    solve_system,
)
from wgstokes.mesh import structured_simplex_mesh
from wgstokes.problems import builtin_problem, problem_from_expressions
from wgstokes.sparse_linalg import InnerSolver

_CACHE = {}


def small_system(n=2, mu=1.0, dim=2, consistent=True):
    key = (n, mu, dim, consistent)
    if key not in _CACHE:
        mesh = structured_simplex_mesh(dim, n)
        name = "stokes2d_exp" if dim == 2 else "stokes3d_trig"
        prob = builtin_problem(name, mu)
        _CACHE[key] = build_saddle_system(mesh, prob, consistent=consistent)
    return _CACHE[key]


def jittered_system(dim, n, mu=1.0, consistent=True):
    name = "stokes2d_exp" if dim == 2 else "stokes3d_trig"
    mesh = jittered_mesh(dim, n, 1)
    return build_saddle_system(mesh, builtin_problem(name, mu), consistent=consistent)


def recording_iterates(sys_):
    """A copy of `sys_` whose `apply` keeps a copy of every vector it is given:
    each iterate whose true residual a Krylov loop computes."""
    seen = []
    traced = replace(sys_)

    def apply(x):
        seen.append(x.copy())
        return sys_.apply(x)

    traced.apply = apply
    return traced, seen


def velocity_product(sys_, y):
    """kron(A, I_d) @ y: the scalar stiffness applied to each component."""
    return (sys_.A @ y.reshape(-1, sys_.dof.dim)).ravel()


def cavity_problem():
    # stream function x^2(1-x)^2 y^2(1-y)^2 gives a divergence-free field
    # that vanishes on the whole boundary of the unit square
    u0 = "2*x**2*(1-x)**2*y*(1-y)*(1-2*y)"
    u1 = "-2*x*(1-x)*(1-2*x)*y**2*(1-y)**2"
    return problem_from_expressions([u0, u1], "x**3 + y**3 - 1/2", name="cavity")


def test_pd_inverse_recovers_velocity_block():
    sys_ = small_system()
    rng = np.random.default_rng(3)
    y = rng.standard_normal(sys_.n_u)
    r = np.concatenate([velocity_product(sys_, y), np.zeros(sys_.n_p)])
    x = SaddlePreconditioner(sys_, "block_diag").apply(r)
    assert np.max(np.abs(x[: sys_.n_u] - y)) < 1e-10
    assert np.max(np.abs(x[sys_.n_u :])) == 0.0


def test_pd_inverse_scales_pressure_by_measures():
    sys_ = small_system()
    rng = np.random.default_rng(4)
    z = rng.standard_normal(sys_.n_p)
    r = np.concatenate([np.zeros(sys_.n_u), sys_.Mp * z])
    x = SaddlePreconditioner(sys_, "block_diag").apply(r)
    assert np.max(np.abs(x[sys_.n_u :] - z)) < 1e-13
    assert np.max(np.abs(x[: sys_.n_u])) < 1e-12


def test_pt_inverse_dense_roundtrip():
    sys_ = small_system(n=1)
    rng = np.random.default_rng(5)
    r = rng.standard_normal(sys_.n_u + sys_.n_p)
    x = SaddlePreconditioner(sys_, "block_lower_tri").apply(r)
    a = np.kron(sys_.A.toarray(), np.eye(2))
    b = sys_.B.toarray()
    top = np.hstack([a, np.zeros((sys_.n_u, sys_.n_p))])
    bottom = np.hstack([-b, -np.diag(sys_.Mp)])
    pt = np.vstack([top, bottom])
    assert np.max(np.abs(pt @ x - r)) < 1e-10


def test_pt_inverse_maps_momentum_residual_to_velocity():
    # r = (A y, -B y) is what the residual looks like for an exact pressure;
    # the triangular preconditioner then reproduces y with zero pressure part
    sys_ = small_system()
    rng = np.random.default_rng(6)
    y = rng.standard_normal(sys_.n_u)
    r = np.concatenate([velocity_product(sys_, y), -(sys_.B @ y)])
    x = SaddlePreconditioner(sys_, "block_lower_tri").apply(r)
    assert np.max(np.abs(x[: sys_.n_u] - y)) < 1e-9
    assert np.max(np.abs(x[sys_.n_u :])) < 1e-9


def test_pd_preconditioned_operator_self_adjoint():
    sys_ = small_system()
    pd = SaddlePreconditioner(sys_, "block_diag")
    rng = np.random.default_rng(7)
    for _ in range(3):
        x = rng.standard_normal(sys_.n_u + sys_.n_p)
        y = rng.standard_normal(sys_.n_u + sys_.n_p)
        tx = pd.apply(sys_.apply(x))
        ty = pd.apply(sys_.apply(y))

        def pdot(a, b):
            au, ap = a[: sys_.n_u], a[sys_.n_u :]
            bu, bp = b[: sys_.n_u], b[sys_.n_u :]
            return float(au @ velocity_product(sys_, bu) + ap @ (sys_.Mp * bp))

        lhs = pdot(tx, y)
        rhs = pdot(x, ty)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


@pytest.mark.parametrize("dim, n", [(2, 8), (3, 3)], ids=["2d-8-jittered", "3d-3-jittered"])
def test_product_on_preconditioned_vector_is_operator_product(dim, n):
    sys_ = jittered_system(dim, n)
    r = np.random.default_rng(8).standard_normal(sys_.n_u + sys_.n_p)
    for kind in ("block_diag", "block_lower_tri"):
        p = SaddlePreconditioner(sys_, kind)
        z = p.apply(r)
        full = sys_.apply(z)
        assert np.max(np.abs(p.product(z, r) - full)) <= 1e-12 * np.max(np.abs(full))
    none = SaddlePreconditioner(sys_, "none")
    z = none.apply(r)
    assert np.array_equal(none.product(z, r), sys_.apply(z))


@pytest.mark.parametrize("dim, n", [(2, 8), (3, 3)], ids=["2d-8-jittered", "3d-3-jittered"])
@pytest.mark.parametrize(
    "method, kind",
    [("minres", "block_diag"), ("gmres", "block_lower_tri"), ("gmres", "block_diag")],
)
def test_krylov_counts_equal_with_full_operator_products(monkeypatch, dim, n, method, kind):
    for mu in (1.0, 1e-4):
        sys_ = jittered_system(dim, n, mu)
        short = solve_system(sys_, method, kind).report
        with monkeypatch.context() as m:
            m.setattr(SaddlePreconditioner, "product", lambda self, z, r: self.system.apply(z))
            full = solve_system(sys_, method, kind).report
        assert short.converged and full.converged
        assert short.iterations == full.iterations
        np.testing.assert_allclose(short.residuals, full.residuals, rtol=1e-4)


def test_minres_rejects_nonsymmetric_preconditioner():
    sys_ = small_system()
    pt = SaddlePreconditioner(sys_, "block_lower_tri")
    with pytest.raises(ValueError):
        minres(sys_, pt, 1e-9, 1000)


def test_unknown_kind_and_method_raise():
    sys_ = small_system()
    with pytest.raises(ValueError):
        SaddlePreconditioner(sys_, "ilu")
    with pytest.raises(ValueError):
        solve_system(sys_, method="bicgstab")


@pytest.mark.parametrize(
    "method, precond, expected",
    [
        ("minres", None, "block_diag"),
        ("gmres", None, "block_lower_tri"),
        ("minres", "none", "none"),
        ("gmres", "block_diag", "block_diag"),
        ("minres", "block_lower_tri", "symmetric positive definite"),
        ("bicgstab", None, "unknown method"),
        ("gmres", "ilu", "unknown preconditioner"),
    ],
)
def test_preconditioner_for_pairs_method_and_preconditioner(method, precond, expected):
    if expected in PRECONDITIONERS:
        assert preconditioner_for(method, precond) == expected
    else:
        with pytest.raises(ValueError, match=expected):
            preconditioner_for(method, precond)


class Unawaited:
    """Stands in for a system's factor; reading it fails the test."""

    def result(self):
        raise AssertionError("the A-block factor was read")


def test_solve_system_rejects_minres_with_triangular_before_factoring():
    sys_ = replace(small_system(), factor=Unawaited())
    with pytest.raises(ValueError, match="minres"):
        solve_system(sys_, "minres", "block_lower_tri")


@pytest.mark.parametrize("method", ["minres", "gmres"])
def test_unpreconditioned_solve_never_waits_for_the_factor(method):
    sys_ = replace(small_system(n=4), factor=Unawaited())
    rep = solve_system(sys_, method, "none", maxit=5).report
    assert rep.preconditioner == "none" and rep.iterations == 5


@pytest.mark.parametrize("method", ["minres", "gmres"])
def test_unpreconditioned_solve_never_factors(monkeypatch, method):
    built = []
    monkeypatch.setattr(assembly, "InnerSolver", built.append)
    sys_ = build_saddle_system(structured_simplex_mesh(2, 4), builtin_problem("stokes2d_exp"))
    assert solve_system(sys_, method, "none", maxit=5).report.iterations == 5
    assert built == []


@pytest.mark.parametrize("method", ["minres", "gmres"])
def test_report_reads_its_count_and_verdicts_off_the_residuals(method):
    # one entry per iteration after the initial one; the verdicts are plain
    # bools, as the CSV and JSON writers expect
    sys_ = small_system(n=4)
    done = solve_system(sys_, method).report
    cut = solve_system(sys_, method, maxit=3, restart=2).report
    assert done.iterations == len(done.residuals) - 1 > 3
    assert type(done.converged) is bool and done.converged
    assert cut.iterations == 3 and cut.converged is False and cut.stagnated is False


@pytest.mark.parametrize("method", ["minres", "gmres"])
@pytest.mark.parametrize("dim,n", [(2, 8), (3, 3)], ids=["2d-8-jittered", "3d-3-jittered"])
def test_own_factor_solves_as_a_fresh_inner_solver(dim, n, method):
    # the factor the system makes on first read is the same SuperLU call on
    # the same matrix: every iterate and residual is bitwise equal
    sys_ = jittered_system(dim, n)
    own = solve_system(sys_, method)
    fresh = solve_system(sys_, method, inner_solver=InnerSolver(sys_.A))
    assert own.report.preconditioner == preconditioner_for(method, None)
    assert own.raw.tobytes() == fresh.raw.tobytes()
    assert own.report.residuals == fresh.report.residuals
    assert own.report.precond_residuals == fresh.report.precond_residuals


def test_factor_error_reaches_the_solver_caller(monkeypatch):
    # every reader of the factor, on any thread and through any replace()
    # copy, gets the error; a failed read stores nothing, so once factoring
    # succeeds a read returns a real factor of A, never None
    class FactorError(Exception):
        pass

    calls = []

    def failing(a):
        calls.append(a)
        raise FactorError("SuperLU failed")

    monkeypatch.setattr(assembly, "InnerSolver", failing)
    sys_ = build_saddle_system(structured_simplex_mesh(2, 2), builtin_problem("stokes2d_exp"))
    with pytest.raises(FactorError, match="SuperLU failed"):
        solve_system(sys_)
    with pytest.raises(FactorError, match="SuperLU failed"):
        solve_system(replace(sys_, mu=1e-3), "gmres")
    with ThreadPoolExecutor(max_workers=2) as pool:
        reads = [pool.submit(lambda: replace(sys_, consistent=False).inner) for _ in range(2)]
    for read in reads:
        with pytest.raises(FactorError, match="SuperLU failed"):
            read.result(timeout=30)
    assert len(calls) == 4 and all(a is sys_.A for a in calls)
    monkeypatch.undo()
    inner = replace(sys_, mu=1e-3).inner
    assert isinstance(inner, InnerSolver) and sys_.inner is inner


def worker_thread():
    return assembly._WORKER.submit(threading.current_thread).result(timeout=30)


def test_solve_forms_the_load_on_the_worker_while_it_factors(monkeypatch):
    # the factor waits until the load is formed, which can only happen if the
    # load was queued before the factor was made on this thread
    real_load, real_inner = assembly._load_parts, assembly.InnerSolver
    loads, factors, formed = [], [], threading.Event()

    def load_parts(*args):
        loads.append(threading.current_thread())
        formed.set()
        return real_load(*args)

    def inner_solver(a):
        factors.append(threading.current_thread())
        assert formed.wait(timeout=30), "the load was not formed beside the factor"
        return real_inner(a)

    monkeypatch.setattr(assembly, "_load_parts", load_parts)
    monkeypatch.setattr(assembly, "InnerSolver", inner_solver)
    sys_ = build_saddle_system(structured_simplex_mesh(2, 4), builtin_problem("stokes2d_exp"))
    assert loads == [] and factors == []
    assert solve_system(sys_).report.converged
    assert solve_system(replace(sys_, mu=1e-3), "gmres").report.converged
    assert loads == [worker_thread()] and factors == [threading.main_thread()]


def test_solve_inside_a_worker_task_forms_the_load_inline(monkeypatch):
    # the load queued behind the running task is cancelled, not waited for
    real_load, loads = assembly._load_parts, []

    def load_parts(*args):
        loads.append(threading.current_thread())
        return real_load(*args)

    monkeypatch.setattr(assembly, "_load_parts", load_parts)
    sys_ = build_saddle_system(structured_simplex_mesh(2, 4), builtin_problem("stokes2d_exp"))
    sol = assembly._WORKER.submit(solve_system, sys_).result(timeout=60)
    assert sol.report.converged and loads == [worker_thread()]


def test_load_error_is_raised_on_every_read_by_the_caller():
    # a forcing callable that ignores the batch is named by a ValueError from
    # each read of b1, solve or export, raised where it is read; a failed
    # read stores nothing
    called_on = []

    def pointwise(p):
        called_on.append(threading.current_thread())
        return np.array([[1.0, 0.0], [0.0, 0.0]])

    prob = replace(builtin_problem("stokes2d_exp"), forcing_terms=pointwise)
    sys_ = build_saddle_system(structured_simplex_mesh(2, 2), prob)
    errors = []
    for read in (solve_system, export_system, solve_system, lambda s: replace(s, mu=2.0).b1):
        before = len(called_on)
        with pytest.raises(ValueError, match="forcing_terms returned shape") as err:
            read(sys_)
        assert len(called_on) > before and called_on[-1] is threading.main_thread()
        errors.append(str(err.value))
    assert len(set(errors)) == 1


# (mu, consistent, preconditioner, maxit) of each MINRES run pinned to the
# reference loop, and the verdict it must reach
MINRES_RUNS = {
    "mu=1": (1.0, True, "block_diag", 1000, "converged"),
    "mu=1e-4": (1e-4, True, "block_diag", 1000, "converged"),
    "none-maxit": (1.0, True, "none", 40, "stopped at maxit"),
    "inconsistent": (1.0, False, "block_diag", 300, "stagnated"),
}


@pytest.mark.parametrize(
    "dim, n, run",
    [(d, n, r) for d, n in ((2, 8), (3, 3)) for r in list(MINRES_RUNS)[:3]]
    + [(2, 8, "inconsistent")],  # the 3D trig problem's inconsistency is too small to stall
)
def test_minres_is_bitwise_its_reference_loop(dim, n, run):
    mu, consistent, kind, maxit, verdict = MINRES_RUNS[run]
    sys_ = jittered_system(dim, n, mu, consistent)
    p = SaddlePreconditioner(sys_, kind)
    traced, seen = recording_iterates(sys_)
    x, rep = minres(traced, p, 1e-9, maxit)
    traced, seen_ref = recording_iterates(sys_)
    x_ref, ref = reference_minres(traced, p, 1e-9, maxit)
    assert {
        "converged": rep.converged,
        "stopped at maxit": rep.iterations == maxit and not rep.converged,
        "stagnated": rep.stagnated,
    }[verdict]
    assert len(seen) == len(seen_ref) == rep.iterations
    assert all(np.array_equal(a, b) for a, b in zip(seen, seen_ref))
    assert np.array_equal(x, x_ref)
    assert rep.residuals == ref.residuals
    assert rep.precond_residuals == ref.precond_residuals


@pytest.mark.parametrize("dim, n", [(2, 8), (3, 3)], ids=["2d-8-jittered", "3d-3-jittered"])
@pytest.mark.parametrize("kind", PRECONDITIONERS)
@pytest.mark.parametrize("restart", [30, 5])
def test_gmres_matches_its_reference_loop(dim, n, kind, restart):
    # BLAS's fused update in Gram-Schmidt moves the iterates in the last
    # bits only: the counts are equal and every iterate is within 1e-12
    maxit = 60 if kind == "none" else 1000
    sys_ = jittered_system(dim, n)
    p = SaddlePreconditioner(sys_, kind)
    traced, seen = recording_iterates(sys_)
    x, rep = gmres_restart(traced, p, 1e-9, maxit, restart)
    traced, seen_ref = recording_iterates(sys_)
    x_ref, ref = reference_gmres_restart(traced, p, 1e-9, maxit, restart)
    assert rep.converged == (kind != "none")
    assert rep.iterations == ref.iterations
    assert len(seen) == len(seen_ref) > 1
    for a, b in zip(seen[1:] + [x], seen_ref[1:] + [x_ref]):  # seen[0] is the zero start
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
    np.testing.assert_allclose(rep.residuals, ref.residuals, rtol=0, atol=1e-12)


def test_minres_converges_with_history_invariants():
    sys_ = small_system(n=8)
    pd = SaddlePreconditioner(sys_, "block_diag")
    x, rep = minres(sys_, pd, tol=1e-9, maxit=1000)
    assert rep.converged
    assert rep.residuals[0] == 1.0
    assert len(rep.residuals) == rep.iterations + 1
    assert len(rep.precond_residuals) == rep.iterations + 1
    b = sys_.rhs()
    direct = np.linalg.norm(b - sys_.apply(x)) / np.linalg.norm(b)
    assert abs(direct - rep.residuals[-1]) < 1e-14
    assert direct <= 1e-9
    # the recurrence residual in the preconditioner norm never increases
    pr = np.array(rep.precond_residuals)
    assert np.all(np.diff(pr) <= 1e-14)
    assert rep.wall_time > 0.0


def test_gmres_converges_with_history_invariants():
    sys_ = small_system(n=8)
    pt = SaddlePreconditioner(sys_, "block_lower_tri")
    x, rep = gmres_restart(sys_, pt, tol=1e-9, maxit=1000, restart=30)
    assert rep.converged
    assert rep.residuals[0] == 1.0
    assert len(rep.residuals) == rep.iterations + 1
    b = sys_.rhs()
    direct = np.linalg.norm(b - sys_.apply(x)) / np.linalg.norm(b)
    assert direct <= 1e-9
    assert abs(direct - rep.residuals[-1]) <= 1e-12


def test_gmres_short_restart_still_converges():
    sys_ = small_system(n=4)
    pt = SaddlePreconditioner(sys_, "block_lower_tri")
    x, rep = gmres_restart(sys_, pt, tol=1e-9, maxit=1000, restart=5)
    assert rep.converged
    b = sys_.rhs()
    assert np.linalg.norm(b - sys_.apply(x)) / np.linalg.norm(b) <= 1e-9


def test_preconditioning_beats_unpreconditioned():
    sys_ = small_system(n=4)
    pd = SaddlePreconditioner(sys_, "block_diag")
    _, rep_pd = minres(sys_, pd, tol=1e-9, maxit=1000)
    pn = SaddlePreconditioner(sys_, "none")
    _, rep_un = minres(sys_, pn, tol=1e-9, maxit=600)
    assert rep_un.converged  # small singular system, consistent data
    assert rep_pd.iterations < rep_un.iterations / 3


def test_inconsistent_rhs_stagnates_and_is_flagged():
    raw = small_system(n=8, consistent=False)
    sol = solve_system(raw, "minres", tol=1e-9, maxit=300)
    assert not sol.report.converged
    assert sol.report.stagnated
    assert min(sol.report.residuals) > 1e-8
    fixed = small_system(n=8, consistent=True)
    sol2 = solve_system(fixed, "minres", tol=1e-9, maxit=300)
    assert sol2.report.converged
    assert not sol2.report.stagnated


def test_zero_boundary_data_makes_consistency_a_no_op():
    mesh = structured_simplex_mesh(2, 4)
    prob = cavity_problem()
    fixed = build_saddle_system(mesh, prob, consistent=True)
    raw = build_saddle_system(mesh, prob, consistent=False)
    assert fixed.alpha_h == 0.0
    assert np.max(np.abs(fixed.b2)) == 0.0
    rep_fixed = solve_system(fixed, "minres").report
    rep_raw = solve_system(raw, "minres").report
    assert rep_fixed.residuals == rep_raw.residuals


def test_velocity_unscaled_and_mu_independent():
    # the manufactured forcing is a gradient plus the viscous term, so the
    # discrete velocity does not depend on the viscosity
    sols = {}
    for mu in (1.0, 1e-4):
        sys_ = small_system(n=4, mu=mu)
        sols[mu] = solve_system(sys_, "minres", tol=1e-12, maxit=3000)
    scale = np.max(np.abs(sols[1.0].velocity.interior))
    diff = np.max(np.abs(sols[1.0].velocity.interior - sols[1e-4].velocity.interior))
    assert diff / scale < 1e-7
    diff_f = np.max(np.abs(sols[1.0].velocity.facet - sols[1e-4].velocity.facet))
    assert diff_f / scale < 1e-7


def test_split_matches_velocity_scaling():
    mu = 3.5
    sys_ = small_system(n=2, mu=mu)
    sol = solve_system(sys_, "minres", tol=1e-11, maxit=2000)
    d = sys_.dof.dim
    ui = sol.raw[: sys_.dof.n_interior].reshape(-1, d) / mu
    assert np.max(np.abs(ui - sol.velocity.interior)) < 1e-13


def test_pressure_has_zero_weighted_mean():
    for method in ("minres", "gmres"):
        sys_ = small_system(n=4)
        sol = solve_system(sys_, method)
        weighted = float(sol.pressure.values @ sys_.Mp)
        assert abs(weighted) < 1e-12 * float(sys_.Mp.sum())


def test_solve_stokes_end_to_end_3d():
    mesh = structured_simplex_mesh(3, 2)
    prob = builtin_problem("stokes3d_trig")
    sol = solve_stokes(mesh, prob, method="gmres")
    assert sol.report.converged
    assert sol.report.tol == 1e-8
    assert sol.velocity.dim == 3
    assert sol.velocity.boundary.shape == (len(mesh.boundary_facets), 3)
    assert sol.pressure.values.shape == (mesh.num_elements,)
    summary = sol.report.summary()
    assert "gmres" in summary and "converged" in summary
