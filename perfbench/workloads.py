"""The benchmark's workloads: seeded meshes, the pipeline through the public
wgstokes API, the correctness gate, and the per-layer replay used by traced
repetitions.

Every workload runs mesh -> assembly (with the alpha_h consistency fix) ->
block-preconditioned Krylov solve, and all but gmres3d finish with
compute_errors. The seed only moves interior mesh vertices, so the domain,
the boundary data and the compatibility condition never change.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from wgstokes import (
    ConvergenceTable,
    Mesh,
    SaddleSystem,
    build_saddle_system,
    builtin_problem,
    compute_errors,
    convergence_study,
    solve_system,
    structured_simplex_mesh,
)
from wgstokes import assembly, krylov
from wgstokes.krylov import default_tolerance
from wgstokes.problems import boundary_compatibility
from wgstokes.sparse_linalg import InnerSolver

from spans import NullTracer, Tracer

JITTER = 0.1  # largest interior-vertex offset per coordinate, as a fraction of h
QG_METHOD = "barycenter"  # build_saddle_system's default
RATE_RANGE = (0.8, 1.2)  # observed first-order l2_velocity rate
BAND = 0.05  # allowed relative distance of a checked error from its reference
ROBUST_RTOL = 1e-5  # l2_velocity at any mu against mu=1 (pressure robustness)
REPLAY_RTOL = 1e-12  # replayed assembly parts against the real build


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    levels: tuple[int, ...]  # one level: a single solve; more: a convergence study
    method: str
    precond: str | None
    tol: float | None
    check: str  # "l2": compute_errors' l2_velocity; "centroid": velocity error at centroids
    reference: tuple[float, ...]  # error on the unperturbed mesh, per level, at mu=1
    mu_values: tuple[float, ...] = (1.0,)

    @property
    def dim(self) -> int:
        return builtin_problem(self.problem).dim


# References were measured on the unperturbed structured meshes with this
# code; a seed moves them by about 1%.
WORKLOADS = {
    w.name: w
    for w in (
        # solver-bound: the Krylov loop and its inner PCG solves dominate
        Workload(
            name="minres2d",
            problem="stokes2d_exp",
            levels=(64,),
            method="minres",
            precond="block_diag",
            tol=1e-9,
            check="l2",
            reference=(0.015339622912601983,),
        ),
        # setup-bound: the ICHOL build and the per-element assembly loops
        # dominate; never calls compute_errors
        Workload(
            name="gmres3d",
            problem="stokes3d_trig",
            levels=(12,),
            method="gmres",
            precond="block_lower_tri",
            tol=1e-8,
            check="centroid",
            reference=(0.015780911467702528,),
        ),
        # verification-bound: compute_errors dominates; repeated builds and
        # one factorization per mesh shared by both viscosities
        Workload(
            name="convergence3d",
            problem="stokes3d_trig",
            levels=(4, 6),
            method="minres",
            precond=None,
            tol=None,
            check="l2",
            reference=(0.40563530553537663, 0.27060719529909866),
            mu_values=(1.0, 1e-4),
        ),
    )
}


@dataclass
class RepResult:
    total_s: float
    iterations: int
    attempted: int
    failures: dict = field(default_factory=dict)  # solve label -> list of reasons
    errors: dict = field(default_factory=dict)  # solve label -> checked error
    layers: dict = field(default_factory=dict)  # per-layer metrics (traced only)
    self_s: dict = field(default_factory=dict)  # self time per span name (traced only)
    spans: list = field(default_factory=list)


def jittered_mesh(dim: int, n: int, seed: int) -> Mesh:
    """Structured mesh whose interior vertices move by up to JITTER*h per coordinate."""
    base = structured_simplex_mesh(dim, n)
    vertices = base.vertices.copy()
    interior = np.all((vertices > 0.0) & (vertices < 1.0), axis=1)
    rng = np.random.default_rng((seed % 2**64, dim, n))
    step = JITTER / n
    vertices[interior] += rng.uniform(-step, step, size=(int(interior.sum()), dim))
    return Mesh(vertices, base.elements)


def centroid_error(mesh: Mesh, problem, solution) -> float:
    """Volume-weighted l2 distance between interior values and u at centroids."""
    diff = problem.velocity(mesh.elem_centroids) - solution.velocity.interior
    return math.sqrt(float(mesh.elem_volumes @ np.einsum("nd,nd->n", diff, diff)))


def true_relres(system: SaddleSystem, x: np.ndarray) -> float:
    """Relative residual of the rescaled system, recomputed from the iterate."""
    b = system.rhs()
    return float(np.linalg.norm(b - SaddleSystem.apply(system, x)) / np.linalg.norm(b))


# ---- hooks used only by traced repetitions ---------------------------------


class InnerProxy:
    """Forwards to a real InnerSolver and records one span per inner solve."""

    def __init__(self, real: InnerSolver, tracer: Tracer):
        self.real = real
        self.tracer = tracer

    def solve(self, r: np.ndarray) -> np.ndarray:
        with self.tracer.span("sparse_linalg.inner_solve"):
            return self.real.solve(r)

    def __getattr__(self, name):
        return getattr(self.real, name)


def count_operator_applies(system: SaddleSystem, tracer: Tracer) -> None:
    apply = system.apply

    def counted(x):
        tracer.count("krylov.operator_applies")
        return apply(x)

    system.apply = counted


@contextlib.contextmanager
def count_precond_applies(tracer):
    """Counts SaddlePreconditioner.apply calls while the block is open."""
    if not tracer.enabled:
        yield
        return
    original = krylov.SaddlePreconditioner.apply

    def counted(self, r):
        tracer.count("krylov.precond_applies")
        return original(self, r)

    krylov.SaddlePreconditioner.apply = counted
    try:
        yield
    finally:
        krylov.SaddlePreconditioner.apply = original


def counted_problem(problem, tracer):
    """Same problem, counting the points at which the exact pressure is evaluated."""
    if not tracer.enabled:
        return problem
    pressure = problem.pressure

    def counted(p):
        tracer.count("verification.eval_points", len(np.atleast_2d(p)))
        return pressure(p)

    return replace(problem, pressure=counted)


def replay_assembly(mesh: Mesh, problem, system: SaddleSystem, tracer: Tracer) -> float:
    """Time build_saddle_system's parts in its order on `mesh`.

    The caller passes a fresh Mesh so the per-element geometry cache fills
    inside the timed parts, as it does in the real build. Returns the
    largest relative difference between the replayed and the real blocks.
    """
    with tracer.span("problems.compat"):
        boundary_compatibility(problem, mesh)
    with tracer.span("assembly.dofmap"):
        dof = assembly.build_dofmap(mesh)
    with tracer.span("assembly.project"):
        g = assembly.project_boundary_values(mesh, problem, QG_METHOD)
    with tracer.span("assembly.A"):
        a = assembly.assemble_A(mesh, dof)
    with tracer.span("assembly.B"):
        b = assembly.assemble_B(mesh, dof)
    with tracer.span("assembly.b1"):
        b1 = assembly.assemble_b1(mesh, problem, QG_METHOD, dof, g)
    with tracer.span("assembly.b2"):
        b2 = assembly.assemble_b2(mesh, problem, QG_METHOD, g)
    return max(
        _rel_diff(a, system.A),
        _rel_diff(b, system.B),
        _rel_diff(b1, system.b1),
        _rel_diff(b2, system.b2),
    )


def _rel_diff(x, y) -> float:
    scale = abs(y).max()
    return float(abs(x - y).max() / scale) if scale else float(abs(x).max())


# ---- the pipeline ----------------------------------------------------------


class _Pipeline:
    """One repetition of a workload; traced or not, it makes the same library calls."""

    def __init__(self, wl: Workload, seed: int, tracer):
        self.wl = wl
        self.seed = seed
        self.tracer = tracer
        self.tol = wl.tol if wl.tol is not None else default_tolerance(wl.dim)
        self.failures: dict[str, list[str]] = {}
        self.errors: dict[str, float] = {}
        # (solve label, mesh index, problem, system) of every build, in order
        self.builds: list[tuple[str, int, object, SaddleSystem]] = []
        self.inners: list[InnerSolver] = []

    def fail(self, label: str, reason: str) -> None:
        self.failures.setdefault(label, []).append(reason)

    def build(self, label: str, i: int, mesh: Mesh, problem) -> SaddleSystem:
        with self.tracer.span("assembly.build"):
            system = build_saddle_system(mesh, problem)
        if self.tracer.enabled:
            self.builds.append((label, i, problem, system))
            count_operator_applies(system, self.tracer)
        return system

    def factor(self, system: SaddleSystem):
        if not self.tracer.enabled:
            return None  # solve_system factors A itself
        with self.tracer.span("sparse_linalg.factor"):
            real = InnerSolver(system.A)
        self.inners.append(real)
        return InnerProxy(real, self.tracer)

    def solve(self, label: str, system: SaddleSystem, inner):
        with self.tracer.span("krylov.solve"), count_precond_applies(self.tracer):
            sol = solve_system(
                system, self.wl.method, self.wl.precond, self.wl.tol, inner_solver=inner
            )
        self.tracer.count("krylov.iterations", sol.report.iterations)
        if not sol.report.converged:
            self.fail(label, f"did not converge in {sol.report.iterations} iterations")
        relres = true_relres(system, sol.raw)
        if not relres <= self.tol:
            self.fail(label, f"true relative residual {relres:.2e} > tol {self.tol:.0e}")
        return sol

    def check_band(self, label: str, error: float, reference: float) -> None:
        self.errors[label] = error
        if not abs(error / reference - 1.0) <= BAND:
            self.fail(
                label,
                f"{self.wl.check} error {error:.6e} is more than {BAND:.0%} "
                f"from the unperturbed {reference:.6e}",
            )

    def run(self) -> RepResult:
        wl, tracer = self.wl, self.tracer
        problem = builtin_problem(wl.problem)
        t0 = time.perf_counter()
        with tracer.span("workload"):
            meshes = []
            for n in wl.levels:
                with tracer.span("mesh.build"):
                    meshes.append(jittered_mesh(wl.dim, n, self.seed))
            if len(meshes) == 1:
                iterations, attempted = self.single(meshes[0], problem)
            else:
                iterations, attempted = self.study(meshes, problem)
        total = time.perf_counter() - t0
        result = RepResult(total, iterations, attempted, self.failures, self.errors)
        if tracer.enabled:
            self.replay(meshes)
            result.layers = self.layers()
            result.self_s = tracer.self_totals()
            result.spans = tracer.records()
        return result

    def single(self, mesh: Mesh, problem) -> tuple[int, int]:
        label = f"{self.wl.name}[n={self.wl.levels[0]}]"
        system = self.build(label, 0, mesh, problem)
        sol = self.solve(label, system, self.factor(system))
        with self.tracer.span("verification.errors"):
            if self.wl.check == "l2":
                error = compute_errors(
                    mesh, counted_problem(problem, self.tracer), sol
                ).l2_velocity
            else:
                error = centroid_error(mesh, problem, sol)
        self.check_band(label, error, self.wl.reference[0])
        return sol.report.iterations, 1

    def study(self, meshes: list[Mesh], problem) -> tuple[int, int]:
        wl = self.wl
        if self.tracer.enabled:
            table = self.replay_study(meshes, problem)
        else:
            table = convergence_study(problem, meshes, mu_values=wl.mu_values)
        for (mu, i), rep in table.reports.items():
            label = f"{wl.name}[n={wl.levels[i]}, mu={mu:g}]"
            if not rep.converged:
                self.fail(label, f"did not converge in {rep.iterations} iterations")
            if mu == 1.0:
                self.check_band(label, rep.l2_velocity, wl.reference[i])
                continue
            self.errors[label] = rep.l2_velocity
            base = table.reports[(1.0, i)].l2_velocity
            if not abs(rep.l2_velocity / base - 1.0) <= ROBUST_RTOL:
                self.fail(label, f"l2_velocity {rep.l2_velocity:.8e} differs from mu=1 {base:.8e}")
        last = len(meshes) - 1
        for mu in wl.mu_values:
            rate = table.rates(mu, "l2_velocity")[-1]
            if not RATE_RANGE[0] <= rate <= RATE_RANGE[1]:
                self.fail(f"{wl.name}[n={wl.levels[last]}, mu={mu:g}]", f"l2 rate {rate:.3f}")
        return sum(r.iterations for r in table.reports.values()), len(table.reports)

    def replay_study(self, meshes: list[Mesh], problem) -> ConvergenceTable:
        """convergence_study's public calls, in its order, with spans around each."""
        reports = {}
        for i, mesh in enumerate(meshes):
            inner = None
            for mu in self.wl.mu_values:
                label = f"{self.wl.name}[n={self.wl.levels[i]}, mu={mu:g}]"
                prob = problem if problem.mu == mu else problem.with_mu(mu)
                system = self.build(label, i, mesh, prob)
                if inner is None:
                    inner = self.factor(system)
                sol = self.solve(label, system, inner)
                with self.tracer.span("verification.errors"):
                    rep = compute_errors(mesh, counted_problem(prob, self.tracer), sol)
                rep.alpha_h = system.alpha_h
                reports[(mu, i)] = rep
        return ConvergenceTable(
            problem=problem.name,
            qg_method=QG_METHOD,
            mu_values=tuple(self.wl.mu_values),
            reports=reports,
            levels=[m.num_elements for m in meshes],
        )

    def replay(self, meshes: list[Mesh]) -> None:
        with self.tracer.span("assembly.replay"):
            twins = {}
            for label, i, problem, system in self.builds:
                if i not in twins:
                    twins[i] = Mesh(meshes[i].vertices, meshes[i].elements)
                worst = replay_assembly(twins[i], problem, system, self.tracer)
                if not worst <= REPLAY_RTOL:
                    self.fail(label, f"replayed assembly differs by {worst:.1e}")

    def layers(self) -> dict:
        t = self.tracer
        systems = [s for *_, s in self.builds]
        return {
            "mesh.build_s": t.total("mesh.build"),
            "problems.compat_s": t.total("problems.compat"),
            "assembly.build_s": t.total("assembly.build"),
            "assembly.project_s": t.total("assembly.project"),
            "assembly.A_s": t.total("assembly.A"),
            "assembly.B_s": t.total("assembly.B"),
            "assembly.b1_s": t.total("assembly.b1"),
            "assembly.b2_s": t.total("assembly.b2"),
            "assembly.n_u": sum(s.n_u for s in systems),
            "assembly.nnz_A": sum(s.A.nnz for s in systems),
            "assembly.nnz_B": sum(s.B.nnz for s in systems),
            "sparse_linalg.factor_s": t.total("sparse_linalg.factor"),
            "sparse_linalg.inner_solve_s": t.total("sparse_linalg.inner_solve"),
            "sparse_linalg.inner_solves": sum(
                1 for s in t.spans if s.name == "sparse_linalg.inner_solve"
            ),
            "sparse_linalg.inner_iterations": sum(s.total_iterations for s in self.inners),
            "krylov.solve_s": t.total("krylov.solve"),
            "krylov.iterations": t.counts["krylov.iterations"],
            "krylov.self_s": t.self_totals()["krylov.solve"],
            "krylov.operator_applies": t.counts["krylov.operator_applies"],
            "krylov.precond_applies": t.counts["krylov.precond_applies"],
            "verification.errors_s": t.total("verification.errors"),
            "verification.eval_points": t.counts["verification.eval_points"],
        }


def run_rep(wl: Workload, seed: int, traced: bool, run_id: str = "") -> RepResult:
    tracer = Tracer(run_id) if traced else NullTracer()
    return _Pipeline(wl, seed, tracer).run()
