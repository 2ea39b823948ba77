"""Error measurement, convergence studies, spectral checks, and residual bounds.

Everything here treats the solver as a black box and measures properties the
discretization is supposed to have: first-order velocity convergence, a
second-order distance between the interior velocity and the cell averages of
the exact solution, boundedness of the Schur complement spectrum, and the
a priori residual bounds for the preconditioned Krylov methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy.linalg

from .assembly import SaddleSystem, build_saddle_system
from .krylov import SolveReport, StokesSolution, default_tolerance, solve_system
from .mesh import Mesh, structured_simplex_mesh
from .problems import StokesProblem, evaluate_batch
from .quadrature import simplex_rule
from .sparse_linalg import InnerSolver
from .wg_core import field_weak_gradients

__all__ = [
    "ErrorReport",
    "ConvergenceTable",
    "SpectralReport",
    "BoundCheck",
    "InconsistencyDemo",
    "compute_errors",
    "convergence_study",
    "spectral_report",
    "residual_bound_check",
    "inconsistency_demo",
]


@dataclass
class ErrorReport:
    h: float
    num_elements: int
    mu: float
    alpha_h: float
    l2_velocity: float
    superconv: float  # distance between interior values and exact cell means
    grad_error: float  # broken norm against the elementwise weak gradient
    pressure_error: float  # both pressures normalized to zero weighted mean
    iterations: int
    converged: bool

    def as_row(self) -> dict:
        return {
            "N": self.num_elements,
            "h": self.h,
            "mu": self.mu,
            "alpha_h": self.alpha_h,
            "l2_velocity": self.l2_velocity,
            "superconv": self.superconv,
            "grad_error": self.grad_error,
            "pressure_error": self.pressure_error,
            "iterations": self.iterations,
            "converged": self.converged,
        }


ERROR_FIELDS = ("l2_velocity", "superconv", "grad_error", "pressure_error")
ERROR_DEGREE = 4  # exactness degree of the quadrature rule in compute_errors
SPECTRAL_MARGIN = 1e-8  # slack of every eigenvalue bound spectral_report checks
DENSE_GUARD = 2000  # cubic-cost eigensolves are for verification scale only


def compute_errors(mesh: Mesh, problem: StokesProblem, solution: StokesSolution) -> ErrorReport:
    """Broken-norm errors of a solved field against the exact solution.

    Needs the problem's exact `velocity_gradient`; a problem without one
    raises a ValueError.
    """
    if problem.velocity_gradient is None:
        raise ValueError(
            f"problem {problem.name!r} has no velocity_gradient; compute_errors "
            f"needs the exact gradient for the broken-norm error"
        )
    bary, w = simplex_rule(mesh.dim, ERROR_DEGREE)
    pts = bary @ mesh.vertices[mesh.elements]  # (ne, nq, d)
    vols = mesh.elem_volumes
    uex = evaluate_batch(problem.velocity, pts, "velocity")  # (ne, nq, d)
    pex = evaluate_batch(problem.pressure, pts, "pressure", rank=0)  # (ne, nq)
    jac = evaluate_batch(problem.velocity_gradient, pts, "velocity_gradient", rank=2)

    ui = solution.velocity.interior  # (ne, d)
    diff = uex - ui[:, None, :]
    l2_velocity = math.sqrt(float(np.einsum("q,nqd,nqd,n->", w, diff, diff, vols)))

    means = np.einsum("q,nqd->nd", w, uex)  # exact cell averages
    superconv = math.sqrt(float(vols @ np.einsum("nd,nd->n", means - ui, means - ui)))

    # weak gradient of the discrete field is a + b (x - x_K) per component
    a, b = field_weak_gradients(mesh, solution.velocity)  # (ne, d, d), (ne, d)
    rel = pts - mesh.elem_centroids[:, None, :]
    gw = a[:, None, :, :] + b[:, None, :, None] * rel[:, :, None, :]
    gdiff = jac - gw
    grad_error = math.sqrt(float(np.einsum("q,nqrc,nqrc,n->", w, gdiff, gdiff, vols)))

    volume = float(vols.sum())
    p_mean = float(np.einsum("q,nq,n->", w, pex, vols)) / volume
    ph = solution.pressure.values
    ph = ph - float(ph @ vols) / volume
    pdiff = (pex - p_mean) - ph[:, None]
    pressure_error = math.sqrt(float(np.einsum("q,nq,nq,n->", w, pdiff, pdiff, vols)))

    return ErrorReport(
        h=float(mesh.elem_diameters.max()),
        num_elements=mesh.num_elements,
        mu=problem.mu,
        alpha_h=solution.alpha_h,
        l2_velocity=l2_velocity,
        superconv=superconv,
        grad_error=grad_error,
        pressure_error=pressure_error,
        iterations=solution.report.iterations,
        converged=solution.report.converged,
    )


@dataclass
class ConvergenceTable:
    problem: str
    qg_method: str
    mu_values: tuple
    reports: dict  # (mu, level index) -> ErrorReport
    levels: list  # number of elements per level, ascending h^-1

    def rates(self, mu: float, field_name: str) -> list:
        """log-ratio rates between consecutive levels; the first entry is None, and a
        rate is nan where an error is zero or two levels have the same h."""
        out = [None]
        for i in range(1, len(self.levels)):
            r0 = self.reports[(mu, i - 1)]
            r1 = self.reports[(mu, i)]
            e0, e1 = getattr(r0, field_name), getattr(r1, field_name)
            if e0 <= 0.0 or e1 <= 0.0 or r0.h == r1.h:
                out.append(float("nan"))
            else:
                out.append(math.log(e0 / e1) / math.log(r0.h / r1.h))
        return out

    def write_csv(self, path: str | Path) -> None:
        path = Path(path)
        cols = ["N", "h", "mu"]
        for name in ERROR_FIELDS:
            cols += [name, f"{name}_rate"]
        cols += ["alpha_h", "iterations", "converged"]
        with path.open("w", encoding="utf-8") as fh:
            fh.write(",".join(cols) + "\n")
            for mu in self.mu_values:
                rate_cols = {f: self.rates(mu, f) for f in ERROR_FIELDS}
                for i in range(len(self.levels)):
                    r = self.reports[(mu, i)]
                    cells = [str(r.num_elements), f"{r.h:.6e}", f"{mu:g}"]
                    for f in ERROR_FIELDS:
                        rate = rate_cols[f][i]
                        cells.append(f"{getattr(r, f):.6e}")
                        cells.append("" if rate is None else f"{rate:.3f}")
                    cells += [
                        f"{r.alpha_h:.6e}",
                        str(r.iterations),
                        str(r.converged),
                    ]
                    fh.write(",".join(cells) + "\n")

    def to_markdown(self, field_name: str) -> str:
        """One table per error quantity, error and rate columns per viscosity."""
        header = ["N"]
        for mu in self.mu_values:
            header += [f"error (mu={mu:g})", "conv. rate"]
        lines = [
            "| " + " | ".join(header) + " |",
            "|" + "|".join("---" for _ in header) + "|",
        ]
        rate_cols = {mu: self.rates(mu, field_name) for mu in self.mu_values}
        for i in range(len(self.levels)):
            row = [str(self.levels[i])]
            for mu in self.mu_values:
                r = self.reports[(mu, i)]
                rate = rate_cols[mu][i]
                row.append(f"{getattr(r, field_name):.6e}")
                row.append("-" if rate is None else f"{rate:.3f}")
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines)


def convergence_study(
    problem: StokesProblem,
    meshes: list,
    mu_values: tuple = (1.0,),
    qg_method: str = "barycenter",
    method: str = "minres",
    tol: float | None = None,
    maxit: int = 1000,
    restart: int = 30,
) -> ConvergenceTable:
    """Solve on a mesh sequence for each viscosity and tabulate errors.

    meshes may hold Mesh objects or integers (structured subdivision levels,
    dimension taken from the problem). The stiffness block does not depend
    on the viscosity, so each mesh's A is factored once for all of them.
    """
    if len(meshes) < 2:
        raise ValueError("need at least two meshes to observe a rate")
    resolved = [
        m if isinstance(m, Mesh) else structured_simplex_mesh(problem.dim, m)
        for m in meshes
    ]
    reports = {}
    for i, mesh in enumerate(resolved):
        inner = None
        for mu in mu_values:
            prob = problem if problem.mu == mu else problem.with_mu(mu)
            system = build_saddle_system(mesh, prob, qg_method)
            if inner is None:
                inner = InnerSolver(system.A)
            sol = solve_system(
                system, method, tol=tol, maxit=maxit, restart=restart,
                inner_solver=inner,
            )
            reports[(mu, i)] = compute_errors(mesh, prob, sol)
    return ConvergenceTable(
        problem=problem.name,
        qg_method=qg_method,
        mu_values=tuple(mu_values),
        reports=reports,
        levels=[m.num_elements for m in resolved],
    )


def _lambda_intervals(dim: int, beta: float) -> tuple:
    """Roots of lambda^2 - lambda = gamma for gamma in [beta^2, d], with {0}."""
    d = float(dim)
    b2 = beta**2
    return (
        ((1.0 - math.sqrt(1.0 + 4.0 * d)) / 2.0, (1.0 - math.sqrt(1.0 + 4.0 * b2)) / 2.0),
        (0.0, 0.0),
        ((1.0 + math.sqrt(1.0 + 4.0 * b2)) / 2.0, (1.0 + math.sqrt(1.0 + 4.0 * d)) / 2.0),
    )


@dataclass
class SpectralReport:
    dim: int
    gammas: np.ndarray  # generalized Schur eigenvalues, ascending
    beta: float  # inf-sup estimate, sqrt of the smallest positive gamma
    lambdas: np.ndarray  # eigenvalues of the preconditioned operator
    margin: float
    zero_gamma_count: int
    gamma_upper_ok: bool  # all gammas <= d + margin
    zero_lambda_count: int
    lambda_interval_violations: np.ndarray  # eigenvalues outside the checked set
    quad_map_max_dist: float  # worst |lambda^2 - lambda - gamma| mismatch
    lambda_min_A: float
    lambda_max_Mp: float

    @property
    def lambda_intervals_ok(self) -> bool:
        return self.lambda_interval_violations.size == 0

    def intervals(self) -> tuple:
        """(negative interval, (0, 0), positive interval) of the lambda bound.

        The set that ``spectral_report`` checks is [neg] u {0} u {1} u [pos].
        The point 1, the eigenvalue of the weakly divergence-free modes
        (u, 0) with Bu = 0, lies strictly between 0 and the positive
        interval; it is not returned here, so index 2 stays the positive
        interval.
        """
        return _lambda_intervals(self.dim, self.beta)

    def write_csv(self, path: str | Path) -> None:
        path = Path(path)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("index,gamma,lambda\n")
            n = max(len(self.gammas), len(self.lambdas))
            for i in range(n):
                g = f"{self.gammas[i]:.10e}" if i < len(self.gammas) else ""
                l = f"{self.lambdas[i]:.10e}" if i < len(self.lambdas) else ""
                fh.write(f"{i},{g},{l}\n")

    def summary(self) -> str:
        lo, _, hi = self.intervals()
        lines = [
            f"elements d={self.dim}, beta = {self.beta:.6f}",
            f"gammas: {len(self.gammas)} total, {self.zero_gamma_count} zero, "
            f"max {self.gammas[-1]:.6f} (bound d = {self.dim}): "
            f"{'ok' if self.gamma_upper_ok else 'VIOLATED'}",
            f"lambda set [{lo[0]:.4f}, {lo[1]:.4f}] u {{0}} u {{1}} u "
            f"[{hi[0]:.4f}, {hi[1]:.4f}]: "
            + (
                "all inside"
                if self.lambda_intervals_ok
                else f"{self.lambda_interval_violations.size} outside "
                f"(e.g. {self.lambda_interval_violations[0]:.6f})"
            ),
            f"zero eigenvalue multiplicity {self.zero_lambda_count}",
            f"quadratic-map mismatch {self.quad_map_max_dist:.2e}",
        ]
        return "\n".join(lines)


def spectral_report(system: SaddleSystem) -> SpectralReport:
    """Dense spectral verification on a small system.

    Forms the Schur complement S = B A^-1 B^T, solves S q = gamma Mp q, and
    compares the preconditioned-operator eigenvalues against the set
    [neg] u {0} u {1} u [pos] (see ``SpectralReport.intervals``) and the
    quadratic map lambda^2 - lambda = gamma.
    """
    if system.size > DENSE_GUARD:
        raise ValueError(
            f"system size {system.size} exceeds the dense verification "
            f"guard {DENSE_GUARD}; use a coarser mesh"
        )
    d = system.dof.dim
    op = system.dense_operator()
    a = op[: system.n_u, : system.n_u]
    b = system.B.toarray()
    mp = np.diag(system.Mp)
    cho = scipy.linalg.cho_factor(a)
    s = b @ scipy.linalg.cho_solve(cho, b.T)
    s = 0.5 * (s + s.T)
    gammas = scipy.linalg.eigh(s, mp, eigvals_only=True)
    zero_gamma = int(np.sum(np.abs(gammas) < 1e-10))
    gamma_upper_ok = bool(gammas[-1] <= d + SPECTRAL_MARGIN)
    beta = math.sqrt(max(float(gammas[1]), 0.0))

    pd = scipy.linalg.block_diag(a, mp)
    lambdas = scipy.linalg.eigh(op, pd, eigvals_only=True)
    zero_lambda = int(np.sum(np.abs(lambdas) < 1e-10))

    (lo_neg, hi_neg), _, (lo_pos, hi_pos) = _lambda_intervals(d, beta)
    # lambda = 1 belongs to the n_u - rank(B) modes (u, 0) with Bu = 0; no
    # eigenvector with p != 0 can reach it (it would need B^T p = 0 and a
    # zero weighted mean of p at once), so the point admits only that family
    inside = (
        ((lambdas >= lo_neg - SPECTRAL_MARGIN) & (lambdas <= hi_neg + SPECTRAL_MARGIN))
        | (np.abs(lambdas) <= SPECTRAL_MARGIN)
        | (np.abs(lambdas - 1.0) <= SPECTRAL_MARGIN)
        | ((lambdas >= lo_pos - SPECTRAL_MARGIN) & (lambdas <= hi_pos + SPECTRAL_MARGIN))
    )
    violations = lambdas[~inside]

    mapped = lambdas * lambdas - lambdas
    dist = np.abs(mapped[:, None] - gammas[None, :]).min(axis=1)
    quad_map_max_dist = float(dist.max())

    # kron(A, I_d) has the spectrum of the scalar A, each eigenvalue d times
    lambda_min_A = float(scipy.linalg.eigh(system.A.toarray(), eigvals_only=True)[0])
    return SpectralReport(
        dim=d,
        gammas=gammas,
        beta=beta,
        lambdas=lambdas,
        margin=SPECTRAL_MARGIN,
        zero_gamma_count=zero_gamma,
        gamma_upper_ok=gamma_upper_ok,
        zero_lambda_count=zero_lambda,
        lambda_interval_violations=violations,
        quad_map_max_dist=quad_map_max_dist,
        lambda_min_A=lambda_min_A,
        lambda_max_Mp=float(system.Mp.max()),
    )


@dataclass
class BoundCheck:
    method: str
    rho: float
    prefactor: float
    checked: list  # (iteration, measured, bound)
    worst_margin: float  # min over checked iterations of bound - measured

    @property
    def passed(self) -> bool:
        return self.worst_margin >= 0.0


def residual_bound_check(report: SolveReport, spectral: SpectralReport) -> BoundCheck:
    """Compare a recorded residual history against its a priori bound.

    For the diagonally preconditioned method the bound governs the residual
    in the preconditioner norm at odd iterations, with convergence factor
    rho = (sqrt(d) - beta)/(sqrt(d) + beta) per pair of iterations. For the
    triangular preconditioner it governs iterations k >= 2 with a prefactor
    involving the extreme eigenvalues of the mass and stiffness blocks.
    """
    d = float(spectral.dim)
    beta = spectral.beta
    rho = (math.sqrt(d) - beta) / (math.sqrt(d) + beta)
    checked = []
    if report.method == "minres":
        prefactor = 2.0
        history = report.precond_residuals
        for j in range(1, len(history), 2):
            bound = prefactor * rho ** ((j - 1) // 2)
            checked.append((j, history[j], bound))
    elif report.method == "gmres":
        prefactor = 2.0 * (
            1.0 + d + math.sqrt(d * spectral.lambda_max_Mp / spectral.lambda_min_A)
        )
        history = report.residuals
        for j in range(2, len(history)):
            bound = prefactor * rho ** (j - 2)
            checked.append((j, history[j], bound))
    else:
        raise ValueError(f"unknown method {report.method!r}")
    worst = min((b - m for _, m, b in checked), default=float("inf"))
    return BoundCheck(
        method=report.method, rho=rho, prefactor=prefactor, checked=checked,
        worst_margin=float(worst),
    )


@dataclass
class InconsistencyDemo:
    alpha_h: float
    report_raw: SolveReport
    report_fixed: SolveReport
    residual_floor: float | None  # dense least-squares floor, small systems only

    def summary(self) -> str:
        raw_min = min(self.report_raw.residuals)
        lines = [
            f"alpha_h = {self.alpha_h:.6e}",
            f"raw right-hand side: {self.report_raw.summary()}",
            f"  best relative residual {raw_min:.3e}"
            + (
                f" (floor {self.residual_floor:.3e})"
                if self.residual_floor is not None
                else ""
            ),
            f"corrected right-hand side: {self.report_fixed.summary()}",
        ]
        return "\n".join(lines)


def inconsistency_demo(
    mesh: Mesh,
    problem: StokesProblem,
    method: str = "minres",
    qg_method: str = "barycenter",
    tol: float | None = None,
    maxit: int = 1000,
    restart: int = 30,
) -> InconsistencyDemo:
    """Solve with the raw and the corrected pressure right-hand side."""
    raw = build_saddle_system(mesh, problem, qg_method, consistent=False)
    fixed = replace(raw, consistent=True)
    inner = InnerSolver(raw.A)
    sol_raw = solve_system(raw, method, tol=tol, maxit=maxit, restart=restart,
                           inner_solver=inner)
    sol_fixed = solve_system(fixed, method, tol=tol, maxit=maxit, restart=restart,
                             inner_solver=inner)
    floor = None
    if raw.size <= DENSE_GUARD:
        op = raw.dense_operator()
        b = raw.rhs()
        x, *_ = np.linalg.lstsq(op, b, rcond=None)
        floor = float(np.linalg.norm(b - op @ x) / np.linalg.norm(b))
    return InconsistencyDemo(
        alpha_h=raw.alpha_h,
        report_raw=sol_raw.report,
        report_fixed=sol_fixed.report,
        residual_floor=floor,
    )
