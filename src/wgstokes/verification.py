"""Error measurement, convergence studies, spectral checks, and residual bounds.

Everything here treats the solver as a black box and measures properties the
discretization is supposed to have: first-order velocity convergence, a
second-order distance between the interior velocity and the cell averages of
the exact solution, boundedness of the Schur complement spectrum, and the
a priori residual bounds for the preconditioned Krylov methods.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .assembly import assemble_A, assemble_B, build_dofmap, build_saddle_system, each_viscosity
from .krylov import SolveReport, StokesSolution, solve_system
from .mesh import Mesh
from .problems import StokesProblem, evaluate_batch
from .quadrature import simplex_rule
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
        row = asdict(self)
        return {"N": row.pop("num_elements"), **row}


ERROR_FIELDS = ("l2_velocity", "superconv", "grad_error", "pressure_error")
ERROR_DEGREE = 4  # exactness degree of the quadrature rule in compute_errors
SPECTRAL_MARGIN = 1e-8  # slack of every eigenvalue bound spectral_report checks
DENSE_GUARD = 2000  # cubic-cost eigensolves are for verification scale only


class _ExactSample(NamedTuple):
    """The exact solution at the error rule's points of one mesh.

    None of it depends on the viscosity, so one sample serves every
    viscosity on that mesh.
    """

    weights: np.ndarray  # (ne, nq): |K| times the rule's weight
    rel: np.ndarray  # (ne, nq, d): point minus element centroid
    velocity: np.ndarray  # (ne, nq, d)
    means: np.ndarray  # (ne, d): exact cell averages
    gradient: np.ndarray  # (ne, nq, d, d)
    pressure: np.ndarray  # (ne, nq): shifted to zero weighted mean


def _sample_exact(mesh: Mesh, problem: StokesProblem) -> _ExactSample:
    if problem.velocity_gradient is None:
        raise ValueError(
            f"problem {problem.name!r} has no velocity_gradient; compute_errors "
            f"needs the exact gradient for the broken-norm error"
        )
    bary, w = simplex_rule(mesh.dim, ERROR_DEGREE)
    pts = bary @ mesh.vertices[mesh.elements]  # (ne, nq, d)
    weights = mesh.elem_volumes[:, None] * w
    d = mesh.dim
    uex = evaluate_batch(problem.velocity, pts, "velocity", (d,))
    pex = evaluate_batch(problem.pressure, pts, "pressure", ())
    jac = evaluate_batch(problem.velocity_gradient, pts, "velocity_gradient", (d, d))
    p_mean = float(np.vdot(weights, pex)) / float(mesh.elem_volumes.sum())
    return _ExactSample(
        weights=weights,
        rel=pts - mesh.elem_centroids[:, None, :],
        velocity=uex,
        means=np.einsum("q,nqd->nd", w, uex),
        gradient=jac,
        pressure=pex - p_mean,
    )


def _error_report(
    mesh: Mesh, mu: float, exact: _ExactSample, solution: StokesSolution
) -> ErrorReport:
    """Broken-norm errors of `solution` against the sampled exact solution."""
    wts = exact.weights
    vols = mesh.elem_volumes
    ui = solution.velocity.interior  # (ne, d)
    diff = exact.velocity - ui[:, None, :]
    l2_velocity = math.sqrt(float(np.vdot(wts, np.einsum("nqd,nqd->nq", diff, diff))))

    mdiff = exact.means - ui
    superconv = math.sqrt(float(vols @ np.einsum("nd,nd->n", mdiff, mdiff)))

    # weak gradient of the discrete field is a + b (x - x_K) per component
    a, b = field_weak_gradients(mesh, solution.velocity)  # (ne, d, d), (ne, d)
    gw = a[:, None, :, :] + b[:, None, :, None] * exact.rel[:, :, None, :]
    gdiff = exact.gradient - gw
    grad_error = math.sqrt(float(np.vdot(wts, np.einsum("nqrc,nqrc->nq", gdiff, gdiff))))

    ph = solution.pressure.values
    ph = ph - float(ph @ vols) / float(vols.sum())
    pdiff = exact.pressure - ph[:, None]
    pressure_error = math.sqrt(float(np.vdot(wts, pdiff * pdiff)))

    return ErrorReport(
        h=float(mesh.elem_diameters.max()),
        num_elements=mesh.num_elements,
        mu=mu,
        alpha_h=solution.alpha_h,
        l2_velocity=l2_velocity,
        superconv=superconv,
        grad_error=grad_error,
        pressure_error=pressure_error,
        iterations=solution.report.iterations,
        converged=solution.report.converged,
    )


def compute_errors(mesh: Mesh, problem: StokesProblem, solution: StokesSolution) -> ErrorReport:
    """Broken-norm errors of a solved field against the exact solution.

    Needs the problem's exact `velocity_gradient`; a problem without one
    raises a ValueError.
    """
    return _error_report(mesh, problem.mu, _sample_exact(mesh, problem), solution)


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


def convergence_study(
    problem: StokesProblem,
    meshes: list[Mesh],
    mu_values: tuple = (1.0,),
    qg_method: str = "barycenter",
    solve=solve_system,
) -> ConvergenceTable:
    """Solve on a mesh sequence for each viscosity and tabulate errors.

    `solve(system)` returns each system's `StokesSolution`. On each mesh
    the system is built once, and the other viscosities only recombine b1
    (``replace(system, mu=...)``); all share one sample of the exact
    solution for the errors, and solve concurrently. A problem without a
    `velocity_gradient` raises a ValueError before the first solve.
    """
    if len(meshes) < 2:
        raise ValueError("need at least two meshes to observe a rate")
    if not mu_values:
        raise ValueError("need at least one viscosity")
    reports = {}
    for i, mesh in enumerate(meshes):
        exact = _sample_exact(mesh, problem)

        def solve_and_measure(system):
            return _error_report(mesh, system.mu, exact, solve(system))

        rows = each_viscosity(mesh, problem, mu_values, qg_method, True, solve_and_measure)
        reports.update({(mu, i): rep for mu, rep in zip(mu_values, rows)})
    return ConvergenceTable(
        problem=problem.name,
        qg_method=qg_method,
        mu_values=tuple(mu_values),
        reports=reports,
        levels=[m.num_elements for m in meshes],
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
    """The spectra of one mesh's system; every check is read off them."""

    dim: int
    gammas: np.ndarray  # generalized Schur eigenvalues, ascending
    lambdas: np.ndarray  # eigenvalues of the preconditioned operator, ascending
    lambda_min_A: float
    lambda_max_Mp: float

    @property
    def beta(self) -> float:
        """Inf-sup estimate, the square root of the smallest positive gamma."""
        return math.sqrt(max(float(self.gammas[1]), 0.0))

    @property
    def zero_gamma_count(self) -> int:
        return int(np.sum(np.abs(self.gammas) < 1e-10))

    @property
    def gamma_upper_ok(self) -> bool:
        """Whether every gamma is at most d + margin."""
        return bool(self.gammas[-1] <= self.dim + SPECTRAL_MARGIN)

    @property
    def zero_lambda_count(self) -> int:
        return int(np.sum(np.abs(self.lambdas) < 1e-10))

    @property
    def lambda_interval_violations(self) -> np.ndarray:
        """The eigenvalues outside the checked set (see `intervals`)."""
        lam, m = self.lambdas, SPECTRAL_MARGIN
        (lo_neg, hi_neg), _, (lo_pos, hi_pos) = self.intervals()
        # lambda = 1 belongs to the n_u - rank(B) modes (u, 0) with Bu = 0; no
        # eigenvector with p != 0 can reach it (it would need B^T p = 0 and a
        # zero weighted mean of p at once), so the point admits only that family
        inside = (
            ((lam >= lo_neg - m) & (lam <= hi_neg + m))
            | (np.abs(lam) <= m)
            | (np.abs(lam - 1.0) <= m)
            | ((lam >= lo_pos - m) & (lam <= hi_pos + m))
        )
        return lam[~inside]

    @property
    def quad_map_max_dist(self) -> float:
        """Worst |lambda^2 - lambda - gamma| over the lambdas, each against its
        nearest gamma."""
        mapped = self.lambdas * self.lambdas - self.lambdas
        return float(np.abs(mapped[:, None] - self.gammas[None, :]).min(axis=1).max())

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


def spectral_report(mesh: Mesh) -> SpectralReport:
    """Dense spectral verification on a small mesh.

    The preconditioned operator is made of A, B and Mp alone, all three
    from the mesh, so no viscosity, data or projection rule enters. Forms
    the Schur complement S = B A^-1 B^T, solves S q = gamma Mp q, and
    compares the preconditioned-operator eigenvalues against the set
    [neg] u {0} u {1} u [pos] (see ``SpectralReport.intervals``) and the
    quadratic map lambda^2 - lambda = gamma.
    """
    dof = build_dofmap(mesh)
    size = dof.n_u + mesh.num_elements
    if size > DENSE_GUARD:
        raise ValueError(
            f"system size {size} exceeds the dense verification "
            f"guard {DENSE_GUARD}; use a coarser mesh"
        )
    d = mesh.dim
    a_scalar = assemble_A(mesh, dof).toarray()
    a = np.kron(a_scalar, np.eye(d))
    b = assemble_B(mesh, dof).toarray()
    mp = np.diag(mesh.elem_volumes)
    op = np.block([[a, -b.T], [-b, np.zeros_like(mp)]])
    # kron(A, I_d)^-1 B^T from one factor of the scalar A, all components at once
    cho = scipy.linalg.cho_factor(a_scalar)
    s = b @ scipy.linalg.cho_solve(cho, b.T.reshape(len(cho[0]), -1)).reshape(b.T.shape)
    s = 0.5 * (s + s.T)
    gammas = scipy.linalg.eigh(s, mp, eigvals_only=True)
    lambdas = scipy.linalg.eigh(op, scipy.linalg.block_diag(a, mp), eigvals_only=True)
    # kron(A, I_d) has the spectrum of the scalar A, each eigenvalue d times
    lambda_min_A = float(scipy.linalg.eigh(a_scalar, eigvals_only=True)[0])
    return SpectralReport(
        dim=d,
        gammas=gammas,
        lambdas=lambdas,
        lambda_min_A=lambda_min_A,
        lambda_max_Mp=float(mesh.elem_volumes.max()),
    )


@dataclass
class BoundCheck:
    method: str
    rho: float
    prefactor: float
    checked: list  # (iteration, measured, bound)

    @property
    def worst_margin(self) -> float:
        """Min over the checked iterations of bound - measured."""
        return float(min((b - m for _, m, b in self.checked), default=float("inf")))

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
    return BoundCheck(method=report.method, rho=rho, prefactor=prefactor, checked=checked)


@dataclass
class InconsistencyDemo:
    alpha_h: float
    report_raw: SolveReport
    report_fixed: SolveReport
    residual_floor: float  # least-squares floor of the raw relative residual

    def summary(self) -> str:
        raw_min = min(self.report_raw.residuals)
        lines = [
            f"alpha_h = {self.alpha_h:.6e}",
            f"raw right-hand side: {self.report_raw.summary()}",
            f"  best relative residual {raw_min:.3e} (floor {self.residual_floor:.3e})",
            f"corrected right-hand side: {self.report_fixed.summary()}",
        ]
        return "\n".join(lines)


def inconsistency_demo(
    mesh: Mesh,
    problem: StokesProblem,
    qg_method: str = "barycenter",
    solve=solve_system,
) -> InconsistencyDemo:
    """Solve with the raw and the corrected pressure right-hand side, each
    by `solve(system)`.

    The operator is symmetric and its kernel is the constant pressures
    (B^T 1 = 0), so the least-squares residual of the raw right-hand side b
    is its component along them: |mu * alpha_h| / sqrt(N), relative to ||b||.
    """
    raw = build_saddle_system(mesh, problem, qg_method, consistent=False)
    fixed = replace(raw, consistent=True)  # shares raw's factor of A
    sol_raw = solve(raw)
    sol_fixed = solve(fixed)
    floor = abs(raw.mu * raw.alpha_h) / (math.sqrt(raw.n_p) * float(np.linalg.norm(raw.rhs())))
    return InconsistencyDemo(
        alpha_h=raw.alpha_h,
        report_raw=sol_raw.report,
        report_fixed=sol_fixed.report,
        residual_floor=floor,
    )
