"""Krylov solution of the rescaled singular saddle system.

MINRES runs in the inner product induced by the symmetric positive definite
block-diagonal preconditioner diag(A, Mp); restarted GMRES uses the
block lower-triangular preconditioner [A, 0; -B, -Mp] applied from the
right, so its recurrence residual is the true residual. Both stop on the
true relative residual of the rescaled system and work on the singular
system as-is; with a zero initial guess and a consistent right-hand side
the zero eigenvalue never enters the Krylov space.

Both block preconditioners invert kron(A, I_d) exactly, so each step's
product with z = P^-1 r needs only B and B^T (`SaddlePreconditioner.product`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .assembly import SaddleSystem, build_saddle_system
from .mesh import Mesh
from .problems import StokesProblem
from .sparse_linalg import InnerSolver
from .wg_core import PressureField, WGField

__all__ = [
    "METHODS",
    "PRECONDITIONERS",
    "SaddlePreconditioner",
    "SolveReport",
    "StokesSolution",
    "minres",
    "gmres_restart",
    "solve_system",
    "solve_stokes",
    "default_tolerance",
    "preconditioner_for",
]

STAGNATION_WINDOW = 50
STAGNATION_FACTOR = 100.0
STAGNATION_IMPROVEMENT = 0.999

# Krylov method -> its default preconditioner
METHODS = {"minres": "block_diag", "gmres": "block_lower_tri"}
PRECONDITIONERS = ("block_diag", "block_lower_tri", "none")
_MINRES_TRI = "minres needs a symmetric positive definite preconditioner, not block_lower_tri"


def _check_name(what: str, name: str, names) -> None:
    if name not in names:
        raise ValueError(f"unknown {what} {name!r}; use one of {', '.join(names)}")


def preconditioner_for(method: str, precond: str | None) -> str:
    """The preconditioner a solve with `method` uses: `precond`, or the
    method's default when it is None.

    MINRES takes only an SPD preconditioner, block_diag or none, never
    block_lower_tri; GMRES takes any.
    """
    _check_name("method", method, METHODS)
    if precond is None:
        return METHODS[method]
    _check_name("preconditioner", precond, PRECONDITIONERS)
    if method == "minres" and precond == "block_lower_tri":
        raise ValueError(_MINRES_TRI)
    return precond


class SaddlePreconditioner:
    """Applies the inverse of the chosen block preconditioner.

    The A-block inverse is `inner_solver`, or else the system's own factor
    (`SaddleSystem.inner`); the "none" kind never waits for it.
    """

    def __init__(
        self,
        system: SaddleSystem,
        kind: str,
        inner_solver: InnerSolver | None = None,
    ):
        _check_name("preconditioner", kind, PRECONDITIONERS)
        self.system = system
        self.kind = kind
        self.inner = None if kind == "none" else inner_solver or system.inner

    def apply(self, r: np.ndarray) -> np.ndarray:
        n_u = self.system.n_u
        if self.kind == "none":
            return r.copy()
        ru, rp = r[:n_u], r[n_u:]
        xu = self.inner.solve(ru)
        if self.kind == "block_diag":
            return np.concatenate([xu, rp / self.system.Mp])
        # lower-triangular forward substitution with second row [-B, -Mp]
        xp = -(rp + self.system.B @ xu) / self.system.Mp
        return np.concatenate([xu, xp])

    def product(self, z: np.ndarray, r: np.ndarray) -> np.ndarray:
        """`system.apply(z)` for z = `apply(r)`; the block kinds take r_u for kron(A, I_d) z_u."""
        if self.kind == "none":
            return self.system.apply(z)
        return self.system.apply_given(z, r[: self.system.n_u])


@dataclass
class SolveReport:
    """One solve's record; its iteration count and verdicts are read off
    the residual history."""

    method: str
    preconditioner: str
    residuals: list[float]  # true relative residuals, entry 0 for the initial guess
    precond_residuals: list[float]  # recurrence estimate in the preconditioner norm
    tol: float
    maxit: int
    wall_time: float  # concurrent solves overlap, so a study's times need not add up
    restart: int | None = None

    @property
    def iterations(self) -> int:
        return len(self.residuals) - 1

    @property
    def converged(self) -> bool:
        return bool(self.residuals[-1] <= self.tol)

    @property
    def stagnated(self) -> bool:
        return _detect_stagnation(self.residuals, self.tol)

    def summary(self) -> str:
        flag = "converged" if self.converged else "NOT converged"
        extra = " (stagnated)" if self.stagnated else ""
        return (
            f"{self.method}/{self.preconditioner}: {self.iterations} iterations, "
            f"relres {self.residuals[-1]:.3e}, {flag}{extra}, "
            f"{self.wall_time:.2f}s"
        )

    def write_csv(self, path: str | Path) -> None:
        path = Path(path)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("iteration,relres\n")
            for k, r in enumerate(self.residuals):
                fh.write(f"{k},{r:.6e}\n")


def _detect_stagnation(residuals: list[float], tol: float) -> bool:
    w = STAGNATION_WINDOW
    for k in range(w, len(residuals)):
        if (
            residuals[k] > STAGNATION_FACTOR * tol
            and residuals[k] >= STAGNATION_IMPROVEMENT * residuals[k - w]
        ):
            return True
    return False


@dataclass
class StokesSolution:
    velocity: WGField
    pressure: PressureField
    report: SolveReport
    raw: np.ndarray  # rescaled unknowns (mu*u, p) as iterated
    alpha_h: float  # boundary-flux defect of the system that was solved


def minres(
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
            "minres", precond.kind, [0.0], [0.0], tol, maxit, time.perf_counter() - t0
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
        "minres", precond.kind, residuals, precond_res, tol, maxit, time.perf_counter() - t0
    )
    return x, report


def gmres_restart(
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
            "gmres", precond.kind, [0.0], [0.0], tol, maxit, time.perf_counter() - t0, restart
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
        "gmres", precond.kind, residuals, list(residuals), tol, maxit,
        time.perf_counter() - t0, restart,
    )
    return x, report


def default_tolerance(dim: int) -> float:
    return 1e-9 if dim == 2 else 1e-8


def _to_solution(system: SaddleSystem, x: np.ndarray, report: SolveReport) -> StokesSolution:
    interior, facet, p = system.split(x)
    vol = system.Mp
    p = p - float(p @ vol) / float(vol.sum())
    velocity = WGField(
        dim=system.dof.dim,
        interior=interior,
        facet=facet,
        boundary=system.g_boundary.copy(),
    )
    return StokesSolution(velocity, PressureField(p), report, x, system.alpha_h)


def solve_system(
    system: SaddleSystem,
    method: str = "minres",
    precond: str | None = None,
    tol: float | None = None,
    maxit: int = 1000,
    restart: int = 30,
    inner_solver: InnerSolver | None = None,
) -> StokesSolution:
    """Solve a prebuilt system with its own A-block factor or `inner_solver`."""
    kind = preconditioner_for(method, precond)
    if tol is None:
        tol = default_tolerance(system.dof.dim)
    p = SaddlePreconditioner(system, kind, inner_solver)
    if method == "minres":
        x, report = minres(system, p, tol, maxit)
    else:
        x, report = gmres_restart(system, p, tol, maxit, restart)
    return _to_solution(system, x, report)


def solve_stokes(
    mesh: Mesh,
    problem: StokesProblem,
    method: str = "minres",
    precond: str | None = None,
) -> StokesSolution:
    """Assemble and solve with `solve_system`'s defaults; velocity is returned
    unscaled, pressure zero-mean. For other settings call `build_saddle_system`
    and `solve_system`."""
    return solve_system(build_saddle_system(mesh, problem), method, precond)
