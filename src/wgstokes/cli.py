"""Command line front end: batch studies that emit CSV and markdown tables.

Subcommands
-----------
convergence    error tables with rates over a mesh sequence
solver-study   iteration-count grid over mesh levels and viscosities
spectral       dense eigenvalue verification on small systems
inconsistency  raw versus corrected right-hand side residual histories
export-system  write the assembled blocks in Matrix Market format

Each subcommand takes only the settings it reads (`_COMMANDS`), as flags or
as keys of a JSON config file (``--config``); any other flag or key exits 2.
Explicit flags win over file values, which win over the built-in defaults.
Exit codes: 0 success, 1 a solve failed or broke down, 2 bad configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
import types
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

from .assembly import build_saddle_system, each_viscosity, export_system
from .krylov import METHODS, PRECONDITIONERS, preconditioner_for, solve_system
from .mesh import Mesh, load_mesh, structured_simplex_mesh
from .problems import BUILTIN_PROBLEMS, StokesProblem, builtin_problem, problem_from_expressions
from .verification import ERROR_FIELDS, convergence_study, inconsistency_demo, spectral_report
from .wg_core import FACET_METHODS

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    """Raised for invalid or contradictory experiment settings."""


@dataclass
class ExperimentConfig:
    """Settings of every subcommand; JSON config files use these field names and types."""

    problem: str = "stokes2d_exp"
    dim: int | None = None
    mu: list[float] = field(default_factory=lambda: [1.0])
    levels: list[int] = field(default_factory=list)
    mesh_files: list[str] = field(default_factory=list)
    qg: str = "barycenter"
    method: str = "minres"
    precond: str | None = None
    tol: float | None = None
    restart: int = 30
    maxit: int = 1000
    out: str = "."
    consistent: bool = True
    velocity: list[str] = field(default_factory=list)
    pressure: str | None = None


def _load_config_file(path: Path) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    return data


def _fits(value, hint) -> bool:
    """Whether a JSON value has the type of a config field."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is types.UnionType:
        return any(_fits(value, h) for h in args)
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_fits(v, args[0]) for v in value)
    if isinstance(value, bool):  # JSON true/false is never a number
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig()
    hints = typing.get_type_hints(ExperimentConfig)
    declared = {f.name: f.type for f in fields(ExperimentConfig)}
    _, _, settings = _COMMANDS[args.command]
    values = _load_config_file(args.config) if args.config is not None else {}
    for key, value in values.items():
        if key not in settings:
            raise ConfigError(f"{args.command} takes no config key {key!r}")
        if not _fits(value, hints[key]) and _fits([value], hints[key]):
            value = [value]  # a list field also takes one item
        if not _fits(value, hints[key]):
            raise ConfigError(f"config key {key!r} must be {declared[key]}, got {value!r}")
        setattr(cfg, key, value)
    for name in settings:  # every flag is named after its field and defaults to None
        value = getattr(args, name)
        if value is not None:
            setattr(cfg, name, value)
    _normalize(cfg)
    _validate(cfg)
    if cfg.method != "gmres" and ("restart" in values or getattr(args, "restart", None)):
        raise ConfigError(f"--restart is the GMRES restart length; {cfg.method} takes none")
    return cfg


def _normalize(cfg: ExperimentConfig) -> None:
    cfg.mu = [float(m) for m in cfg.mu]
    if cfg.problem == "custom" and cfg.dim is None and cfg.velocity:
        cfg.dim = len(cfg.velocity)


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.problem not in BUILTIN_PROBLEMS + ("custom",):
        raise ConfigError(
            f"unknown problem {cfg.problem!r}; choose one of "
            f"{', '.join(BUILTIN_PROBLEMS)} or 'custom'"
        )
    if not cfg.mu:
        raise ConfigError("need at least one viscosity value")
    if any(m <= 0 for m in cfg.mu):
        raise ConfigError("viscosity values must be positive")
    if cfg.tol is not None and not 0.0 < cfg.tol < 1.0:
        raise ConfigError("tol must lie in (0, 1)")
    if cfg.restart < 1:
        raise ConfigError("restart must be a positive integer")
    if cfg.maxit < 1:
        raise ConfigError("maxit must be a positive integer")
    if cfg.qg not in FACET_METHODS:
        raise ConfigError(f"qg must be one of {', '.join(FACET_METHODS)}")
    try:
        preconditioner_for(cfg.method, cfg.precond)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if any(not isinstance(n, int) or n < 1 for n in cfg.levels):
        raise ConfigError("mesh levels must be positive integers")
    if not cfg.levels and not cfg.mesh_files:
        raise ConfigError("no meshes: give --levels or --mesh-file")
    if cfg.problem == "custom":
        if not cfg.velocity or cfg.pressure is None:
            raise ConfigError(
                "custom problems need --velocity (one per component) and --pressure"
            )
        if cfg.dim not in (2, 3):
            raise ConfigError("custom problems need --dim 2 or 3")


def make_problem(cfg: ExperimentConfig) -> StokesProblem:
    if cfg.problem == "custom":
        try:
            return problem_from_expressions(cfg.dim, cfg.velocity, cfg.pressure, mu=cfg.mu[0])
        except ValueError as exc:
            raise ConfigError(f"custom problem: {exc}") from exc
    prob = builtin_problem(cfg.problem, mu=cfg.mu[0])
    if cfg.dim is not None and cfg.dim != prob.dim:
        raise ConfigError(f"{cfg.problem} is {prob.dim}D, but --dim {cfg.dim} given")
    return prob


def resolve_meshes(cfg: ExperimentConfig, dim: int) -> list[Mesh]:
    meshes = [structured_simplex_mesh(dim, n) for n in cfg.levels]
    for path in cfg.mesh_files:
        mesh = load_mesh(path)
        if mesh.dim != dim:
            raise ConfigError(f"mesh {path} is {mesh.dim}D, problem is {dim}D")
        meshes.append(mesh)
    return meshes


def _only_one(what: str, given: list) -> None:
    """ConfigError unless a subcommand that works on one `what` got one."""
    if len(given) != 1:
        raise ConfigError(f"this subcommand takes one {what}, got {len(given)}")


def _outdir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def run_convergence(cfg: ExperimentConfig) -> int:
    problem = make_problem(cfg)
    meshes = resolve_meshes(cfg, problem.dim)
    table = convergence_study(
        problem, meshes, mu_values=tuple(cfg.mu), qg_method=cfg.qg,
        method=cfg.method, tol=cfg.tol, maxit=cfg.maxit, restart=cfg.restart,
    )
    out = _outdir(cfg)
    table.write_csv(out / "convergence.csv")
    sections = [f"# Convergence: {problem.name} (qg={cfg.qg}, {cfg.method})", ""]
    for name in ERROR_FIELDS:
        sections += [f"## {name}", "", table.to_markdown(name), ""]
    (out / "convergence.md").write_text("\n".join(sections), encoding="utf-8")
    print(table.to_markdown("l2_velocity"))
    print(f"wrote {out / 'convergence.csv'} and {out / 'convergence.md'}")
    ok = all(rep.converged for rep in table.reports.values())
    if not ok:
        print("warning: at least one solve did not reach the tolerance", file=sys.stderr)
    return EXIT_OK if ok else EXIT_SOLVER


def run_solver_study(cfg: ExperimentConfig) -> int:
    problem = make_problem(cfg)
    meshes = resolve_meshes(cfg, problem.dim)
    precond = preconditioner_for(cfg.method, cfg.precond)

    def solve(system):
        return solve_system(system, cfg.method, precond, cfg.tol, cfg.maxit, cfg.restart).report

    grid = [each_viscosity(m, problem, cfg.mu, cfg.qg, cfg.consistent, solve) for m in meshes]
    out = _outdir(cfg)
    csv_path = out / "solver_study.csv"
    with csv_path.open("w", encoding="utf-8") as fh:
        fh.write("N,mu,method,precond,iterations,converged,final_relres\n")
        for mesh, reps in zip(meshes, grid):
            for mu, rep in zip(cfg.mu, reps):
                fh.write(
                    f"{mesh.num_elements},{mu:.6e},{cfg.method},{precond},{rep.iterations},"
                    f"{int(rep.converged)},{rep.residuals[-1]:.6e}\n"
                )
    header = "| N | " + " | ".join(f"its (mu={m:g})" for m in cfg.mu) + " |"
    lines = [header, "|---|" + "---|" * len(cfg.mu)]
    for mesh, reps in zip(meshes, grid):
        cells = [f"{rep.iterations}{'' if rep.converged else '*'}" for rep in reps]
        lines.append(f"| {mesh.num_elements} | " + " | ".join(cells) + " |")
    md = "\n".join(lines)
    (out / "solver_study.md").write_text(md + "\n", encoding="utf-8")
    print(f"{cfg.method} with {precond} preconditioning")
    print(md)
    if not all(rep.converged for reps in grid for rep in reps):
        print("* did not reach the tolerance within maxit", file=sys.stderr)
        return EXIT_SOLVER
    print(f"wrote {csv_path}")
    return EXIT_OK


def run_spectral(cfg: ExperimentConfig) -> int:
    meshes = resolve_meshes(cfg, make_problem(cfg).dim)
    out = _outdir(cfg)
    summary_rows = []
    for mesh in meshes:
        try:
            report = spectral_report(mesh)
        except ValueError as exc:
            raise ConfigError(f"mesh with {mesh.num_elements} elements: {exc}") from exc
        path = out / f"spectral_eigs_N{mesh.num_elements}.csv"
        report.write_csv(path)
        print(f"N = {mesh.num_elements}")
        print(report.summary())
        print(f"eigenvalues written to {path}")
        summary_rows.append((mesh.num_elements, report))
    with (out / "spectral_summary.csv").open("w", encoding="utf-8") as fh:
        fh.write(
            "N,beta,zero_gamma_count,gamma_max,gamma_upper_ok,"
            "zero_lambda_count,lambda_violations,quad_map_max_dist\n"
        )
        for n, rep in summary_rows:
            fh.write(
                f"{n},{rep.beta:.6e},{rep.zero_gamma_count},"
                f"{rep.gammas[-1]:.6e},{int(rep.gamma_upper_ok)},"
                f"{rep.zero_lambda_count},{len(rep.lambda_interval_violations)},"
                f"{rep.quad_map_max_dist:.6e}\n"
            )
    return EXIT_OK


def run_inconsistency(cfg: ExperimentConfig) -> int:
    _only_one("viscosity", cfg.mu)
    _only_one("mesh", cfg.levels + cfg.mesh_files)
    problem = make_problem(cfg)
    mesh = resolve_meshes(cfg, problem.dim)[0]
    demo = inconsistency_demo(
        mesh, problem, method=cfg.method, qg_method=cfg.qg, tol=cfg.tol,
        maxit=cfg.maxit, restart=cfg.restart,
    )
    out = _outdir(cfg)
    raw_path = out / "inconsistency_raw.csv"
    fixed_path = out / "inconsistency_fixed.csv"
    demo.report_raw.write_csv(raw_path)
    demo.report_fixed.write_csv(fixed_path)
    print(demo.summary())
    print(f"residual histories written to {raw_path} and {fixed_path}")
    return EXIT_OK if demo.report_fixed.converged else EXIT_SOLVER


def run_export(cfg: ExperimentConfig) -> int:
    _only_one("viscosity", cfg.mu)
    _only_one("mesh", cfg.levels + cfg.mesh_files)
    problem = make_problem(cfg)
    mesh = resolve_meshes(cfg, problem.dim)[0]
    system = build_saddle_system(mesh, problem, cfg.qg, cfg.consistent)
    out = _outdir(cfg)
    paths = export_system(system, out)
    meta = {
        "dim": system.mesh.dim,
        "num_elements": mesh.num_elements,
        "n_u": system.n_u,
        "n_p": system.n_p,
        "mu": system.mu,
        "alpha_h": system.alpha_h,
        "consistent": system.consistent,
        "qg_method": cfg.qg,
        "problem": problem.name,
    }
    meta_path = out / "system_meta.json"
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", "utf-8")
    for p in paths + [meta_path]:
        print(f"wrote {p}")
    return EXIT_OK


# Every setting: its ExperimentConfig field, flag and argparse options.
_FLAGS = {
    "out": ("--out", dict(metavar="DIR", help="output directory (default: current directory)")),
    "problem": ("--problem", dict(help="stokes2d_exp, stokes3d_trig, or custom")),
    "dim": ("--dim", dict(type=int, choices=(2, 3),
                          help="space dimension (needed for custom problems)")),
    "mu": ("--mu", dict(type=float, action="append", metavar="MU",
                        help="viscosity; convergence and solver-study take several")),
    "levels": ("--levels", dict(type=int, nargs="+", metavar="N",
                                help="structured mesh subdivisions, e.g. --levels 4 8 16")),
    "mesh_files": ("--mesh-file", dict(action="append", metavar="PATH",
                                       help="mesh file to load; repeatable")),
    "qg": ("--qg", dict(choices=FACET_METHODS, help="boundary-data projection rule")),
    "velocity": ("--velocity", dict(action="append", metavar="EXPR", help=(
        "exact velocity component (custom problems; repeat per component)"))),
    "pressure": ("--pressure", dict(metavar="EXPR", help="exact pressure (custom problems)")),
    "method": ("--method", dict(choices=METHODS, help="Krylov method")),
    "tol": ("--tol", dict(type=float, help=(
        "relative residual tolerance (default 1e-9 in 2D, 1e-8 in 3D)"))),
    "restart": ("--restart", dict(type=int, help="GMRES restart length")),
    "maxit": ("--maxit", dict(type=int, help="iteration cap")),
    "precond": ("--precond", dict(choices=PRECONDITIONERS,
                                  help="preconditioner (default depends on the method)")),
    "consistent": ("--inconsistent", dict(action="store_false", default=None,
                                          help="keep the raw incompatible right-hand side")),
}
_PROBLEM_AND_MESHES = (
    "out", "problem", "dim", "mu", "levels", "mesh_files", "qg", "velocity", "pressure",
)
_SOLVER = ("method", "tol", "restart", "maxit")

# Each subcommand and the settings it reads; its parser offers only these
# flags and its config file may hold only these keys. convergence and
# inconsistency use the method's default preconditioner, convergence solves
# the corrected system and inconsistency both; export-system solves nothing,
# and spectral reads only the meshes, whose dimension the problem sets.
_COMMANDS = {
    "convergence": (run_convergence, "error table with rates over a mesh sequence",
                    _PROBLEM_AND_MESHES + _SOLVER),
    "solver-study": (run_solver_study, "iteration counts over levels and viscosities",
                     _PROBLEM_AND_MESHES + _SOLVER + ("precond", "consistent")),
    "spectral": (run_spectral, "dense eigenvalue verification on small meshes",
                 ("out", "problem", "dim", "levels", "mesh_files", "velocity", "pressure")),
    "inconsistency": (run_inconsistency, "compare raw and corrected right-hand sides",
                      _PROBLEM_AND_MESHES + _SOLVER),
    "export-system": (run_export, "write the assembled system in Matrix Market form",
                      _PROBLEM_AND_MESHES + ("consistent",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wgstokes",
        description="Weak Galerkin Stokes studies: convergence, solver behavior, spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, settings) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        sp.add_argument("--config", type=Path, metavar="PATH",
                        help="JSON config file; explicit flags override it")
        for key in settings:
            flag, options = _FLAGS[key]
            sp.add_argument(flag, dest=key, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args, unread = build_parser().parse_known_args(argv)
        if unread:  # flags this subcommand does not read, named with the subcommand
            names = [a.split("=")[0] for a in unread if a.startswith("--")] or unread
            raise ConfigError(f"{args.command} takes no {', '.join(dict.fromkeys(names))}")
        cfg = config_from_args(args)
        return args.func(cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:  # a solver breakdown, from either thread
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
