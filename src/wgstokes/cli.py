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
import functools
import json
import math
import os
import sys
import types
import typing
from dataclasses import dataclass, field, fields
from itertools import zip_longest
from pathlib import Path

from .assembly import build_saddle_system, each_viscosity, export_system
from .krylov import METHODS, PRECONDITIONERS, default_tolerance, preconditioner_for, solve_system
from .mesh import Mesh, load_mesh, structured_simplex_mesh
from .problems import BUILTIN_PROBLEMS, StokesProblem, builtin_problem, problem_from_expressions
from .verification import (
    ERROR_FIELDS, ConvergenceTable, convergence_study, inconsistency_demo, spectral_report,
)
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
    mu: list[float] = field(default_factory=lambda: [1.0])
    levels: list[int] = field(default_factory=list)
    mesh_files: list[str] = field(default_factory=list)
    qg: str = "barycenter"
    method: str = "minres"
    precond: str | None = None
    tol: float | None = None  # solver settings left unset take solve_system's defaults
    restart: int | None = None
    maxit: int | None = None
    out: str = "."
    consistent: bool = True
    velocity: list[str] = field(default_factory=list)
    pressure: str | None = None


def _load_config_file(path: Path) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not UTF-8 text: {exc}") from exc
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
    cfg.mu = [float(m) for m in cfg.mu]
    _validate(cfg)
    if cfg.method != "gmres" and cfg.restart is not None:
        raise ConfigError(f"--restart is the GMRES restart length; {cfg.method} takes none")
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.problem not in BUILTIN_PROBLEMS + ("custom",):
        raise ConfigError(
            f"unknown problem {cfg.problem!r}; choose one of "
            f"{', '.join(BUILTIN_PROBLEMS)} or 'custom'"
        )
    if not cfg.mu:
        raise ConfigError("need at least one viscosity value")
    if not all(0 < m < math.inf for m in cfg.mu):
        raise ConfigError("viscosity values must be positive and finite")
    if cfg.tol is not None and not 0.0 < cfg.tol < 1.0:
        raise ConfigError("tol must lie in (0, 1)")
    for name in ("restart", "maxit"):
        if getattr(cfg, name) is not None and getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be a positive integer")
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
    # the output directory is made only after the study, so a path that
    # cannot become one is rejected before anything is solved
    out = Path(cfg.out)
    nearest = next((p for p in (out, *out.parents) if os.path.lexists(p)), None)
    if nearest is not None and not os.path.isdir(nearest):
        raise ConfigError(f"cannot write to {cfg.out}: {nearest} is not a directory")
    if cfg.problem == "custom":
        if not cfg.velocity or cfg.pressure is None:
            raise ConfigError(
                "custom problems need --velocity (one per component) and --pressure"
            )
        if len(cfg.velocity) not in (2, 3):
            raise ConfigError(f"custom problems need 2 or 3 --velocity, got {len(cfg.velocity)}")
    elif cfg.velocity or cfg.pressure is not None:
        raise ConfigError("--velocity and --pressure are read only with --problem custom")


def make_problem(cfg: ExperimentConfig) -> StokesProblem:
    if cfg.problem == "custom":
        try:
            return problem_from_expressions(cfg.velocity, cfg.pressure, mu=cfg.mu[0])
        except ValueError as exc:
            raise ConfigError(f"custom problem: {exc}") from exc
    return builtin_problem(cfg.problem, mu=cfg.mu[0])


def resolve_meshes(cfg: ExperimentConfig, dim: int) -> list[Mesh]:
    meshes = [structured_simplex_mesh(dim, n) for n in cfg.levels]
    for path in cfg.mesh_files:
        try:
            mesh = load_mesh(path)
        except OSError as exc:
            raise ConfigError(f"cannot read mesh file {path}: {exc.strerror or exc}") from exc
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
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write to {cfg.out}: {exc.strerror or exc}") from exc
    return out


def _solver(cfg: ExperimentConfig):
    """The `solve(system)` of a study: `solve_system` with the settings this run set."""
    settings = {name: getattr(cfg, name) for name in _SOLVER + ("precond",)}
    return functools.partial(solve_system, **{k: v for k, v in settings.items() if v is not None})


def _write_csv(path: Path, columns: list[str], rows) -> None:
    """A header line of `columns`, then one line per row, cells as str() gives them."""
    path.write_text("".join(",".join(map(str, row)) + "\n" for row in (columns, *rows)), "utf-8")


def _markdown_table(header: list[str], rows) -> str:
    """A pipe table: the header, one `---` per column, then a line per row."""
    sep = "|" + "|".join("---" for _ in header) + "|"
    body = ["| " + " | ".join(map(str, row)) + " |" for row in rows]
    return "\n".join(["| " + " | ".join(header) + " |", sep, *body])


def _convergence_csv(table: ConvergenceTable, path: Path) -> None:
    """One row per viscosity and level; a level's rates are against the one before."""
    columns = ["N", "h", "mu"]
    for name in ERROR_FIELDS:
        columns += [name, f"{name}_rate"]
    columns += ["alpha_h", "iterations", "converged"]
    rows = []
    for mu in table.mu_values:
        rates = {name: table.rates(mu, name) for name in ERROR_FIELDS}
        for i in range(len(table.levels)):
            r = table.reports[(mu, i)]
            row = [r.num_elements, f"{r.h:.6e}", f"{mu:g}"]
            for name in ERROR_FIELDS:
                rate = rates[name][i]
                row += [f"{getattr(r, name):.6e}", "" if rate is None else f"{rate:.3f}"]
            rows.append(row + [f"{r.alpha_h:.6e}", r.iterations, r.converged])
    _write_csv(path, columns, rows)


def _convergence_markdown(table: ConvergenceTable, name: str) -> str:
    """The errors in `name` per level, an error and a rate column per viscosity."""
    header = ["N"]
    for mu in table.mu_values:
        header += [f"error (mu={mu:g})", "conv. rate"]
    rates = {mu: table.rates(mu, name) for mu in table.mu_values}
    rows = []
    for i, n in enumerate(table.levels):
        row = [n]
        for mu in table.mu_values:
            rate = rates[mu][i]
            row += [f"{getattr(table.reports[(mu, i)], name):.6e}",
                    "-" if rate is None else f"{rate:.3f}"]
        rows.append(row)
    return _markdown_table(header, rows)


def run_convergence(cfg: ExperimentConfig) -> int:
    problem = make_problem(cfg)
    meshes = resolve_meshes(cfg, problem.dim)
    table = convergence_study(problem, meshes, tuple(cfg.mu), cfg.qg, solve=_solver(cfg))
    out = _outdir(cfg)
    _convergence_csv(table, out / "convergence.csv")
    sections = [f"# Convergence: {problem.name} (qg={cfg.qg}, {cfg.method})", ""]
    for name in ERROR_FIELDS:
        sections += [f"## {name}", "", _convergence_markdown(table, name), ""]
    (out / "convergence.md").write_text("\n".join(sections), encoding="utf-8")
    print(_convergence_markdown(table, "l2_velocity"))
    print(f"wrote {out / 'convergence.csv'} and {out / 'convergence.md'}")
    ok = all(rep.converged for rep in table.reports.values())
    if not ok:
        print("warning: at least one solve did not reach the tolerance", file=sys.stderr)
    return EXIT_OK if ok else EXIT_SOLVER


def run_solver_study(cfg: ExperimentConfig) -> int:
    problem = make_problem(cfg)
    meshes = resolve_meshes(cfg, problem.dim)
    precond = preconditioner_for(cfg.method, cfg.precond)
    solve = _solver(cfg)
    grid = [
        each_viscosity(m, problem, cfg.mu, cfg.qg, cfg.consistent, lambda s: solve(s).report)
        for m in meshes
    ]
    out = _outdir(cfg)
    csv_path = out / "solver_study.csv"
    columns = ["N", "mu", "method", "precond", "iterations", "converged", "final_relres"]
    _write_csv(csv_path, columns, [
        [mesh.num_elements, f"{mu:.6e}", cfg.method, precond, rep.iterations,
         int(rep.converged), f"{rep.residuals[-1]:.6e}"]
        for mesh, reps in zip(meshes, grid)
        for mu, rep in zip(cfg.mu, reps)
    ])
    counts = [
        [mesh.num_elements, *(f"{r.iterations}{'' if r.converged else '*'}" for r in reps)]
        for mesh, reps in zip(meshes, grid)
    ]
    md = _markdown_table(["N", *(f"its (mu={m:g})" for m in cfg.mu)], counts)
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
    summary = []
    for mesh in meshes:
        try:
            rep = spectral_report(mesh)
        except ValueError as exc:
            raise ConfigError(f"mesh with {mesh.num_elements} elements: {exc}") from exc
        path = out / f"spectral_eigs_N{mesh.num_elements}.csv"
        _write_csv(path, ["index", "gamma", "lambda"], (
            [i, *("" if v is None else f"{v:.10e}" for v in pair)]
            for i, pair in enumerate(zip_longest(rep.gammas, rep.lambdas))
        ))
        print(f"N = {mesh.num_elements}")
        print(rep.summary())
        print(f"eigenvalues written to {path}")
        summary.append([
            mesh.num_elements, f"{rep.beta:.6e}", rep.zero_gamma_count,
            f"{rep.gammas[-1]:.6e}", int(rep.gamma_upper_ok), rep.zero_lambda_count,
            len(rep.lambda_interval_violations), f"{rep.quad_map_max_dist:.6e}",
        ])
    columns = ["N", "beta", "zero_gamma_count", "gamma_max", "gamma_upper_ok",
               "zero_lambda_count", "lambda_violations", "quad_map_max_dist"]
    _write_csv(out / "spectral_summary.csv", columns, summary)
    return EXIT_OK


def run_inconsistency(cfg: ExperimentConfig) -> int:
    _only_one("viscosity", cfg.mu)
    _only_one("mesh", cfg.levels + cfg.mesh_files)
    problem = make_problem(cfg)
    mesh = resolve_meshes(cfg, problem.dim)[0]
    demo = inconsistency_demo(mesh, problem, cfg.qg, solve=_solver(cfg))
    out = _outdir(cfg)
    paths = [out / f"inconsistency_{kind}.csv" for kind in ("raw", "fixed")]
    for path, rep in zip(paths, (demo.report_raw, demo.report_fixed)):
        _write_csv(path, ["iteration", "relres"], enumerate(f"{r:.6e}" for r in rep.residuals))
    print(demo.summary())
    print(f"residual histories written to {paths[0]} and {paths[1]}")
    return EXIT_OK if demo.report_fixed.converged else EXIT_SOLVER


def run_export(cfg: ExperimentConfig) -> int:
    _only_one("viscosity", cfg.mu)
    _only_one("mesh", cfg.levels + cfg.mesh_files)
    problem = make_problem(cfg)
    mesh = resolve_meshes(cfg, problem.dim)[0]
    system = build_saddle_system(mesh, problem, cfg.qg, cfg.consistent)
    out = _outdir(cfg)
    from scipy.io import mmwrite  # only this subcommand writes Matrix Market
    paths = []
    for name, mat in export_system(system).items():
        paths.append(out / f"system_{name}.mtx")
        mmwrite(paths[-1], mat)
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
        f"relative residual tolerance (default {default_tolerance(2)} in 2D, "
        f"{default_tolerance(3)} in 3D)"))),
    "restart": ("--restart", dict(type=int, help="GMRES restart length")),
    "maxit": ("--maxit", dict(type=int, help="iteration cap")),
    "precond": ("--precond", dict(choices=PRECONDITIONERS,
                                  help="preconditioner (default depends on the method)")),
    "consistent": ("--inconsistent", dict(action="store_false", default=None,
                                          help="keep the raw incompatible right-hand side")),
}
_PROBLEM_AND_MESHES = (
    "out", "problem", "mu", "levels", "mesh_files", "qg", "velocity", "pressure",
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
                 ("out", "problem", "levels", "mesh_files", "velocity", "pressure")),
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
