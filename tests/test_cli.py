"""End-to-end command line tests: outputs, exit codes, config handling.

A case named `config` gives its settings in an argument file (`@PATH`)
instead of typing them.
"""

import json
import re
import sys

import pytest

from wgstokes import assembly, cli, krylov

CAVITY = [
    "--problem", "custom",
    "--velocity=2*x**2*(1-x)**2*y*(1-y)*(1-2*y)",
    "--velocity=-2*x*(1-x)*(1-2*x)*y**2*(1-y)**2",
    "--pressure", "x*y - 1/4",
]


def args_file(path, text):
    """Write `text` to `path`; return the argument that reads its flags."""
    path.write_text(text, encoding="utf-8")
    return f"@{path}"


def test_help_lists_all_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("convergence", "solver-study", "spectral", "inconsistency",
                 "export-system"):
        assert name in out


# The flags each subcommand reads; every other flag exits 2.
PROBLEM_AND_MESHES = {"--out", "--problem", "--mu", "--levels", "--mesh-file",
                      "--qg", "--velocity", "--pressure"}
SOLVER = {"--method", "--tol", "--restart", "--maxit"}
FLAGS = {
    "convergence": PROBLEM_AND_MESHES | SOLVER,
    "solver-study": PROBLEM_AND_MESHES | SOLVER | {"--precond", "--inconsistent"},
    "spectral": PROBLEM_AND_MESHES - {"--mu", "--qg"},
    "inconsistency": PROBLEM_AND_MESHES | SOLVER,
    "export-system": PROBLEM_AND_MESHES | {"--inconsistent"},
}


@pytest.mark.parametrize("command", FLAGS)
def test_help_lists_only_the_subcommands_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert listed == FLAGS[command] | {"--help"}


def test_missing_mesh_source_is_config_error(capsys):
    assert cli.main(["convergence"]) == 2
    assert "no meshes" in capsys.readouterr().err


def test_minres_with_triangular_preconditioner_is_config_error(monkeypatch, capsys):
    argv = ["solver-study", "--levels", "2", "--method", "minres",
            "--precond", "block_lower_tri"]
    with pytest.raises(cli.ConfigError, match="minres"):
        cli.config_from_args(cli.build_parser().parse_args(argv))

    def no_mesh(*args):
        raise AssertionError("a mesh was built before the configuration was checked")

    monkeypatch.setattr(cli, "structured_simplex_mesh", no_mesh)
    assert cli.main(argv) == 2
    assert "minres" in capsys.readouterr().err


def test_convergence_writes_csv_and_markdown(tmp_path):
    code = cli.main(
        ["convergence", "--levels", "2", "4", "--out", str(tmp_path)]
    )
    assert code == 0
    csv_lines = (tmp_path / "convergence.csv").read_text().strip().splitlines()
    assert csv_lines[0].startswith("N,")
    assert len(csv_lines) == 3
    md = (tmp_path / "convergence.md").read_text()
    assert "conv. rate" in md
    table_rows = [r for r in md.splitlines() if r.startswith("| 8 ")]
    assert table_rows and table_rows[0].split("|")[3].strip() == "-"


def test_identical_invocations_produce_identical_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(
            ["convergence", "--levels", "2", "4", "--out", str(out)]
        ) == 0
    assert (a / "convergence.csv").read_bytes() == (b / "convergence.csv").read_bytes()


# The cell formats of the written files: %.6e, %.10e, %.3f and integers.
E6 = r"-?\d\.\d{6}e[+-]\d\d"
E10 = r"-?\d\.\d{10}e[+-]\d\d"
INT = r"\d+"
RATE = r"(\d\.\d{3}|)"  # empty on the first level
COMMANDS = {
    "convergence": ["convergence", "--levels", "2", "4", "--mu", "1", "--mu", "1e-4"],
    "solver-study": ["solver-study", "--levels", "2", "4", "--mu", "1", "--mu", "1e-4"],
    "spectral": ["spectral", "--levels", "2"],
    "inconsistency": ["inconsistency", "--levels", "2"],
}
# (command, file, its exact header line, the cells of each of its rows)
CSV_FILES = [
    ("convergence", "convergence.csv",
     "N,h,mu,l2_velocity,l2_velocity_rate,superconv,superconv_rate,grad_error,"
     "grad_error_rate,pressure_error,pressure_error_rate,alpha_h,iterations,converged",
     [INT, E6, r"1\.000000e\+00|1\.000000e-04", E6, RATE, E6, RATE, E6, RATE, E6, RATE, E6,
      INT, "1"]),
    ("solver-study", "solver_study.csv",
     "N,mu,method,precond,iterations,converged,final_relres",
     [INT, r"1\.000000e\+00|1\.000000e-04", "minres", "block_diag", INT, "1", E6]),
    ("spectral", "spectral_eigs_N8.csv", "index,gamma,lambda", [INT, f"({E10}|)", E10]),
    ("spectral", "spectral_summary.csv",
     "N,beta,zero_gamma_count,gamma_max,gamma_upper_ok,zero_lambda_count,"
     "lambda_violations,quad_map_max_dist",
     [INT, E6, INT, E6, "1", INT, INT, E6]),
    ("inconsistency", "inconsistency_raw.csv", "iteration,relres", [INT, E6]),
    ("inconsistency", "inconsistency_fixed.csv", "iteration,relres", [INT, E6]),
]


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The output directory of each command in COMMANDS."""
    dirs = {}
    for name, argv in COMMANDS.items():
        dirs[name] = tmp_path_factory.mktemp(name)
        assert cli.main([*argv, "--out", str(dirs[name])]) == 0
    return dirs


@pytest.mark.parametrize(
    "command,name,header,cells", CSV_FILES, ids=[f for _, f, _, _ in CSV_FILES]
)
def test_csv_header_and_cell_formats(written, command, name, header, cells):
    lines = (written[command] / name).read_text(encoding="utf-8").split("\n")
    assert lines[0] == header and lines[-1] == ""  # every line ends in a newline
    assert len(lines) > 2
    for line in lines[1:-1]:
        assert re.fullmatch(",".join(f"({c})" for c in cells), line), line


def test_csv_blank_cells_and_viscosity_order(written):
    # the first level of each viscosity has no rate; mu is %.6e in every CSV
    rows = (written["convergence"] / "convergence.csv").read_text().splitlines()[1:]
    assert [r.split(",")[2] for r in rows] == ["1.000000e+00"] * 2 + ["1.000000e-04"] * 2
    assert [r.split(",")[4] == "" for r in rows] == [True, False, True, False]
    spectral = (written["spectral"] / "spectral_eigs_N8.csv").read_text().splitlines()
    assert spectral[1].startswith("0,") and spectral[-1].split(",")[1] == ""


@pytest.mark.parametrize(
    "command,name,separator",
    [("convergence", "convergence.md", "|---|---|---|---|---|"),
     ("solver-study", "solver_study.md", "|---|---|---|")],
    ids=["convergence", "solver-study"],
)
def test_markdown_separator_row(written, command, name, separator):
    lines = (written[command] / name).read_text(encoding="utf-8").splitlines()
    headers = [i for i, line in enumerate(lines) if line.startswith("| N |")]
    assert headers and all(lines[i + 1] == separator for i in headers)
    cells = r"(\| [^|]+ )+\|"
    assert all(re.fullmatch(cells, lines[i]) for i in headers)


@pytest.mark.parametrize(
    "command,name,column",
    [("convergence", "convergence.csv", -2), ("solver-study", "solver_study.csv", 4),
     ("inconsistency", "inconsistency_fixed.csv", 0)],
    ids=["convergence", "solver-study", "inconsistency"],
)
def test_solver_settings_reach_every_study(tmp_path, command, name, column):
    # each study solves with the run's settings, here a cap of 3 iterations
    levels = ["2"] if command == "inconsistency" else ["2", "4"]
    argv = [command, "--levels", *levels, "--method", "gmres", "--maxit", "3"]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 1
    rows = [r.split(",") for r in (tmp_path / name).read_text().splitlines()[1:]]
    assert max(int(r[column]) for r in rows) == 3


def test_solver_study_grid_shape(tmp_path):
    code = cli.main(
        ["solver-study", "--levels", "2", "4", "--mu", "1", "--mu", "1e-4",
         "--out", str(tmp_path)]
    )
    assert code == 0
    lines = (tmp_path / "solver_study.csv").read_text().strip().splitlines()
    assert lines[0] == "N,mu,method,precond,iterations,converged,final_relres"
    assert len(lines) == 5
    assert all(",minres,block_diag," in ln for ln in lines[1:])


def test_solver_study_without_preconditioner_flags_failures(tmp_path, capsys):
    code = cli.main(
        ["solver-study", "--levels", "8", "--precond", "none", "--maxit", "20",
         "--out", str(tmp_path)]
    )
    assert code == 1
    assert "20*" in (tmp_path / "solver_study.md").read_text()
    assert "did not reach" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["convergence", "solver-study"])
def test_minres_breakdown_on_the_worker_is_a_solver_error(monkeypatch, tmp_path, capsys, command):
    # mu=1 solves on the worker thread; make its preconditioner indefinite
    # after the first application, so MINRES raises its own RuntimeError
    real_apply = krylov.SaddlePreconditioner.apply

    def indefinite(self, r):
        z = real_apply(self, r)
        self.calls = getattr(self, "calls", 0) + 1
        return -z if self.system.mu == 1.0 and self.calls > 1 else z

    monkeypatch.setattr(krylov.SaddlePreconditioner, "apply", indefinite)
    code = cli.main(
        [command, "--levels", "2", "4", "--mu", "1", "--mu", "1e-4", "--out", str(tmp_path)]
    )
    assert code == cli.EXIT_SOLVER == 1
    err = capsys.readouterr().err
    assert err.startswith("error: preconditioner lost positive definiteness")
    assert "Traceback" not in err


def test_gmres_defaults_to_triangular_preconditioner(tmp_path):
    code = cli.main(
        ["solver-study", "--levels", "4", "--method", "gmres", "--out", str(tmp_path)]
    )
    assert code == 0
    assert ",gmres,block_lower_tri," in (tmp_path / "solver_study.csv").read_text()


def test_spectral_reports_single_zero_eigenvalue(tmp_path, capsys):
    code = cli.main(["spectral", "--levels", "2", "--out", str(tmp_path)])
    assert code == 0
    assert "1 zero" in capsys.readouterr().out
    lines = (tmp_path / "spectral_summary.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    assert row[header.index("zero_gamma_count")] == "1"
    assert row[header.index("gamma_upper_ok")] == "1"
    eigs = (tmp_path / "spectral_eigs_N8.csv").read_text().splitlines()
    assert eigs[0] == "index,gamma,lambda"


def test_spectral_guard_produces_diagnostic_exit(tmp_path, capsys):
    code = cli.main(["spectral", "--levels", "16", "--out", str(tmp_path)])
    assert code == 2
    assert "guard" in capsys.readouterr().err


def test_inconsistency_emits_both_histories(tmp_path, capsys):
    code = cli.main(
        ["inconsistency", "--levels", "4", "--maxit", "200", "--out", str(tmp_path)]
    )
    assert code == 0
    assert "alpha_h" in capsys.readouterr().out
    for name in ("inconsistency_raw.csv", "inconsistency_fixed.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "iteration,relres"
        assert len(lines) > 2


def test_inconsistency_is_a_no_op_for_zero_boundary_data(tmp_path):
    code = cli.main(
        ["inconsistency", *CAVITY, "--levels", "3", "--out", str(tmp_path)]
    )
    assert code == 0
    raw = (tmp_path / "inconsistency_raw.csv").read_bytes()
    fixed = (tmp_path / "inconsistency_fixed.csv").read_bytes()
    assert raw == fixed


@pytest.mark.parametrize(
    "argv",
    [
        ["inconsistency", "--levels", "3", "5"],
        ["export-system", "--levels", "2", "3"],
        ["export-system", "--levels", "2", "--mesh-file", "unread.mesh"],
    ],
    ids=["inconsistency-levels", "export-levels", "export-level-and-file"],
)
def test_single_mesh_subcommands_reject_several_meshes(monkeypatch, tmp_path, capsys, argv):
    def no_mesh(*args):
        raise AssertionError("a mesh was built before the mesh count was checked")

    monkeypatch.setattr(cli, "structured_simplex_mesh", no_mesh)
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    assert "one mesh, got 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["convergence", "--levels", "2", "4", "--precond", "none"], "--precond"),
        (["convergence", "--levels", "2", "4", "--inconsistent"], "--inconsistent"),
        (["inconsistency", "--levels", "3", "--precond", "block_diag"], "--precond"),
        (["inconsistency", "--levels", "4", "--inconsistent"], "--inconsistent"),
        (["spectral", "--levels", "2", "--method", "gmres", "--precond", "none",
          "--tol", "0.5", "--maxit", "1"], "--method, --precond, --tol, --maxit"),
        (["export-system", "--levels", "3", "--method", "gmres", "--precond", "none",
          "--tol", "0.5"], "--method, --precond, --tol"),
        (["export-system", "--levels", "3", "--restart", "5"], "--restart"),
        # settings given at their default values are ignored just the same
        (["spectral", "--levels", "2", "--method", "minres", "--maxit", "1000"],
         "--method, --maxit"),
        (["export-system", "--levels", "2", "--restart", "30"], "--restart"),
        # the forcing is derived from (u, p) and mu, never given
        (["convergence", *CAVITY, "--forcing=-2", "--forcing", "0", "--mu", "1",
          "--mu", "1e-4", "--levels", "4", "8", "16"], "--forcing"),
    ],
    ids=["convergence-precond", "convergence-inconsistent", "inconsistency-precond",
         "inconsistency-inconsistent", "spectral-solver", "export-solver", "export-restart",
         "spectral-solver-defaults", "export-restart-default", "convergence-forcing"],
)
def test_ignored_flags_are_config_errors(monkeypatch, tmp_path, capsys, argv, flag):
    def no_mesh(*args):
        raise AssertionError("a mesh was built before the flags were checked")

    monkeypatch.setattr(cli, "structured_simplex_mesh", no_mesh)
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    assert f"{argv[0]} takes no {flag}\n" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command, text, flag",
    [
        ("spectral", "--levels 2\n--maxit 1000\n", "--maxit"),
        ("export-system", "--levels 2  # one mesh\n--restart 30\n", "--restart"),
        ("convergence", "--levels 2 4\n--forcing 0 --forcing=0\n", "--forcing"),
    ],
    ids=["spectral-maxit", "export-restart", "convergence-forcing"],
)
def test_config_key_the_subcommand_ignores_is_config_error(monkeypatch, tmp_path, capsys,
                                                          command, text, flag):
    # a flag read from an argument file is checked as a typed one is
    def no_mesh(*args):
        raise AssertionError("a mesh was built before the flags were checked")

    monkeypatch.setattr(cli, "structured_simplex_mesh", no_mesh)
    out = tmp_path / "out"
    assert cli.main([command, args_file(tmp_path / "run.args", text), "--out", str(out)]) == 2
    assert f"{command} takes no {flag}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["convergence", "solver-study", "inconsistency"])
@pytest.mark.parametrize("source", ["flags", "config", "config-method"])
def test_restart_with_minres_is_config_error(monkeypatch, tmp_path, capsys, command, source):
    # MINRES does not restart: a given --restart would be read by nothing
    def no_mesh(*args):
        raise AssertionError("a mesh was built before the restart was checked")

    monkeypatch.setattr(cli, "structured_simplex_mesh", no_mesh)
    given = {
        "flags": ["--restart", "5"],  # the default method is minres
        "config": [args_file(tmp_path / "a.args", "--restart 5\n--method minres\n")],
        "config-method": [args_file(tmp_path / "b.args", "--method minres"), "--restart", "30"],
    }[source]
    levels = ["--levels", "4"] if command == "inconsistency" else ["--levels", "2", "4"]
    out = tmp_path / "out"
    assert cli.main([command, *levels, *given, "--out", str(out)]) == 2
    assert "--restart is the GMRES restart length; minres takes none" in capsys.readouterr().err
    assert not out.exists()
    # the same restart with GMRES is read
    given = args_file(tmp_path / "run.args", "--restart 5 --method gmres")
    argv = [command, *levels, given, "--restart", "7"]
    assert cli.config_from_args(cli.build_parser().parse_args(argv)).restart == 7


def test_unset_solver_settings_keep_solve_system_defaults(capsys):
    # the CLI declares no solver default of its own: a setting left unset is
    # not passed, and the --tol help quotes default_tolerance
    parse = cli.build_parser().parse_args
    cfg = cli.config_from_args(parse(["solver-study", "--levels", "2"]))
    assert cli._solver(cfg).keywords == {"method": "minres"}
    cfg = cli.config_from_args(parse(["solver-study", "--levels", "2", "--maxit", "7"]))
    assert cli._solver(cfg).keywords == {"method": "minres", "maxit": 7}
    with pytest.raises(SystemExit):
        parse(["convergence", "--help"])
    tols = (krylov.default_tolerance(2), krylov.default_tolerance(3))
    text = " ".join(capsys.readouterr().out.split())
    assert "(default {} in 2D, {} in 3D)".format(*tols) in text


@pytest.mark.parametrize("command", ["spectral", "inconsistency", "export-system"])
@pytest.mark.parametrize("source", ["flags", "config"])
def test_single_problem_subcommands_reject_several_viscosities(monkeypatch, tmp_path, capsys,
                                                               command, source):
    def no_mesh(*args):
        raise AssertionError("a mesh was built before the viscosities were checked")

    monkeypatch.setattr(cli, "structured_simplex_mesh", no_mesh)
    mus = ["--mu", "1", "--mu", "1e-4"]
    if source == "config":
        mus = [args_file(tmp_path / "run.args", " ".join(mus))]
    out = tmp_path / "out"
    assert cli.main([command, "--levels", "2", *mus, "--out", str(out)]) == 2
    # spectral reads no viscosity at all
    message = "spectral takes no --mu" if command == "spectral" else "takes one viscosity, got 2"
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags", [["--mu", "1e-4"], ["--qg", "gauss3"], ["--inconsistent"]],
    ids=["mu", "qg", "inconsistent"],
)
@pytest.mark.parametrize("source", ["flags", "config"])
def test_spectral_takes_no_setting_its_report_ignores(monkeypatch, tmp_path, capsys, source,
                                                      flags):
    # the preconditioned operator is made of A, B and Mp, which depend only
    # on the mesh: no viscosity, projection rule or right-hand side reaches it
    def no_mesh(*args):
        raise AssertionError("a mesh was built before the settings were checked")

    monkeypatch.setattr(cli, "structured_simplex_mesh", no_mesh)
    given = flags if source == "flags" else [args_file(tmp_path / "run.args", " ".join(flags))]
    out = tmp_path / "out"
    assert cli.main(["spectral", "--levels", "2", *given, "--out", str(out)]) == 2
    assert f"spectral takes no {flags[0]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--velocity=0", "--velocity=0"], "custom problems need 2 or 3 --velocity, got 4"),
        (["--forcing", "0"], "convergence takes no --forcing"),
    ],
    ids=["velocity", "forcing"],
)
def test_custom_component_count_is_config_error(capsys, extra, message):
    assert cli.main(["convergence", *CAVITY, *extra, "--levels", "2", "4"]) == 2
    assert message in capsys.readouterr().err


def test_custom_dimension_is_the_velocity_count(monkeypatch, tmp_path, capsys):
    # the dimension is read off the expressions, and nothing else sets it
    def no_mesh(*args):
        raise AssertionError("a mesh was built before the dimension was checked")

    monkeypatch.setattr(cli, "structured_simplex_mesh", no_mesh)
    one = ["--problem", "custom", "--velocity=x", "--pressure", "0"]
    assert cli.main(["convergence", *one, "--levels", "2"]) == 2
    assert "custom problems need 2 or 3 --velocity, got 1" in capsys.readouterr().err
    assert cli.main(["convergence", *CAVITY, "--dim", "2", "--levels", "2"]) == 2
    assert "convergence takes no --dim" in capsys.readouterr().err
    given = args_file(tmp_path / "run.args", "--dim 2")
    assert cli.main(["convergence", *CAVITY, given, "--levels", "2"]) == 2
    assert "convergence takes no --dim" in capsys.readouterr().err


def test_export_system_writes_matrix_market_and_metadata(tmp_path):
    code = cli.main(["export-system", "--levels", "2", "--out", str(tmp_path)])
    assert code == 0
    for name in ("system_A.mtx", "system_B.mtx", "system_rhs.mtx"):
        text = (tmp_path / name).read_text()
        assert text.startswith("%%MatrixMarket")
    meta = json.loads((tmp_path / "system_meta.json").read_text())
    assert meta["consistent"] is True
    assert meta["n_u"] == 4 * meta["num_elements"] // 2 * 2  # sanity: present
    code = cli.main(
        ["export-system", "--levels", "2", "--inconsistent", "--out", str(tmp_path)]
    )
    assert code == 0
    meta = json.loads((tmp_path / "system_meta.json").read_text())
    assert meta["consistent"] is False


@pytest.mark.parametrize(
    "argv, factors",
    [(["export-system", "--levels", "4"], []),
     (["solver-study", "--levels", "2", "3", "--mu", "1", "--mu", "1e-4"], [16, 39])],
    ids=["export-system", "solver-study"],
)
def test_factors_only_what_a_solve_reads(monkeypatch, tmp_path, argv, factors):
    # export-system reads no factor, so it makes none; a study makes one per
    # mesh, shared by its viscosities (rows of A: elements plus interior facets)
    real, built = assembly.InnerSolver, []

    def counting(a):
        built.append(a.shape[0])
        return real(a)

    monkeypatch.setattr(assembly, "InnerSolver", counting)
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    assert built == factors


def test_flags_override_config_file(tmp_path):
    given = args_file(tmp_path / "run.args", "--levels 2 4\n--maxit 1\n--mu 1\n")
    run = ["convergence", given, "--out", str(tmp_path)]
    assert cli.main(run) == 1  # one MINRES step cannot converge
    assert cli.main(run + ["--maxit", "200"]) == 0
    # a scalar flag typed after the file replaces the file's value, and a
    # repeatable flag adds to the file's values
    parse = cli.build_parser().parse_args
    cfg = cli.config_from_args(parse(run + ["--levels", "3", "--mu", "1e-4"]))
    assert (cfg.levels, cfg.maxit, cfg.mu) == ([3], 1, [1.0, 1e-4])
    cfg = cli.config_from_args(parse(["convergence", "--maxit", "200", given]))
    assert cfg.maxit == 1  # the file comes last here, so its value wins


def test_scalar_viscosity_in_config_is_accepted(tmp_path):
    # one --mu in a file replaces the default viscosity, as a typed one does
    given = args_file(tmp_path / "run.args", "--levels 2 4 --mu 0.5")
    cfg = cli.config_from_args(cli.build_parser().parse_args(["convergence", given]))
    assert cfg.mu == [0.5]


def test_unknown_config_key_rejected(tmp_path, capsys):
    given = args_file(tmp_path / "run.args", "--levels 2\n--cleverness 11\n")
    assert cli.main(["spectral", given]) == 2
    assert "spectral takes no --cleverness\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("--tol tight", "argument --tol: invalid float value: 'tight'"),
        ("--method gmres --restart 2.5", "argument --restart: invalid int value: '2.5'"),
        ("--mu small", "argument --mu: invalid float value: 'small'"),
        ("--inconsistent=no", "argument --inconsistent: ignored explicit argument 'no'"),
        ("--levels 2 four", "argument --levels: invalid int value: 'four'"),
        ("--maxit true", "argument --maxit: invalid int value: 'true'"),
    ],
    ids=["tol-string", "restart-float", "mu-string", "consistent-string",
         "levels-item-string", "maxit-bool"],
)
def test_config_value_of_wrong_type_is_config_error(tmp_path, capsys, text, message):
    # a value in an argument file meets the flag's own type, as a typed one does
    given = args_file(tmp_path / "run.args", text)
    with pytest.raises(SystemExit) as exc:
        cli.main(["solver-study", "--levels", "2", given, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_repeated_level_gives_nan_rate(tmp_path):
    # two levels with the same h have no rate; the study still completes
    assert cli.main(["convergence", "--levels", "2", "2", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "convergence.csv").read_text().splitlines()
    header = rows[0].split(",")
    assert rows[2].split(",")[header.index("l2_velocity_rate")] == "nan"


def test_malformed_config_rejected(tmp_path, capsys):
    # a line of an argument file that a shell could not split
    given = args_file(tmp_path / "run.args", '--levels 2\n--pressure "x*y\n')
    assert cli.main(["spectral", given]) == 2
    assert capsys.readouterr().err == "error: No closing quotation\n"


def test_missing_args_file_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["convergence", "--levels", "2", f"@{tmp_path / 'missing.args'}"])
    assert exc.value.code == 2
    assert "No such file or directory" in capsys.readouterr().err


def test_custom_problem_runs_from_flags(tmp_path):
    code = cli.main(
        ["convergence", *CAVITY, "--levels", "2", "4", "--out", str(tmp_path)]
    )
    assert code == 0
    assert (tmp_path / "convergence.csv").exists()


@pytest.mark.parametrize(
    "given, text",
    [
        (["--velocity=x", "--velocity=-y", "--pressure", "0"], None),
        (["--pressure", "0"], None),
        ([], "--velocity x\n--velocity=-y\n"),
    ],
    ids=["flags", "pressure", "config"],
)
def test_expressions_without_custom_problem_rejected(monkeypatch, tmp_path, capsys, given,
                                                     text):
    # a built-in problem reads no expression, so a solve would ignore them
    def no_mesh(*args):
        raise AssertionError("a mesh was built before the expressions were checked")

    monkeypatch.setattr(cli, "structured_simplex_mesh", no_mesh)
    if text is not None:
        given = [args_file(tmp_path / "run.args", text)]
    out = tmp_path / "out"
    argv = ["solver-study", "--levels", "2", *given, "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "--velocity and --pressure are read only with --problem custom" in err
    assert not out.exists()


@pytest.mark.parametrize("source", ["inf", "nan", "config"])
def test_non_finite_viscosity_is_config_error(monkeypatch, tmp_path, capsys, source):
    # an infinite viscosity makes every load term NaN, and MINRES runs to the cap
    def no_mesh(*args):
        raise AssertionError("a mesh was built before the viscosities were checked")

    monkeypatch.setattr(cli, "structured_simplex_mesh", no_mesh)
    given = {
        "inf": ["--mu", "inf"],
        "nan": ["--mu", "1", "--mu", "nan"],
        "config": [args_file(tmp_path / "run.args", "--mu 1 --mu Infinity")],
    }[source]
    assert cli.main(["solver-study", "--levels", "2", "4", *given]) == 2
    assert "viscosity values must be positive and finite" in capsys.readouterr().err


def test_mesh_file_input(tmp_path):
    from wgstokes.mesh import structured_simplex_mesh, write_mesh

    path = tmp_path / "m.mesh"
    write_mesh(structured_simplex_mesh(2, 2), path)
    code = cli.main(
        ["export-system", "--mesh-file", str(path), "--out", str(tmp_path)]
    )
    assert code == 0
    meta = json.loads((tmp_path / "system_meta.json").read_text())
    assert meta["num_elements"] == 8


def test_mesh_file_with_index_zero_is_config_error(tmp_path, capsys):
    # the native format is 1-based; a 0 must not wrap to the last vertex,
    # which here would give a valid unit square
    path = tmp_path / "m.mesh"
    path.write_text("2 4 2\n0 0\n1 0\n1 1\n0 1\n1 2 3\n1 3 0\n")
    code = cli.main(
        ["export-system", "--mesh-file", str(path), "--out", str(tmp_path)]
    )
    assert code == 2
    assert "outside" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["missing.msh", ""], ids=["missing", "directory"])
def test_unreadable_mesh_file_is_config_error(tmp_path, capsys, name):
    path = tmp_path / name
    code = cli.main(
        ["convergence", "--levels", "2", "--mesh-file", str(path), "--out", str(tmp_path)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read mesh file {path}: ")


@pytest.mark.parametrize(
    "flag,message",
    [("@", "'utf-8' codec can't decode byte 0xff"),
     ("--mesh-file", "mesh file {path} is not UTF-8 text: ")],
    ids=["config", "mesh-file"],
)
def test_non_utf8_input_file_is_config_error(tmp_path, capsys, flag, message):
    path = tmp_path / "input"
    path.write_bytes(b"\xff\xfe\x00")
    given = [f"@{path}"] if flag == "@" else [flag, str(path)]
    code = cli.main(["convergence", "--levels", "2", *given, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    # argparse reads an argument file in the locale's encoding up to Python
    # 3.11, so the decode error reaches main; later versions escape the bytes
    if flag == "--mesh-file" or sys.version_info < (3, 12):
        assert err.startswith("error: " + message.format(path=path))


@pytest.mark.parametrize("out", ["results", "results/run1"])
def test_out_through_a_file_is_rejected_before_solving(monkeypatch, tmp_path, capsys, out):
    (tmp_path / "results").write_text("keep\n")

    def no_mesh(*args):
        raise AssertionError("a mesh was built before --out was checked")

    monkeypatch.setattr(cli, "structured_simplex_mesh", no_mesh)
    code = cli.main(["convergence", "--levels", "2", "4", "--out", str(tmp_path / out)])
    assert code == 2
    assert "results is not a directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["results"]
    assert (tmp_path / "results").read_text() == "keep\n"


def test_output_directory_that_cannot_be_made_is_config_error(monkeypatch, tmp_path, capsys):
    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(cli.Path, "mkdir", refuse)
    code = cli.main(["export-system", "--levels", "2", "--out", str(tmp_path / "new")])
    assert code == 2
    assert f"cannot write to {tmp_path / 'new'}: Permission denied" in capsys.readouterr().err
