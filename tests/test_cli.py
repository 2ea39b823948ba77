"""End-to-end command line tests: outputs, exit codes, config handling."""

import json
import re

import pytest

from wgstokes import cli, krylov

CAVITY = [
    "--problem", "custom", "--dim", "2",
    "--velocity=2*x**2*(1-x)**2*y*(1-y)*(1-2*y)",
    "--velocity=-2*x*(1-x)*(1-2*x)*y**2*(1-y)**2",
    "--pressure", "x*y - 1/4",
]


def test_help_lists_all_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("convergence", "solver-study", "spectral", "inconsistency",
                 "export-system"):
        assert name in out


# The flags each subcommand reads; every other flag exits 2.
PROBLEM_AND_MESHES = {"--config", "--out", "--problem", "--dim", "--mu", "--levels",
                      "--mesh-file", "--qg", "--velocity", "--pressure"}
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
    "command, values, key",
    [
        ("spectral", {"levels": [2], "maxit": 1000}, "maxit"),
        ("export-system", {"levels": [2], "restart": 30}, "restart"),
        ("convergence", {"levels": [2, 4], "forcing": ["0", "0"]}, "forcing"),
    ],
    ids=["spectral-maxit", "export-restart", "convergence-forcing"],
)
def test_config_key_the_subcommand_ignores_is_config_error(monkeypatch, tmp_path, capsys,
                                                          command, values, key):
    def no_mesh(*args):
        raise AssertionError("a mesh was built before the config keys were checked")

    monkeypatch.setattr(cli, "structured_simplex_mesh", no_mesh)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{command} takes no config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["convergence", "solver-study", "inconsistency"])
@pytest.mark.parametrize("source", ["flags", "config", "config-method"])
def test_restart_with_minres_is_config_error(monkeypatch, tmp_path, capsys, command, source):
    # MINRES does not restart: a given --restart would be read by nothing
    def no_mesh(*args):
        raise AssertionError("a mesh was built before the restart was checked")

    monkeypatch.setattr(cli, "structured_simplex_mesh", no_mesh)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"restart": 5, "method": "minres"}))
    given = {
        "flags": ["--restart", "5"],  # the default method is minres
        "config": ["--config", str(cfg)],
        "config-method": ["--config", str(cfg), "--restart", "30"],
    }[source]
    levels = ["--levels", "4"] if command == "inconsistency" else ["--levels", "2", "4"]
    out = tmp_path / "out"
    assert cli.main([command, *levels, *given, "--out", str(out)]) == 2
    assert "--restart is the GMRES restart length; minres takes none" in capsys.readouterr().err
    assert not out.exists()
    # the same restart with GMRES is read
    cfg.write_text(json.dumps({"restart": 5, "method": "gmres"}))
    argv = [command, *levels, "--config", str(cfg), "--restart", "5"]
    assert cli.config_from_args(cli.build_parser().parse_args(argv)).restart == 5


@pytest.mark.parametrize("command", ["spectral", "inconsistency", "export-system"])
@pytest.mark.parametrize("source", ["flags", "config"])
def test_single_problem_subcommands_reject_several_viscosities(monkeypatch, tmp_path, capsys,
                                                               command, source):
    def no_mesh(*args):
        raise AssertionError("a mesh was built before the viscosities were checked")

    monkeypatch.setattr(cli, "structured_simplex_mesh", no_mesh)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mu": [1, 1e-4]}))
    mus = ["--mu", "1", "--mu", "1e-4"] if source == "flags" else ["--config", str(cfg)]
    out = tmp_path / "out"
    assert cli.main([command, "--levels", "2", *mus, "--out", str(out)]) == 2
    # spectral reads no viscosity at all
    expected = {"flags": "spectral takes no --mu", "config": "spectral takes no config key 'mu'"}
    message = expected[source] if command == "spectral" else "takes one viscosity, got 2"
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, key, value",
    [
        (["--mu", "1e-4"], "mu", 1e-4),
        (["--qg", "gauss3"], "qg", "gauss3"),
        (["--inconsistent"], "consistent", False),
    ],
    ids=["mu", "qg", "inconsistent"],
)
@pytest.mark.parametrize("source", ["flags", "config"])
def test_spectral_takes_no_setting_its_report_ignores(monkeypatch, tmp_path, capsys, source,
                                                      flags, key, value):
    # the preconditioned operator is made of A, B and Mp, which depend only
    # on the mesh: no viscosity, projection rule or right-hand side reaches it
    def no_mesh(*args):
        raise AssertionError("a mesh was built before the settings were checked")

    monkeypatch.setattr(cli, "structured_simplex_mesh", no_mesh)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    given = flags if source == "flags" else ["--config", str(cfg)]
    out = tmp_path / "out"
    assert cli.main(["spectral", "--levels", "2", *given, "--out", str(out)]) == 2
    named = flags[0] if source == "flags" else f"config key {key!r}"
    assert f"spectral takes no {named}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--dim", "3"], "need 3 velocity components, got 2"),
        (["--forcing", "0"], "convergence takes no --forcing"),
    ],
    ids=["velocity", "forcing"],
)
def test_custom_component_count_is_config_error(capsys, extra, message):
    assert cli.main(["convergence", *CAVITY, *extra, "--levels", "2", "4"]) == 2
    assert message in capsys.readouterr().err


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


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"levels": [2, 4], "maxit": 1}))
    run = ["convergence", "--config", str(cfg), "--out", str(tmp_path)]
    assert cli.main(run) == 1  # one MINRES step cannot converge
    assert cli.main(run + ["--maxit", "200"]) == 0


def test_scalar_viscosity_in_config_is_accepted(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"levels": [2, 4], "mu": 0.5}))
    assert cli.main(
        ["convergence", "--config", str(cfg), "--out", str(tmp_path)]
    ) == 0


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"levels": [2], "cleverness": 11}))
    assert cli.main(["spectral", "--config", str(cfg)]) == 2
    assert "cleverness" in capsys.readouterr().err


@pytest.mark.parametrize(
    "values",
    [
        {"tol": "1e-8"},
        {"restart": 2.5, "method": "gmres"},
        {"mu": "1e-3"},
        {"consistent": "no"},
        {"levels": [2, "4"]},
        {"maxit": True},
    ],
    ids=["tol-string", "restart-float", "mu-string", "consistent-string",
         "levels-item-string", "maxit-bool"],
)
def test_config_value_of_wrong_type_is_config_error(tmp_path, capsys, values):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"levels": [2], **values}))
    assert cli.main(["solver-study", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    key = next(k for k in values if k != "method")
    assert f"config key {key!r} must be" in capsys.readouterr().err


def test_repeated_level_gives_nan_rate(tmp_path):
    # two levels with the same h have no rate; the study still completes
    assert cli.main(["convergence", "--levels", "2", "2", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "convergence.csv").read_text().splitlines()
    header = rows[0].split(",")
    assert rows[2].split(",")[header.index("l2_velocity_rate")] == "nan"


def test_malformed_config_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("not json {")
    assert cli.main(["spectral", "--config", str(cfg), "--levels", "2"]) == 2
    assert "JSON" in capsys.readouterr().err


def test_custom_problem_runs_from_flags(tmp_path):
    code = cli.main(
        ["convergence", *CAVITY, "--levels", "2", "4", "--out", str(tmp_path)]
    )
    assert code == 0
    assert (tmp_path / "convergence.csv").exists()


def test_builtin_dimension_mismatch_rejected(capsys):
    code = cli.main(
        ["convergence", "--problem", "stokes3d_trig", "--dim", "2", "--levels", "2"]
    )
    assert code == 2
    assert "3D" in capsys.readouterr().err


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
