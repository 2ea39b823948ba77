"""Each demo's `main` runs to completion at its smallest levels."""

import importlib.util
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name,args,expected",
    [
        ("consistency_fix", ["--level", "2"], "corrected right-hand side"),
        ("convergence_tables", ["--levels", "2", "4"], "alpha_h"),
        ("solver_comparison", ["--levels", "2"], "MINRES alone"),
        ("solver_comparison", ["--dim", "3", "--levels", "2"], "MINRES+diag"),
        ("spectral_gallery", ["--levels", "2"], "residual bounds"),
    ],
    ids=["consistency_fix", "convergence_tables", "solver_comparison-2d",
         "solver_comparison-3d", "spectral_gallery"],
)
def test_demo_main_runs(monkeypatch, capsys, name, args, expected):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args])
    demo.main()
    assert expected in capsys.readouterr().out
