"""tools/outputs.py: digests of the same run compare equal, and a perturbed
right-hand side, and the iterates it moves, are named with their size."""

import importlib.util
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from wgstokes.assembly import _Once

TOOL = Path(__file__).resolve().parent.parent / "tools" / "outputs.py"


@pytest.fixture
def outputs(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src and perfbench
    spec = importlib.util.spec_from_file_location("outputs_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "MESHES", ((2, 3), (3, 2)))
    monkeypatch.setattr(module, "SEEDS", (1,))
    return module


def test_compare_names_what_differs_and_by_how_much(outputs, monkeypatch, tmp_path, capsys):
    outputs.write(tmp_path / "a")
    outputs.write(tmp_path / "b")
    assert outputs.compare(tmp_path / "a", tmp_path / "b") == 0
    report = capsys.readouterr().out
    assert "b1: equal on all 4 inputs" in report
    assert "vertices: equal on all 2 inputs" in report
    assert "minres iterates: equal on all 4 inputs" in report
    assert "iteration counts: all equal" in report

    build = outputs.build_saddle_system

    def perturbed(mesh, problem):
        # b1 is formed from the load parts, and linearly in all but the
        # lifting inverse, so scaling those scales b1
        system = build(mesh, problem)
        load, s = system.load.result(), 1.0 + 1e-12
        scaled = replace(
            load, moments=load.moments * s, radial_moments=load.radial_moments * s,
            gram_datum=load.gram_datum * s,
        )
        return replace(system, load=_Once(lambda: scaled))

    monkeypatch.setattr(outputs, "build_saddle_system", perturbed)
    outputs.write(tmp_path / "c")
    capsys.readouterr()
    assert outputs.compare(tmp_path / "c", tmp_path / "a") == 1
    lines = capsys.readouterr().out.splitlines()
    b1 = next(line for line in lines if line.startswith("b1:"))
    assert b1.startswith("b1: differs on 4 of 4 inputs, largest relative difference 1.0")
    assert "e-12" in b1
    assert "A: equal on all 2 inputs" in lines
    # the iterates move with b1: each differing sequence is reported with the
    # largest relative difference of its norms, within rounding of b1's
    for method in ("minres", "gmres"):
        iterates = next(line for line in lines if line.startswith(f"{method} iterates:"))
        found = re.fullmatch(
            rf"{method} iterates: differs on \d of 4 inputs, "
            r"largest relative difference (\S+) \(.+\)",
            iterates,
        )
        assert found, iterates
        assert 1e-14 < float(found[1]) < 1e-11
