"""Tests of the benchmark itself, on tiny meshes (2D n=4, 3D n=2 and 3).

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads
from wgstokes import (
    build_saddle_system,
    builtin_problem,
    compute_errors,
    solve_system,
    structured_simplex_mesh,
)

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_LEVELS = {"minres2d": (4,), "gmres3d": (2,), "convergence3d": (2, 3)}


def unperturbed_error(wl: workloads.Workload, n: int) -> float:
    problem = builtin_problem(wl.problem)
    mesh = structured_simplex_mesh(wl.dim, n)
    sol = solve_system(build_saddle_system(mesh, problem), wl.method, wl.precond, wl.tol)
    if wl.check == "l2":
        return compute_errors(mesh, problem, sol).l2_velocity
    return workloads.centroid_error(mesh, problem, sol)


@pytest.fixture(scope="module")
def tiny():
    out = {}
    for name, levels in TINY_LEVELS.items():
        wl = replace(workloads.WORKLOADS[name], levels=levels)
        out[name] = replace(wl, reference=tuple(unperturbed_error(wl, n) for n in levels))
    return out


@pytest.mark.parametrize("dim,n", [(2, 4), (3, 2)])
def test_same_seed_gives_identical_mesh(dim, n):
    a = workloads.jittered_mesh(dim, n, 7)
    b = workloads.jittered_mesh(dim, n, 7)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.elements, b.elements)


@pytest.mark.parametrize("dim,n", [(2, 4), (3, 2)])
def test_different_seeds_give_valid_different_meshes(dim, n):
    base = structured_simplex_mesh(dim, n)
    a = workloads.jittered_mesh(dim, n, 1)
    b = workloads.jittered_mesh(dim, n, 2)
    assert not np.array_equal(a.vertices, b.vertices)
    on_boundary = np.any((base.vertices == 0.0) | (base.vertices == 1.0), axis=1)
    for mesh in (a, b):
        offset = mesh.vertices - base.vertices
        assert np.all(offset[on_boundary] == 0.0)
        assert np.all(offset[~on_boundary] != 0.0)
        assert np.abs(offset).max() <= workloads.JITTER / n
        assert np.all(mesh.elem_volumes > 0.0)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", sorted(TINY_LEVELS))
def test_every_workload_path_passes_its_gate(tiny, name, traced):
    wl = tiny[name]
    rep = workloads.run_rep(wl, seed=3, traced=traced)
    assert rep.failures == {}
    assert rep.attempted == len(wl.levels) * len(wl.mu_values)
    assert rep.iterations > 0 and rep.total_s > 0.0
    if traced:
        names = {s["name"] for s in rep.spans}
        assert {"mesh.build", "assembly.build", "krylov.solve", "assembly.A"} <= names
        assert rep.layers["krylov.iterations"] == rep.iterations
        assert rep.layers["krylov.precond_applies"] == rep.layers["sparse_linalg.inner_solves"]
        errors = rep.layers["verification.eval_points"]
        assert (errors == 0) == (wl.check == "centroid")


def test_gate_counts_a_wrong_reference_as_failed(tiny):
    wl = tiny["minres2d"]
    rep = workloads.run_rep(replace(wl, reference=(2.0 * wl.reference[0],)), seed=3, traced=False)
    assert list(rep.failures) == ["minres2d[n=4]"]


def test_self_time_excludes_children():
    tracer = spans.Tracer("t")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent is None
    totals = tracer.self_totals()
    assert totals["outer"] == pytest.approx(outer.duration - inner.duration)
    assert totals["inner"] == pytest.approx(inner.duration)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY_LEVELS))
def test_cli_prints_every_metric_with_its_unit(tiny, monkeypatch, capsys, name, trace):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setitem(workloads.WORKLOADS, name, tiny[name])
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    argv = ["--workload", name, "--seed", "5", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_cli_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "minres2d", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_times_scale_to_reference_speed():
    assert run.to_reference(run.CAL_REF_S, run.CAL_REF_S) == 1.0
    assert run.to_reference(2 * run.CAL_REF_S, 2 * run.CAL_REF_S) == pytest.approx(0.5)
    assert run.Calibration().seconds() > 0.0
