"""Digest the numbers the wgstokes pipeline computes, and compare two digests.

    python tools/outputs.py write DIR
    python tools/outputs.py compare DIR_A DIR_B

Run it from the root of a source checkout: wgstokes is imported from ./src,
and the meshes are the benchmark's jittered meshes (`jittered_mesh` in
perfbench/workloads.py). BLAS and OpenMP are pinned to one thread.

`write` builds a fixed set of inputs: jittered 2D n=64 and 3D n=4, 6 and 12,
seeds 1-3, each at mu 1 and 1e-4. For each it writes DIR/digests.json with
the SHA-256 digest and the largest entry of the mesh's arrays
(`MESH_ARRAYS`), A, B, b2 and alpha_h (once per mesh) and of b1 and rhs()
(per viscosity). For a MINRES and a GMRES solve with the default
preconditioner and tolerance it adds the iteration count and the digests
of every iterate the method forms (MINRES: every step; GMRES: the start
and the end of every cycle) and of both residual histories. The
environment holds the numpy and scipy versions, the thread variables and
the OpenBLAS kernel (core name) of each OpenBLAS library the process
loaded. DIR/arrays.npz keeps the arrays, for `compare`.

`compare` names each array, history and iterate sequence whose digest
differs, with the number of inputs on which it differs and its largest
relative difference (max |a - b| / max |b|), and lists each iteration count
that changed. Digests made with different OpenBLAS kernels differ in the
last bits by design; compare like with like.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"  # before numpy loads

import argparse
import ctypes
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse as sp  # noqa: E402

from wgstokes import build_saddle_system, builtin_problem, solve_system  # noqa: E402
from workloads import jittered_mesh  # noqa: E402

MESHES = ((2, 64), (3, 4), (3, 6), (3, 12))
SEEDS = (1, 2, 3)
VISCOSITIES = (1.0, 1e-4)
METHODS = ("minres", "gmres")
MESH_ARRAYS = (
    "vertices", "elements", "elem_volumes", "elem_centroids", "elem_normals",
    "elem_facet_measures", "elem_second_moments", "facet_elems", "interior_facets",
)
_CORENAME_SYMBOLS = (
    "scipy_openblas_get_corename64_",
    "scipy_openblas_get_corename",
    "openblas_get_corename64_",
    "openblas_get_corename",
)


def openblas_kernels() -> dict:
    """Core name of each OpenBLAS library mapped into this process, keyed by
    its directory and file name (numpy and scipy each load their own)."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    kernels = {}
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in _CORENAME_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                kernels[f"{Path(path).parent.name}/{Path(path).name}"] = fn().decode()
                break
    return kernels


def digest(value) -> str:
    """SHA-256 of an array's float64 bytes, or of a CSR matrix's three arrays."""
    h = hashlib.sha256()
    if sp.issparse(value):
        for part in (value.indptr, value.indices, value.data):
            h.update(np.ascontiguousarray(part).tobytes())
    else:
        h.update(np.ascontiguousarray(value, dtype=float).tobytes())
    return h.hexdigest()


class _Recorder:
    """Collects the named arrays of one input: their digests, largest entries
    and the arrays themselves."""

    def __init__(self, arrays: dict):
        self.arrays = arrays
        self.record = {}

    def add(self, key: str, name: str, value) -> None:
        dense = value.data if sp.issparse(value) else np.asarray(value, dtype=float)
        self.record[name] = {
            "sha256": digest(value),
            "max_abs": float(np.abs(dense).max()) if dense.size else 0.0,
        }
        if sp.issparse(value):
            for part in ("indptr", "indices", "data"):
                self.arrays[f"{key}:{name}.{part}"] = getattr(value, part)
        else:
            self.arrays[f"{key}:{name}"] = np.asarray(value, dtype=float)


def _solve_record(system, method: str, key: str, arrays: dict) -> dict:
    iterates = []
    traced = replace(system)
    apply = traced.apply

    def recording(x):  # every iterate whose residual the method computes
        iterates.append(digest(x))
        return apply(x)

    traced.apply = recording
    sol = solve_system(traced, method)
    rec = _Recorder(arrays)
    rec.add(key, "solution", sol.raw)
    rec.add(key, "residuals", sol.report.residuals)
    rec.add(key, "precond_residuals", sol.report.precond_residuals)
    return {
        "iterations": sol.report.iterations,
        "converged": sol.report.converged,
        "iterates": iterates,
        **rec.record,
    }


def write(outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    arrays, inputs = {}, {}
    for dim, n in MESHES:
        problem = builtin_problem("stokes2d_exp" if dim == 2 else "stokes3d_trig")
        for seed in SEEDS:
            mesh = jittered_mesh(dim, n, seed)
            mesh_key = f"{dim}D n={n} seed={seed}"
            for mu in VISCOSITIES:
                system = build_saddle_system(mesh, problem.with_mu(mu))
                if mu == VISCOSITIES[0]:
                    rec = _Recorder(arrays)
                    for name in MESH_ARRAYS:
                        rec.add(mesh_key, name, getattr(mesh, name))
                    for name in ("A", "B", "b2"):
                        rec.add(mesh_key, name, getattr(system, name))
                    rec.add(mesh_key, "alpha_h", [system.alpha_h])
                    inputs[mesh_key] = rec.record
                key = f"{mesh_key} mu={mu:g}"
                rec = _Recorder(arrays)
                rec.add(key, "b1", system.b1)
                rec.add(key, "rhs", system.rhs())
                for method in METHODS:
                    rec.record[method] = _solve_record(system, method, f"{key} {method}", arrays)
                inputs[key] = rec.record
                counts = [rec.record[m]["iterations"] for m in METHODS]
                print(f"{key}: minres {counts[0]}, gmres {counts[1]} iterations", flush=True)
    env = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "openblas_kernels": openblas_kernels(),
    }
    doc = {"environment": env, "inputs": inputs}
    (outdir / "digests.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    np.savez(outdir / "arrays.npz", **arrays)
    print(f"wrote {outdir / 'digests.json'} and {outdir / 'arrays.npz'}")


def _relative_difference(a, b, key: str) -> float:
    """max |a - b| / max |b| of one stored array (or CSR matrix); inf if the
    shapes differ."""
    if f"{key}.data" in b:
        x, y = (
            sp.csr_matrix((f[f"{key}.data"], f[f"{key}.indices"], f[f"{key}.indptr"]))
            for f in (a, b)
        )
        absmax = lambda m: abs(m).max()  # noqa: E731
    else:
        x, y = a[key], b[key]
        absmax = lambda m: np.abs(m).max()  # noqa: E731
    if x.shape != y.shape:
        return float("inf")
    scale = absmax(y)
    return float(absmax(x - y) / scale if scale else absmax(x - y))


def compare(dir_a: Path, dir_b: Path) -> int:
    """Print, for each array, history and iterate sequence, on how many
    inputs it differs between two `write` directories and by how much at
    most; then every changed iteration count. Returns 1 if anything differs."""
    docs = [json.loads((d / "digests.json").read_text(encoding="utf-8")) for d in (dir_a, dir_b)]
    npz = [np.load(d / "arrays.npz") for d in (dir_a, dir_b)]
    kernels = [doc["environment"]["openblas_kernels"] for doc in docs]
    if kernels[0] != kernels[1]:
        print(f"OpenBLAS kernels differ: {kernels[0]} and {kernels[1]}")
    seen, differing, largest, changed = {}, {}, {}, []
    for key, old in docs[1]["inputs"].items():
        new = docs[0]["inputs"][key]
        groups = [(key, "", new, old)]
        groups += [(f"{key} {m}", f"{m} ", new[m], old[m]) for m in METHODS if m in old]
        for npz_key, label, rec_a, rec_b in groups:
            for name, entry in rec_b.items():
                if name == "iterations" and rec_a[name] != entry:
                    changed.append(f"{key}: {label}iterations {entry} -> {rec_a[name]}")
                if name == "iterates":
                    same, rel = rec_a[name] == entry, None
                elif isinstance(entry, dict) and "sha256" in entry:
                    same = rec_a[name]["sha256"] == entry["sha256"]
                    rel = None if same else _relative_difference(*npz, f"{npz_key}:{name}")
                else:
                    continue
                what = label + name
                seen[what] = seen.get(what, 0) + 1
                if not same:
                    differing[what] = differing.get(what, 0) + 1
                    if rel is not None and rel >= largest.get(what, (-1.0, ""))[0]:
                        largest[what] = (rel, key)
    for what, total in seen.items():
        if what not in differing:
            print(f"{what}: equal on all {total} inputs")
            continue
        line = f"{what}: differs on {differing[what]} of {total} inputs"
        if what in largest:
            rel, where = largest[what]
            line += f", largest relative difference {rel:.2e} ({where})"
        print(line)
    print("\n".join(changed) or "iteration counts: all equal")
    return 1 if differing or changed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    sub.add_parser("write").add_argument("dir", type=Path)
    cmp = sub.add_parser("compare")
    cmp.add_argument("dir_a", type=Path)
    cmp.add_argument("dir_b", type=Path)
    args = ap.parse_args(argv)
    if args.mode == "write":
        write(args.dir)
        return 0
    return compare(args.dir_a, args.dir_b)


if __name__ == "__main__":
    sys.exit(main())
