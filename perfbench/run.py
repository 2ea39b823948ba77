"""Run one workload of the wgstokes benchmark and print its metrics.

    python3 perfbench/run.py --workload minres2d --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout: the package is imported from
./src, never from an installed copy. BLAS and OpenMP are pinned to one
thread before numpy loads. Each repetition builds a fresh seeded mesh and
runs the whole pipeline; repetitions continue while another one fits in
--seconds. End-to-end times are scaled to a reference machine speed,
measured by a calibration loop before and after each timed stretch;
per-layer times are raw wall time. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics (end-to-end
metrics with --trace 0, per-layer metrics with --trace 1). The full record, with the environment,
every repetition and, for traced runs, every span, is written under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
# Calibration.seconds() on the 2-core Intel Xeon VM the bounds were set on;
# end-to-end times are reported at this machine speed
CAL_REF_S = 0.21

# what every CLI call pays before the first mesh: a fresh interpreter's
# `import wgstokes` plus constructing the problem
SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import wgstokes
wgstokes.builtin_problem(sys.argv[2])
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Calibration:
    """Fixed interpreted-Python and sparse matrix-vector work, no wgstokes code.

    Its time tracks the machine's speed, which on a shared host drifts by
    tens of percent within minutes. Timing it before and after each timed
    stretch gives the factor that scales that stretch to CAL_REF_S speed.
    """

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(200, 200))
        self.matrix = (sp.kron(lap, sp.eye(200)) + sp.kron(sp.eye(200), lap)).tocsr()
        self.vector = np.ones(self.matrix.shape[0])

    def seconds(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(2_000_000):
            acc += i * i
        for _ in range(150):
            self.matrix @ self.vector
        return time.perf_counter() - t0


def to_reference(before: float, after: float) -> float:
    """Factor from this machine's current speed to the reference speed."""
    return 2.0 * CAL_REF_S / (before + after)


def measure_setup(src: Path, problem: str, samples: int) -> list[float]:
    times = []
    for _ in range(samples):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(src), problem],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(out.stdout.split()[-1]))
    return times


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(root: Path, args) -> dict:
    import numpy
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(root),
    }


def run_reps(workloads, wl, args, cal: Calibration) -> tuple[list, float]:
    """Repeat the workload while another repetition fits in --seconds.

    Returns (traced, result, factor to reference speed) per repetition,
    and the peak RSS in MB after the first repetition, which does not
    depend on how many repetitions fit. A traced run alternates untraced
    and traced repetitions, starting untraced, and runs at least one of
    each so it can report overhead.
    """
    deadline = time.perf_counter() + args.seconds
    reps, longest, peak_mb = [], 0.0, 0.0
    before = cal.seconds()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        t0 = time.perf_counter()
        rep = workloads.run_rep(wl, args.seed, traced, f"{wl.name}-{args.seed}-{len(reps)}")
        if not reps:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        after = cal.seconds()
        longest = max(longest, time.perf_counter() - t0)
        factor = to_reference(before, after)
        before = after
        reps.append((traced, rep, factor))
        print(
            f"rep {len(reps) - 1} {'traced' if traced else 'untraced'}: "
            f"total_s={rep.total_s:.4f} (at reference speed {rep.total_s * factor:.4f}) "
            f"iterations={rep.iterations} failed={len(rep.failures)}/{rep.attempted}",
            flush=True,
        )
        for label, reasons in rep.failures.items():
            print(f"  FAILED {label}: {'; '.join(reasons)}", flush=True)
        if args.trace and len(reps) < 2:
            continue
        if deadline - time.perf_counter() < longest:
            return reps, peak_mb


def summarize(values, unit):
    """Median of one metric over repetitions; counts stay whole numbers."""
    pick = statistics.median_low if unit == "count" else statistics.median
    return {"value": pick(list(values)), "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "wgstokes" / "__init__.py").is_file():
        print(f"no src/wgstokes under {root}; run from a wgstokes checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads OpenBLAS
    sys.path.insert(0, str(src))
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    env = environment(root, args)
    print("env " + json.dumps(env), flush=True)
    cal = Calibration()
    before = cal.seconds()
    setup = measure_setup(src, wl.problem, SETUP_SAMPLES)
    setup_factor = to_reference(before, cal.seconds())
    reps, peak_mb = run_reps(workloads, wl, args, cal)

    plain = [(rep, f) for traced, rep, f in reps if not traced]
    traced = [(rep, f) for is_traced, rep, f in reps if is_traced]
    total_s = summarize((r.total_s * f for r, f in plain), "s")
    if args.trace:
        metrics = {
            key: summarize((r.layers[key] for r, _ in traced), "s" if key.endswith("_s") else "count")
            for key in traced[0][0].layers
        }
        metrics["trace.total_s"] = summarize((r.total_s * f for r, f in traced), "s")
        metrics["trace.overhead_s"] = {
            "value": metrics["trace.total_s"]["value"] - total_s["value"],
            "unit": "s",
        }
    else:
        metrics = {
            "total_s": total_s,
            "setup_s": summarize((t * setup_factor for t in setup), "s"),
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "iterations": summarize((r.iterations for r, _ in plain), "count"),
        }
    attempted = sum(rep.attempted for _, rep, _ in reps)
    failed = sum(len(rep.failures) for _, rep, _ in reps)

    out = Path(__file__).resolve().parent / "out"
    out.mkdir(exist_ok=True)
    record = out / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "env": env,
        "setup_samples_s": setup,
        "setup_factor": setup_factor,
        "reps": [
            {"traced": is_traced, "factor": f, **asdict(rep)} for is_traced, rep, f in reps
        ],
        "metrics": metrics,
    }, indent=1))
    print(f"record {os.path.relpath(record)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
