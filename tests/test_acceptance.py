"""Acceptance gate: the nine headline capabilities, one verdict line each.

Every test ends in ``verdict``, which prints a single
``ACCEPTANCE <tag>: PASS/FAIL - <measurements>`` line and asserts it, so a
plain ``pytest -v`` run shows one line per item. Known desk-scale
shortfalls are left failing honestly rather than loosened; their verdict
messages carry the measured numbers and what was ruled out.
"""

import time
from dataclasses import replace
from itertools import product

import numpy as np

from oracles import dense_A_oracle, dense_B_oracle, map_to_physical
from wgstokes.assembly import assemble_A, assemble_B, build_saddle_system
from wgstokes.krylov import solve_system
from wgstokes.mesh import generate_structured_tet, generate_structured_tri
from wgstokes.problems import builtin_problem, problem_from_expressions
from wgstokes.quadrature import facet_rule
from wgstokes.verification import (
    convergence_study,
    inconsistency_demo,
    residual_bound_check,
    spectral_report,
)
from wgstokes.wg_core import WGField, field_weak_gradients, lifting_matrix

_C = {}


def verdict(tag, ok, detail):
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def mesh(dim, n):
    key = ("mesh", dim, n)
    if key not in _C:
        gen = generate_structured_tri if dim == 2 else generate_structured_tet
        _C[key] = gen(n)
    return _C[key]


def system(dim, n, mu=1.0, qg="barycenter"):
    # the velocity stiffness block is viscosity independent, so every mu at
    # a given mesh derives from the mu=1 system and shares its factor
    key = ("sys", dim, n, mu, qg)
    if key not in _C:
        prob = builtin_problem("stokes2d_exp" if dim == 2 else "stokes3d_trig")
        _C[key] = (
            build_saddle_system(mesh(dim, n), prob, qg)
            if mu == 1.0
            else replace(system(dim, n, 1.0, qg), mu=mu)
        )
    return _C[key]


def barycenter_table():
    if "tab_bary" not in _C:
        t0 = time.perf_counter()
        table = convergence_study(
            builtin_problem("stokes2d_exp"), [mesh(2, n) for n in (4, 8, 16, 32)]
        )
        _C["tab_bary"] = (table, time.perf_counter() - t0)
    return _C["tab_bary"]


def test_a1_velocity_first_order_convergence():
    table, wall = barycenter_table()
    rates = table.rates(1.0, "l2_velocity")
    ok = all(0.9 <= r <= 1.1 for r in rates[-2:]) and wall < 60.0
    verdict(
        "first-order-velocity", ok,
        f"final rates {rates[-2]:.4f}, {rates[-1]:.4f} (target [0.9, 1.1]) "
        f"over 1/h in 4..32; study took {wall:.1f}s (limit 60s)",
    )


def test_a2_velocity_errors_pressure_robust():
    table = convergence_study(
        builtin_problem("stokes2d_exp"),
        [mesh(2, n) for n in (4, 8, 16, 32)],
        mu_values=(1.0, 1e-4),
        tol=1e-11,
        maxit=3000,
    )
    diffs = []
    for i in range(4):
        e1 = table.reports[(1.0, i)].l2_velocity
        e2 = table.reports[(1e-4, i)].l2_velocity
        diffs.append(abs(e1 - e2) / e1)
    ok = max(diffs) <= 1e-6
    verdict(
        "pressure-robustness", ok,
        f"velocity errors for mu=1 and mu=1e-4 agree to >= 6 significant digits "
        f"on every mesh (worst relative difference {max(diffs):.2e})",
    )


def test_a3_interior_projection_superconvergence():
    table = convergence_study(
        builtin_problem("stokes2d_exp"),
        [mesh(2, n) for n in (4, 8, 16, 32)],
        qg_method="gauss2",
    )
    rates = table.rates(1.0, "superconv")
    ok = all(1.8 <= r <= 2.2 for r in rates[-2:])
    verdict(
        "interior-superconvergence", ok,
        f"distance to exact cell averages shrinks at rates "
        f"{rates[-2]:.3f}, {rates[-1]:.3f} (target [1.8, 2.2]) "
        f"with two-point boundary projection",
    )


def test_a4_boundary_flux_defect_second_order_decay():
    table, _ = barycenter_table()
    alphas = [table.reports[(1.0, i)].alpha_h for i in range(4)]
    ratios = [abs(alphas[i] / alphas[i + 1]) for i in (1, 2)]
    ok = all(3.4 <= r <= 4.6 for r in ratios)
    verdict(
        "flux-defect-decay", ok,
        f"|alpha_h| halving-ratios {ratios[0]:.4f}, {ratios[1]:.4f} "
        f"(target [3.4, 4.6]) with barycenter boundary projection",
    )


def test_a5_dense_spectral_bounds():
    t0 = time.perf_counter()
    reports = {}
    for n in (2, 3, 4):
        reports[n] = (system(2, n), spectral_report(mesh(2, n)))
    wall = time.perf_counter() - t0

    gamma_ok = True
    lambda_ok = True
    gamma_bits, viol_bits, unit_bits = [], [], []
    for n, (sys_, rep) in reports.items():
        nonzero = rep.gammas[rep.zero_gamma_count:]
        gamma_ok &= (
            rep.zero_gamma_count == 1
            and rep.zero_lambda_count == 1
            and rep.gamma_upper_ok
            and bool(np.all(nonzero >= rep.beta**2 - 1e-12))
            and rep.quad_map_max_dist <= 1e-8
        )
        gamma_bits.append(f"n={n}: beta {rep.beta:.4f}, gamma_max {rep.gammas[-1]:.4f}")
        unit_count = int(np.sum(np.abs(rep.lambdas - 1.0) <= rep.margin))
        unit_bits.append(f"{unit_count} (n_u - N + 1 = {sys_.n_u - sys_.n_p + 1})")
        v = rep.lambda_interval_violations
        lambda_ok &= v.size == 0
        if v.size:
            shown = ", ".join(f"{x:.17g}" for x in v[:5])
            viol_bits.append(
                f"n={n}: {v.size} eigenvalues outside "
                f"({shown}{', ...' if v.size > 5 else ''})"
            )
    ok = gamma_ok and lambda_ok and wall < 30.0
    detail = (
        f"Schur side: one zero eigenvalue, rest in [beta^2, 2+1e-8], "
        f"quadratic map consistent ({'; '.join(gamma_bits)}); wall {wall:.1f}s. "
    )
    if lambda_ok:
        detail += (
            f"Preconditioned-operator eigenvalues all in "
            f"[neg] u {{0}} u {{1}} u [pos]; lambda = 1 multiplicities "
            f"{', '.join(unit_bits)}."
        )
    else:
        detail += (
            f"Preconditioned-operator eigenvalues outside "
            f"[neg] u {{0}} u {{1}} u [pos] (margin 1e-8): {'; '.join(viol_bits)}."
        )
    verdict("spectral-bounds", ok, detail)


def test_a6_residual_bounds_match_theory():
    sys_ = system(2, 4)
    spec = spectral_report(sys_.mesh)
    minres_check = residual_bound_check(solve_system(sys_, "minres").report, spec)
    gmres_check = residual_bound_check(solve_system(sys_, "gmres").report, spec)
    ok = minres_check.passed and gmres_check.passed
    verdict(
        "residual-bounds", ok,
        f"MINRES below its bound at every odd iteration "
        f"(rho {minres_check.rho:.4f}, worst margin {minres_check.worst_margin:.2e}); "
        f"GMRES below its bound from iteration 2 on "
        f"(prefactor {gmres_check.prefactor:.2f}, "
        f"worst margin {gmres_check.worst_margin:.2e})",
    )


def iteration_grid():
    if "grid" not in _C:
        grid = {}
        for dim, levels in ((2, (8, 16, 32)), (3, (4, 8, 16))):
            for n in levels:
                for mu in (1.0, 1e-4):
                    sys_ = system(dim, n, mu)
                    for method in ("minres", "gmres"):
                        rep = solve_system(sys_, method).report
                        grid[(dim, n, mu, method)] = (rep.iterations, rep.converged)
        _C["grid"] = grid
    return _C["grid"]


def _counts(grid, dim, method):
    levels = (8, 16, 32) if dim == 2 else (4, 8, 16)
    return [grid[(dim, n, mu, method)][0] for n in levels for mu in (1.0, 1e-4)]


def test_a7_preconditioned_iteration_brackets():
    grid = iteration_grid()
    minres_counts = _counts(grid, 2, "minres") + _counts(grid, 3, "minres")
    gmres_counts = _counts(grid, 2, "gmres") + _counts(grid, 3, "gmres")
    all_converged = all(conv for _, conv in grid.values())
    ok = (
        all_converged
        and all(30 <= c <= 90 for c in minres_counts)
        and all(15 <= c <= 50 for c in gmres_counts)
    )
    verdict(
        "iteration-brackets", ok,
        f"all 24 preconditioned runs converged; MINRES counts "
        f"{min(minres_counts)}..{max(minres_counts)} within [30, 90], "
        f"GMRES counts {min(gmres_counts)}..{max(gmres_counts)} within [15, 50] "
        f"over three refinements in 2D and 3D and mu in {{1, 1e-4}}",
    )


def test_a7_iteration_spread_across_refinements():
    grid = iteration_grid()
    spreads = {}
    for method, dim in product(("minres", "gmres"), (2, 3)):
        counts = _counts(grid, dim, method)
        spreads[(method, dim)] = (max(counts) - min(counts), counts)
    ok = all(s <= 20 for s, _ in spreads.values())
    bits = [
        f"{m} {d}D spread {s}{'' if s <= 20 else ' > 20'} (counts {c})"
        for (m, d), (s, c) in spreads.items()
    ]
    detail = "; ".join(bits)
    if not ok:
        detail += (
            ". The counts hold with an exact A^{-1} in the preconditioner, so "
            "they are the true fixed-tolerance counts at this scale, not an "
            "inexactness artifact. The 3D MINRES growth 49 -> 73 tracks the "
            "inf-sup constant, which is still decreasing across these coarse "
            "levels, and also depends on the right-hand side: at 3D n=16 the "
            "rescaled operator is identical for both viscosities, yet mu=1 "
            "takes 64 MINRES iterations and mu=1e-4 takes 73."
        )
    verdict("iteration-spread", ok, detail)


def test_a7_unpreconditioned_runs_fail():
    converged = []
    for n, mu, method in product((16, 32), (1.0, 1e-4), ("minres", "gmres")):
        rep = solve_system(system(2, n, mu), method, precond="none").report
        if rep.converged:
            converged.append((n, mu, method, rep.iterations))
    ok = not converged
    detail = "no unpreconditioned run reaches 1e-9 within 1000 iterations"
    if converged:
        runs = ", ".join(f"{m} at n={n}, mu={mu:g}: {it} iterations"
                         for n, mu, m, it in converged)
        detail = (
            f"7 of 8 unpreconditioned runs fail as required, but {runs} "
            f"(< 1000); an independent MINRES (scipy.sparse.linalg) on the "
            f"same operator first has a true relative residual below the "
            f"tolerance at iteration 974, so this system is simply not hard "
            f"enough at this size for the cutoff; both counts move with "
            f"rounding (961 and 951 with the facets in mesh order)"
        )
    verdict("unpreconditioned-failure", ok, detail)


def test_a8_consistency_enforcement():
    demo = inconsistency_demo(mesh(2, 16), builtin_problem("stokes2d_exp"))
    cavity = problem_from_expressions(
        2,
        ["2*x**2*(1-x)**2*y*(1-y)*(1-2*y)", "-2*x*(1-x)*(1-2*x)*y**2*(1-y)**2"],
        "x*y - 1/4",
        name="cavity",
    )
    zero_bc = inconsistency_demo(mesh(2, 8), cavity)
    ok = (
        demo.report_raw.stagnated
        and not demo.report_raw.converged
        and demo.report_fixed.converged
        and demo.report_fixed.tol == 1e-9
        and demo.report_fixed.residuals[-1] <= 1e-9
        and zero_bc.alpha_h == 0.0
        and zero_bc.report_raw.residuals == zero_bc.report_fixed.residuals
    )
    verdict(
        "consistency-enforcement", ok,
        f"raw right-hand side stagnates (flag set, best relres "
        f"{min(demo.report_raw.residuals):.2e}); corrected side converges to 1e-9 "
        f"in {demo.report_fixed.iterations} iterations; with zero boundary data "
        f"the correction is a no-op and both residual histories are identical",
    )


def test_a9_operator_oracles_and_wg_calculus():
    worst_a = worst_b = 0.0
    for dim, n in product((2, 3), (1, 2)):
        m = mesh(dim, n)
        a = np.kron(assemble_A(m).toarray(), np.eye(dim))
        worst_a = max(worst_a, np.abs(a - dense_A_oracle(m)).max())
        worst_b = max(worst_b, np.abs(assemble_B(m).toarray() - dense_B_oracle(m)).max())
    oracle_ok = worst_a < 1e-12 and worst_b < 1e-12

    # the batched weak-gradient calculus and lifting system on every element
    # of the coarsest meshes, against exact integrals from the mesh arrays
    rng = np.random.default_rng(7)
    calculus_ok = True
    for m in (mesh(2, 1), mesh(3, 1)):
        d, ne = m.dim, m.num_elements
        vol, moment = m.elem_volumes, m.elem_second_moments
        meas, nrm = m.elem_facet_measures, m.elem_normals
        # constant facet and interior values are in the weak-gradient kernel
        const = np.full((m.num_facets, d), 3.7)
        a, b = field_weak_gradients(
            m, WGField(d, np.full((ne, d), 3.7), const[m.interior_facets], const[m.boundary_facets])
        )
        calculus_ok &= np.linalg.norm(a, axis=2).max() < 1e-11 and np.abs(b).max() < 1e-11
        # defining relation against exact integrals for random data
        delta = d * vol[:, None] / ((d + 1) * meas)
        for _ in range(5):
            u0 = rng.normal(size=(ne, d))
            uf = rng.normal(size=(m.num_facets, d))
            a, b = field_weak_gradients(
                m, WGField(d, u0, uf[m.interior_facets], uf[m.boundary_facets])
            )
            ub = uf[m.elem_facets]  # (ne, d+1, d)
            # tested with q = e_c, then with q = x - x_K
            pairs = [
                (a * vol[:, None, None], np.einsum("nir,ni,nic->nrc", ub, meas, nrm)),
                (
                    b * moment[:, None],
                    np.einsum("nir,ni->nr", ub, meas * delta) - u0 * d * vol[:, None],
                ),
            ]
            for lhs, rhs in pairs:
                calculus_ok &= bool(
                    np.all(np.abs(lhs - rhs) <= 1e-11 * np.maximum(1.0, np.abs(rhs)))
                )
        # the lifting reproduces facet-mean normal traces
        vals = rng.normal(size=(ne, d + 1, d))
        coef = np.linalg.solve(
            lifting_matrix(nrm, meas, vol), np.einsum("nid,nid->ni", vals, nrm)[..., None]
        )[..., 0]
        fbary, fw = facet_rule(d, 6)
        for k in range(ne):
            verts = m.vertices[m.elements[k]]
            for i in range(d + 1):
                pts = map_to_physical(np.delete(verts, i, axis=0), fbary)
                lifted = coef[k, :d] + coef[k, d] * (pts - m.elem_centroids[k])
                mean = fw @ (lifted @ nrm[k, i])
                calculus_ok &= abs(mean - vals[k, i] @ nrm[k, i]) < 1e-12

    # divergence theorem at the assembled level: interior facet fields have
    # zero total weak divergence, i.e. ones^T B = 0
    div_ok = True
    for m in (mesh(2, 3), mesh(3, 2)):
        resid = np.abs(np.ones(m.num_elements) @ assemble_B(m).toarray()).max()
        div_ok &= resid < 1e-13

    ok = oracle_ok and calculus_ok and div_ok
    verdict(
        "operator-oracles", ok,
        f"assembled stiffness/divergence blocks match dense quadrature oracles "
        f"entrywise (worst {worst_a:.1e} / {worst_b:.1e}, tolerance 1e-12) on "
        f"coarse 2D and 3D meshes; weak-gradient kernel, defining relation, "
        f"lifting trace reproduction, and the discrete divergence theorem all "
        f"hold at stated tolerances",
    )
