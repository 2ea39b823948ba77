"""Built-in manufactured solutions and expression-defined problems."""

import numpy as np
import pytest

from wgstokes.mesh import generate_structured_tet, generate_structured_tri
from wgstokes.problems import (
    BUILTIN_PROBLEMS,
    StokesProblem,
    boundary_compatibility,
    builtin_problem,
    problem_from_expressions,
)

# each built-in's exact (u, p) as expression strings
BUILTIN_EXPRESSIONS = {
    "stokes2d_exp": (["-exp(x)*(y*cos(y) + sin(y))", "exp(x)*y*sin(y)"], "2*exp(x)*sin(y)"),
    "stokes3d_trig": (
        ["2*sin(pi*x)", "-pi*y*cos(pi*x)", "-pi*z*cos(pi*x)"],
        "sin(pi*x)*cos(pi*y)*sin(pi*z)",
    ),
}


def assert_satisfies_strong_form(prob):
    """prob's hand-written forcing terms are -Lap(u) and grad p, each derived
    symbolically from the same (u, p), to rounding, and its velocity is
    divergence-free."""
    velocity, pressure = BUILTIN_EXPRESSIONS[prob.name]
    derived = problem_from_expressions(prob.dim, velocity, pressure, prob.mu)
    pts = 0.15 + 0.7 * np.random.default_rng(3).random((12, prob.dim))
    for field in ("velocity", "pressure"):  # the strings are prob's solution
        ours, theirs = getattr(prob, field)(pts), getattr(derived, field)(pts)
        assert np.abs(ours - theirs).max() <= 1e-14 * np.abs(theirs).max()
    # each term against its own derivative: at mu=1 the 2D forcing is zero,
    # so no bound relative to the forcing f itself could hold
    ours, theirs = prob.forcing_terms(pts), derived.forcing_terms(pts)
    assert ours.shape == theirs.shape == (len(pts), 2, prob.dim)
    for term in range(2):
        scale = np.abs(theirs[:, term]).max()
        assert np.abs(ours[:, term] - theirs[:, term]).max() <= 1e-12 * scale
    grad = derived.velocity_gradient(pts)
    assert np.abs(np.trace(grad, axis1=1, axis2=2)).max() <= 1e-14 * np.abs(grad).max()


@pytest.mark.parametrize("name", BUILTIN_PROBLEMS)
@pytest.mark.parametrize("mu", [1.0, 1e-4])
def test_builtins_satisfy_strong_form(name, mu):
    assert_satisfies_strong_form(builtin_problem(name, mu))


def centered_gradient(velocity, pts, step=1e-6):
    """(n, d, d) centred differences of a batch velocity, [i, r, c] = du_r/dx_c."""
    cols = []
    for e in step * np.eye(pts.shape[1]):
        cols.append((velocity(pts + e) - velocity(pts - e)) / (2.0 * step))
    return np.stack(cols, axis=-1)


@pytest.mark.parametrize(
    "prob",
    [
        builtin_problem("stokes2d_exp"),
        builtin_problem("stokes3d_trig", 1e-4),
        problem_from_expressions(2, ["x + y**2", "x*sin(y) - 2"], "x*y"),
        problem_from_expressions(3, ["sin(pi*x)*exp(y)", "3", "x*y*cos(z)"], "0"),
    ],
    ids=["stokes2d_exp", "stokes3d_trig", "custom-2d", "custom-3d-constant-row"],
)
def test_velocity_gradient_matches_centered_differences(prob):
    pts = 0.1 + 0.8 * np.random.default_rng(4).random((20, prob.dim))
    grad = prob.velocity_gradient(pts)
    assert grad.shape == (20, prob.dim, prob.dim)
    # step 1e-6: truncation and round-off both stay below 1e-9 here
    assert np.abs(grad - centered_gradient(prob.velocity, pts)).max() <= 1e-8


@pytest.mark.parametrize(
    "name,mesh",
    [
        ("stokes2d_exp", generate_structured_tri(3)),
        ("stokes3d_trig", generate_structured_tet(2)),
    ],
)
def test_builtin_boundary_compatibility(name, mesh):
    prob = builtin_problem(name)
    assert abs(boundary_compatibility(prob, mesh)) < 1e-10


def test_unknown_problem_and_bad_mu():
    with pytest.raises(ValueError, match="unknown problem"):
        builtin_problem("nope")
    with pytest.raises(ValueError, match="positive"):
        builtin_problem("stokes2d_exp", mu=-1.0)


def test_with_mu_rebuilds_forcing():
    p1 = builtin_problem("stokes2d_exp", 1.0)
    p2 = p1.with_mu(1e-4)
    assert p2.mu == 1e-4
    # the terms do not depend on mu: with_mu keeps every callable
    assert p2.forcing_terms is p1.forcing_terms and p2.velocity is p1.velocity
    x = np.array([0.3, 0.7])
    viscous, grad_p = p2.forcing_terms(x)
    # f = mu*(-Lap u) + grad p = 2(1-mu) e^x (sin y, cos y): zero at mu=1,
    # nonzero at mu=1e-4
    assert np.all(1.0 * viscous + grad_p == 0.0)
    expected = 2.0 * (1.0 - 1e-4) * np.exp(x[0]) * np.array(
        [np.sin(x[1]), np.cos(x[1])]
    )
    assert np.allclose(1e-4 * viscous + grad_p, expected, rtol=1e-12)
    assert_satisfies_strong_form(p2)


def test_problem_from_expressions_derives_forcing():
    prob = problem_from_expressions(
        2,
        ["sin(pi*y)", "sin(pi*x)"],
        "cos(pi*x)*cos(pi*y)",
        mu=0.7,
    )
    assert prob.dim == 2 and prob.mu == 0.7
    x = np.array([0.25, 0.5])
    pi = np.pi
    expected = [
        0.7 * pi**2 * np.sin(pi * x[1]) - pi * np.sin(pi * x[0]) * np.cos(pi * x[1]),
        0.7 * pi**2 * np.sin(pi * x[0]) - pi * np.cos(pi * x[0]) * np.sin(pi * x[1]),
    ]
    viscous, grad_p = prob.forcing_terms(x)
    assert prob.mu * viscous + grad_p == pytest.approx(expected, rel=1e-12)
    # derived f must make (u, p) an exact solution: it matches a built-in's
    # hand-derived forcing at the same viscosity
    assert_satisfies_strong_form(builtin_problem("stokes3d_trig", prob.mu))


def test_problem_from_expressions_3d():
    prob = problem_from_expressions(
        3,
        ["2*sin(pi*x)", "-pi*y*cos(pi*x)", "-pi*z*cos(pi*x)"],
        "sin(pi*x)*cos(pi*y)*sin(pi*z)",
        mu=1.0,
    )
    ref = builtin_problem("stokes3d_trig", 1.0)
    pt = np.array([0.2, 0.4, 0.6])
    assert np.allclose(prob.velocity(pt), ref.velocity(pt), rtol=1e-12)
    assert np.allclose(prob.forcing_terms(pt), ref.forcing_terms(pt), rtol=1e-10)


def test_with_mu_makes_no_sympy_call(monkeypatch):
    # a custom problem at another viscosity is the same problem with another
    # mu: nothing is parsed, derived or lambdified again
    import sympy

    prob = problem_from_expressions(2, ["sin(pi*y)", "sin(pi*x)"], "x*y", mu=0.7)

    def no_sympy(*args, **kwargs):
        raise AssertionError("sympy called")

    for name in ("sympify", "lambdify", "diff", "symbols"):
        monkeypatch.setattr(sympy, name, no_sympy)
    other = prob.with_mu(1e-4)
    assert (other.mu, prob.mu) == (1e-4, 0.7)
    for name in ("velocity", "pressure", "forcing_terms", "velocity_gradient"):
        assert getattr(other, name) is getattr(prob, name), name


def test_expression_validation():
    with pytest.raises(ValueError, match="unknown symbols"):
        problem_from_expressions(2, ["w", "0"], "0")
    with pytest.raises(ValueError, match="not allowed"):
        problem_from_expressions(2, ["tan(x)", "0"], "0")
    with pytest.raises(ValueError, match="velocity components"):
        problem_from_expressions(2, ["x"], "0")


def test_viscosity_checked_by_every_constructor():
    base = builtin_problem("stokes2d_exp")
    for mu in (-1.0, 0.0, float("nan")):
        with pytest.raises(ValueError, match="viscosity must be positive"):
            base.with_mu(mu)
        with pytest.raises(ValueError, match="viscosity must be positive"):
            problem_from_expressions(2, ["y", "-x"], "0", mu=mu)
    with pytest.raises(ValueError, match="viscosity must be positive"):
        StokesProblem("custom", 2, -1.0, base.velocity, base.pressure, base.forcing_terms)
