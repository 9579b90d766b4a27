"""Ad-hoc problem definitions used only by tests."""

import numpy as np

from feastube.problem import (
    ConstraintFunction,
    ControlSamples,
    Modulus,
    ProblemData,
    ProblemDefinition,
)


def _affine(name, coeff, offset):
    cvec = np.asarray(coeff, dtype=float)

    def h(t, x):
        return np.asarray(x, dtype=float) @ cvec + offset(t)

    def grad(t, x):
        return np.broadcast_to(cvec, np.asarray(x, dtype=float).shape).copy()

    return ConstraintFunction(h=h, grad=grad, holder_theta=0.5, holder_const=0.0,
                              grad_bound=float(np.linalg.norm(cvec)), name=name)


def simple_problem(
    f,
    running_cost,
    constraints=(),
    lam=2.0,
    n=1,
    controls=None,
    box=None,
    anchor=None,
    M=1.0,
    phi=0.0,
    gamma=0.0,
    c=2.0,
    k=0.0,
    a1=None,
    a2=0.0,
    omega_lip=0.0,
    eta_tilde=0.5,
    name="test-problem",
):
    data = ProblemData(
        M=M, alpha=0.5,
        phi=Modulus.constant(phi), gamma=Modulus.constant(gamma),
        c=Modulus.constant(c), k=Modulus.constant(k),
        a1=c if a1 is None else a1, a2=a2,
        omega_lip=omega_lip, eta_tilde=eta_tilde,
    )
    if controls is None:
        controls = ControlSamples(n, lambda t, l: np.linspace(-1, 1, 2 ** (l + 1) + 1)[:, None]
                                  if n == 1 else np.zeros((1, n)))
    if box is None:
        box = np.tile([[-2.0, 2.0]], (n, 1))
    return ProblemDefinition(
        name=name, n=n, f=f, running_cost=running_cost, lam=lam,
        controls=controls, constraints=tuple(constraints), data=data,
        default_control=np.zeros(controls.dim),
        anchor=(anchor or (lambda t: np.zeros(n))), box=np.asarray(box, dtype=float),
    )


def unit_velocity(t, x, u):
    return 0.0 * np.asarray(x, dtype=float) + np.asarray(u, dtype=float)


def zero_cost(t, x, u):
    return 0.0 * np.asarray(x, dtype=float)[..., 0] + 0.0 * np.asarray(u, dtype=float)[..., 0]


def one_cost(t, x, u):
    return 1.0 + zero_cost(t, x, u)


def constant_cost_problem(lam=3.0):
    return simple_problem(unit_velocity, one_cost, lam=lam, c=2.0, name="const-cost-1d")


def two_wall_1d(width=0.01):
    """Opposing gradients: h1 = x - w, h2 = -x - w."""
    upper = _affine("upper", [1.0], lambda t: -width + 0.0 * t)
    lower = _affine("lower", [-1.0], lambda t: -width + 0.0 * t)
    controls = ControlSamples(1, lambda t, l: np.array([[-1.0], [1.0]]))
    return simple_problem(unit_velocity, zero_cost, constraints=(upper, lower),
                          controls=controls, name="thin-corridor-1d")


def affine_constraint(name, coeff, offset):
    return _affine(name, coeff, offset)


def x2u_problem(name="x2u"):
    """Velocity ``x**2 * u``: not Lipschitz in x on its wide box."""
    def f(t, x, u):
        return np.asarray(x, dtype=float) ** 2 * np.asarray(u, dtype=float)

    return simple_problem(f, zero_cost, k=1.0, c=100.0, box=[[-50.0, 50.0]], name=name)


def sway_problem():
    """Speed that depends on x and stops at the box's left edge, so that
    velocity arrays can agree at one node and differ elsewhere, and a concave
    cost, so that the cheapest of several equal-velocity mixtures (say, half
    -1 and half +1 against u = 0) is not the first in weight order."""
    def f(t, x, u):
        x = np.asarray(x, dtype=float)
        return np.asarray(u, dtype=float) * (x + 2.0) * (1.0 + 0.5 * np.sin(3.0 * x + t)) / 2

    def cost(t, x, u):
        x = np.asarray(x, dtype=float)[..., 0]
        return 1.0 - np.asarray(u, dtype=float)[..., 0] ** 2 + 0.1 * (1.0 + np.cos(x))

    return simple_problem(f, cost, M=3.0, name="sway-1d")
