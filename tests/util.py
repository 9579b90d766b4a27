"""Ad-hoc problem definitions used only by tests."""

import dataclasses

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
        # an elementwise product and a sum round each row alone; ``x @ cvec``
        # goes through BLAS, whose rounding of a row depends on the batch
        return (np.asarray(x, dtype=float) * cvec).sum(axis=-1) + offset(t)

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


def steady_sway_problem():
    """``sway-1d`` without the time term in its velocity: velocity arrays that
    differ from node to node and do not change with time."""
    def f(t, x, u):
        x = np.asarray(x, dtype=float)
        return np.asarray(u, dtype=float) * (x + 2.0) * (1.0 + 0.5 * np.sin(3.0 * x)) / 2

    return dataclasses.replace(sway_problem(), f=f, name="steady-sway-1d")


def sway_walls():
    """``sway-1d`` between two moving walls: its games differ from point to point."""
    walls = (affine_constraint("upper", [1.0], lambda t: -(0.8 + 0.4 * np.sin(t))),
             affine_constraint("lower", [-1.0], lambda t: -(1.2 + 0.3 * np.cos(t))))
    return dataclasses.replace(sway_problem(), constraints=walls)


def drift_problem(n):
    """Velocity ``0.7 u + (0.1 sin t, 0.05)`` (first entry alone in 1-D): the
    same at every node, changing with time, and not dyadic, so that mixture
    weights such as 1/3 give products that round.  The 1-D problem keeps the
    three default controls; the 2-D one has 9 random controls, one near each
    point of {-0.9, 0, 0.9}^2, so that every corner of the box has an inward
    velocity.  No constraints: every node is feasible."""
    drift = np.array([0.0, 0.05])[:n]

    def f(t, x, u):
        shift = drift + np.where(np.arange(n) == 0, 0.1 * np.sin(t), 0.0)
        return 0.7 * np.asarray(u, dtype=float) + shift + 0.0 * np.asarray(x, dtype=float)

    def cost(t, x, u):
        x = np.asarray(x, dtype=float)[..., 0]
        return 0.3 + 0.45 * (np.asarray(u, dtype=float) ** 2).sum(axis=-1) + 0.2 * np.sin(x + t)

    if n == 1:
        return simple_problem(f, cost, lam=3.0, M=0.8, name="drift-1d")
    rng = np.random.default_rng(7)
    grid = 0.9 * np.array([[a, b] for a in (-1, 0, 1) for b in (-1, 0, 1)], dtype=float)
    u = grid + rng.uniform(-0.1, 0.1, grid.shape)
    u.setflags(write=False)
    return simple_problem(f, cost, lam=3.0, n=2, M=1.2, controls=ControlSamples(2, lambda t, l: u),
                          box=[[-2.0, 2.0], [-1.5, 1.5]], name="drift-2d")
