"""Ad-hoc problem definitions, reference paths and artifact readers used
only by tests."""

import dataclasses
import json
import math

import numpy as np

from feastube import geometry as geo
from feastube import trajectory as tj
from feastube.value import ValueField
from feastube.problem import (
    ConstraintFunction,
    ControlSamples,
    Modulus,
    ProblemData,
    ProblemDefinition,
    get_problem,
    registered_problems,
)


# The certify benchmark's settings: --lambda 120 (above every problem's
# tracking rate, so no check is skipped) with an explicit grid and horizon.
CERTIFY_GRID = {               # problem: (--grid DX,DT, horizon length)
    "moving-wall-1d": ("0.05,0.05", 4.0),
    "quadratic-cost-1d": ("0.05,0.05", 4.0),
    "hover-1d": ("0.01,0.01", 2.0),
    "corridor-2d": ("0.1,0.1", 1.0),
}
CERTIFY_T0 = 1.25


def certify_args(name):
    """``pipeline`` flags of the certify benchmark's run on problem ``name``."""
    grid, length = CERTIFY_GRID[name]
    return ["--problem", name, "--lambda", "120", "--grid", grid,
            "--t0", repr(CERTIFY_T0), "--horizon", repr(CERTIFY_T0 + length),
            "--seed", "7"]


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


def switching_problem(seed=11):
    """moving-wall-1d whose control samples switch between 3 and 5 rows at
    three seeded times in [0, 2 pi], so that its sampled times fall into
    several runs of shared samples."""
    base = get_problem("moving-wall-1d")
    breaks = np.sort(np.random.default_rng(seed).uniform(0.0, 2 * math.pi, 3))

    def sampler(t, level):
        piece = int(np.searchsorted(breaks, t, side="right"))
        return np.linspace(-1.0, 1.0, 3 + 2 * (piece % 2))[:, None]

    return dataclasses.replace(base, controls=ControlSamples(1, sampler), name="switching-1d")


def steady_sway_problem():
    """``sway-1d`` without the time term in its velocity: velocity arrays that
    differ from node to node and do not change with time."""
    def f(t, x, u):
        x = np.asarray(x, dtype=float)
        return np.asarray(u, dtype=float) * (x + 2.0) * (1.0 + 0.5 * np.sin(3.0 * x)) / 2

    return dataclasses.replace(sway_problem(), f=f, name="steady-sway-1d")


def signed_zero_problem(reverse=False):
    """Velocity ``0.8 |u| - 0.4`` and a cost that is the same at every node,
    for the controls -1, -0.5, 0.5 and 1 (in reverse order when asked):
    u = -0.5 and u = 0.5 share velocity 0 and cost -0.0 and +0.0, and u = -1
    and u = 1 share velocity 0.4 and cost 0.1 u - 0.3, so that moving pays
    wherever its foot stays on the grid."""
    u = np.array([[-1.0], [-0.5], [0.5], [1.0]])[::-1 if reverse else 1].copy()
    u.setflags(write=False)

    def f(t, x, u):
        return 0.8 * np.abs(np.asarray(u, dtype=float)) - 0.4 + 0.0 * np.asarray(x, dtype=float)

    def cost(t, x, u):
        u = np.asarray(u, dtype=float)[..., 0]
        at = np.where(np.abs(u) < 1.0, np.copysign(0.0, u), 0.1 * u - 0.3)
        return at * np.ones_like(np.asarray(x, dtype=float)[..., 0])    # -0.0 * 1.0 is -0.0

    return simple_problem(f, cost, lam=3.0, controls=ControlSamples(1, lambda t, l: u),
                          name="signed-zero-1d")


def sway_walls():
    """``sway-1d`` between two moving walls: its games differ from point to point."""
    walls = (affine_constraint("upper", [1.0], lambda t: -(0.8 + 0.4 * np.sin(t))),
             affine_constraint("lower", [-1.0], lambda t: -(1.2 + 0.3 * np.cos(t))))
    return dataclasses.replace(sway_problem(), constraints=walls)


def drift_velocity(n):
    """``0.7 u + (0.1 sin t, 0.05, -0.03)``, cut to its first ``n`` entries
    (``n <= 3``): the same at every node, changing with time."""
    drift = np.array([0.0, 0.05, -0.03])[:n]

    def f(t, x, u):
        shift = drift + np.where(np.arange(n) == 0, 0.1 * np.sin(t), 0.0)
        return 0.7 * np.asarray(u, dtype=float) + shift + 0.0 * np.asarray(x, dtype=float)

    return f


def drift_problem(n):
    """Velocity ``drift_velocity(n)`` for ``n`` of 1 or 2: not dyadic, so
    that mixture weights such as 1/3 give products that round.
    The 1-D problem keeps the three default controls; the 2-D one has 9
    random controls, one near each point of {-0.9, 0, 0.9}^2, so that every
    corner of the box has an inward velocity.  No constraints: every node is
    feasible."""
    f = drift_velocity(n)

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


def corner_problem():
    """Two walls that meet at a corner, ``x1 <= 0.5 + 0.1 sin t`` and
    ``x2 <= 0.5``, and a default control (0.8, 0.8) that drives into it.
    With both walls active the margin game of the controls (-1, 0.5),
    (0.5, -1) and (0.8, 0.8) has value 0.25 at alpha = (1/2, 1/2, 0), so the
    viability rule chatters between the first two by its mixture credit."""
    walls = (affine_constraint("right", [1.0, 0.0], lambda t: -(0.5 + 0.1 * np.sin(t))),
             affine_constraint("top", [0.0, 1.0], lambda t: -0.5 + 0.0 * t))
    u = np.array([[-1.0, 0.5], [0.5, -1.0], [0.8, 0.8]])
    u.setflags(write=False)
    p = simple_problem(unit_velocity, zero_cost, constraints=walls, n=2, M=1.2, omega_lip=0.1,
                       controls=ControlSamples(2, lambda t, l: u),
                       box=[[-2.0, 2.0], [-2.0, 2.0]], name="corner-2d")
    return dataclasses.replace(p, default_control=u[2])


def credit_problem():
    """A box corner in 3-D, ``x_i <= 0.5`` at t = 0, whose walls recede:
    ``x1`` to 1.0 by t = 0.1, ``x2`` and ``x3`` to 2.5 by t = 0.4.  At the
    corner the margin game of the controls ``-e_i + 0.2`` is uniform over
    the three, and its first pick leaves the credit (-2/3, 1/3, 1/3).  The
    default control ``e_1`` then carries the path back to the first wall
    alone, whose game is pure for ``-e_1 + 0.2``; from that credit the
    multiplexer picks the second control instead (``-2/3 + 1`` rounds
    below ``1/3``)."""
    walls = (affine_constraint("x1", [1.0, 0.0, 0.0], lambda t: -(0.5 + 5.0 * np.clip(t, 0.0, 0.1))),
             affine_constraint("x2", [0.0, 1.0, 0.0], lambda t: -(0.5 + 5.0 * np.clip(t, 0.0, 0.4))),
             affine_constraint("x3", [0.0, 0.0, 1.0], lambda t: -(0.5 + 5.0 * np.clip(t, 0.0, 0.4))))
    u = np.vstack([-np.eye(3) + 0.2, [[1.0, 0.0, 0.0]]])
    u.setflags(write=False)
    p = simple_problem(unit_velocity, zero_cost, constraints=walls, n=3, M=1.5,
                       controls=ControlSamples(3, lambda t, l: u),
                       box=[[-2.0, 3.0]] * 3, name="credit-3d")
    return dataclasses.replace(p, default_control=u[3])


def hold_reference(p, rng, steps, dt=1e-3):
    """Moving-wall path that holds about 0.05 above the level 0.9 while the
    wall ``1 + 0.4 sin t`` sweeps down through it: one violation episode
    early on, then a long tail."""
    t_cross = math.pi + math.asin(0.25)
    t0 = t_cross - 1.0 + float(rng.uniform(-0.01, 0.01))
    level = 0.95 + float(rng.uniform(-0.01, 0.01))
    hold = int(np.argmin(np.abs(p.controls.at(t0, 0)[:, 0])))
    return tj.integrate(p, t0, [level], [hold] * steps, steps, dt)


def _drifting_out(p, rng, t_mid, depth, side):
    """A 1000-step path at dt 1e-3 that starts ``depth`` (jittered) inside
    the boundary point ``side`` near the time ``t_mid`` and drifts out
    across it; the jitter widens only to find one that violates by over
    5e-3."""
    u0 = p.controls.at(0.0, 0)
    for attempt in range(20):
        jitter = 0.02 if attempt == 0 else 0.2
        t0 = float(t_mid + rng.uniform(-jitter, jitter))
        pts = geo.sample_boundary_points(p, t0, 8)
        if not pts:
            continue
        xb = pts[(side + attempt) % len(pts)]
        hv = geo.eval_constraints(p, t0, xb)
        g = np.asarray(p.constraints[int(np.argmax(hv))].grad(t0, xb), dtype=float).reshape(-1)
        g = g / np.linalg.norm(g)
        x0 = xb - (depth + 0.1 * float(rng.uniform(-jitter, jitter))) * g
        if not geo.is_feasible(p, t0, x0) or geo.clearance_proxy(p, t0, x0) < 0.04:
            continue
        drift = int(np.argmax((u0 @ g) + 0.15 * rng.standard_normal(len(u0))))
        idx = np.where(rng.random(1000) < 0.85, drift, rng.integers(0, len(u0), 1000))
        ref = tj.integrate(p, t0, x0, idx.tolist(), 1000, 1e-3)
        if geo.distances_upper_along(p, ref.times, ref.states).max() > 5e-3:
            return ref
    raise AssertionError(f"no violating path for {p.name}")


def repair_benchmark_references(seed):
    """``(problem, reference)`` for each of the 60 references that the
    ``repair`` benchmark repairs at ``seed``, drawn by its recipe: 12 per
    registered problem, at start times spread over one period and depths
    spread over 0.05-0.35, then 12 moving-wall holds (ten of 2,000 steps,
    one of 4,000 and one of 8,000)."""
    rng = np.random.default_rng([seed, 0])
    depth_rank = np.random.default_rng(0).permutation(12)
    refs = []
    for name in registered_problems():
        p = get_problem(name)
        refs += [(p, _drifting_out(p, rng, 2 * math.pi * (i + 0.5) / 12,
                                   0.05 + 0.3 * (depth_rank[i] + 0.5) / 12, i))
                 for i in range(12)]
    wall = get_problem("moving-wall-1d")
    return refs + [(wall, hold_reference(wall, rng, steps))
                   for steps in (2000,) * 10 + (4000, 8000)]


# --- artifact readers -----------------------------------------------------------

def read_trajectory_like(path):
    """The columns of a CSV that ``analysis.write_csv`` wrote, by name."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.array([[float(v) for v in line.split(",")] for line in fh])
    return {name: data[:, j] for j, name in enumerate(header)}


def read_trajectory_csv(path):
    """A trajectory CSV of ``cli.write_trajectory_csv``: times, states,
    ``maxh``, ``dist`` and the controls when it has them."""
    cols = read_trajectory_like(path)
    out = {
        "t": cols["t"],
        "states": np.column_stack([v for k, v in cols.items() if k.startswith("x_")]),
        "maxh": cols["maxh"],
        "dist": cols["dist"],
    }
    ucols = [v for k, v in cols.items() if k.startswith("u_")]
    if ucols:
        out["controls"] = np.column_stack(ucols)
    return out


def read_field(outdir, name):
    """The field ``cli.write_field(outdir, name, field)`` wrote, bit for bit;
    a ValueError names a values file whose shape its header does not give."""
    header = json.loads((outdir / f"{name}.json").read_text())
    g = header["grid"]
    axes = tuple(
        np.linspace(lo, hi, s) for lo, hi, s in zip(g["lo"], g["hi"], g["shape"])
    )
    path = outdir / f"{name}.npy"
    values = np.load(path, allow_pickle=False)
    nt = int(round((header["T"] - header["t0"]) / header["dt"])) + 1
    if values.shape != (nt, *g["shape"]):
        raise ValueError(f"{path}: the header gives shape {(nt, *g['shape'])}, "
                         f"the values have shape {values.shape}")
    return ValueField(
        relaxed=header["relaxed"], lam=header["lambda"], t0=header["t0"],
        dt=header["dt"], T=header["T"], axes=axes, values=values,
        tail_bound=header["tail_bound"], a1=header["a1"], a2=header["a2"],
        x0_bound=header["x0_bound"], problem_name=header["problem"],
        level=header["level"], mixture_grid=header["mixture_grid"],
    )
