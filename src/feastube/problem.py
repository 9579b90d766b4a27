"""Problem definitions, moduli, the benchmark registry, and data-assumption checks.

A problem bundles controlled dynamics ``f(t, x, u)``, a running cost
``L(t, x, u)``, a discount rate, finite control samples per time, a list of
smooth inequality constraints ``h_i(t, x) <= 0``, and the scalar/modulus data
every downstream construction consumes (velocity bound, Lipschitz and
continuity moduli, growth envelope).  Everything is immutable after
construction and all evaluation maps are pure, so definitions can be shared
freely across workers.

Dynamics, costs, constraint values and gradients must broadcast over leading
axes: ``f(t, X, U)`` with ``X`` of shape ``(..., n)`` and ``U`` of shape
``(..., d)`` returns shape ``(..., n)``.  A constraint ``h(t, X)`` must also
broadcast over an array ``t`` whose shape broadcasts against the leading axes
of ``X``, returning exactly that broadcast shape.  So must the running cost
``L(t, X, U)``, and ``f`` and a constraint's ``grad`` over such a ``t``
with a trailing axis appended (the value sweep evaluates a block of time
slices in one call, the viability rule a run of steps); so must
``anchor(t)`` over an array ``t``, returning shape ``t.shape + (n,)``.  One
that does not raises ``ValueError`` naming it.  The shipped benchmarks
follow these conventions.  Only ``ProblemDefinition`` methods evaluate the
data: ``velocities`` and ``costs`` put the sampled controls on a leading axis
(``(k, ..., n)`` and ``(k, ...)``), ``constraint_values`` stacks every ``h``
on a last axis, ``gradients`` every ``grad`` on the axis before the last
(``(..., m, n)``), and ``anchors`` gives ``anchor``'s points.  A result of
the wrong shape raises ``ValueError``; a non-finite constraint value,
``-inf`` included, raises ``NonFiniteConstraint``.

Each row of a batched evaluation should be byte for byte the same row
evaluated alone: row ``j`` of ``velocities(t, x)`` is ``f(t, x, u_j)``,
each point's row of ``constraint_values``, of ``velocities`` and of
``gradients`` over a batch is that point's own, at one time or at per-point
times, each time's row of ``anchors`` is that time's own call, each time's
rows of ``velocities`` and ``costs`` over a block of times are that time's
own call, and row ``i`` of ``f(t[:, None], X, U)`` (one time, state and
control per row, as a path's march calls it) is ``f(t[i], X[i], U[i])``.
The march reuses the chosen velocity row as RK4's first stage and evaluates
a block of steps at once, and the batched geometry kernels, the anchors of
the distance and boundary functions, the margin check's calls per sampled
time, the viability rule's gradients per run of steps, the value sweep's
blocks, and the calls of the assumption checks and of the time-regularity
check over blocks of times that share their samples stand in for
per-point, per-slice and per-time loops, on this basis.
Elementwise numpy code has it.  A BLAS product such as ``x @ c`` may round
a row differently in a batch; ``(x * c).sum(axis=-1)`` does not.  The
shipped walls keep ``x @ c``, because their coefficients are 0 and +-1:
every product is exact, so no summation order can change a row.  Data
without the property keep every guarantee within its tolerance, but not
bit-identity.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    EmptyControlSet,
    InvalidOverrideValue,
    NonFiniteConstraint,
    UnknownOverrideKey,
    UnknownProblem,
    UnsupportedModulusForm,
)

Array = np.ndarray


# ---------------------------------------------------------------------------
# moduli
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Modulus:
    """Nonnegative rate on ``[0, inf)`` in closed form.

    Supported forms are constant and piecewise-constant; the last piece
    extends to infinity.  ``theta(sigma)`` is the largest possible integral
    of the rate over a measurable time set of measure at most ``sigma``,
    obtained greedily from the highest-valued pieces; for a constant value
    ``v`` this reduces to ``v * sigma``.
    """

    breaks: tuple[float, ...]
    levels: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.breaks) != len(self.levels) or not self.breaks:
            raise ValueError("breaks and levels must be equal-length and nonempty")
        if self.breaks[0] != 0.0:
            raise ValueError("first break must be 0")
        if any(b >= c for b, c in zip(self.breaks, self.breaks[1:])):
            raise ValueError("breaks must be strictly increasing")
        if any(v < 0 for v in self.levels):
            raise ValueError("levels must be nonnegative")

    @staticmethod
    def constant(value: float) -> "Modulus":
        return Modulus((0.0,), (float(value),))

    @staticmethod
    def piecewise(breaks: Sequence[float], levels: Sequence[float]) -> "Modulus":
        return Modulus(tuple(float(b) for b in breaks), tuple(float(v) for v in levels))

    def value(self, t: float) -> float:
        idx = int(np.searchsorted(self.breaks, t, side="right")) - 1
        return self.levels[max(idx, 0)]

    def sup(self) -> float:
        return max(self.levels)

    def integral(self, a: float, b: float) -> float:
        """Integral of the rate over ``[a, b]`` (0 when b <= a)."""
        if b <= a:
            return 0.0
        total = 0.0
        edges = list(self.breaks) + [math.inf]
        for lo, hi, v in zip(edges[:-1], edges[1:], self.levels):
            left, right = max(a, lo), min(b, hi)
            if right > left:
                total += v * (right - left)
        return total

    def theta(self, sigma: float) -> float:
        """Largest integral over a time set of measure at most ``sigma``."""
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if sigma == 0:
            return 0.0
        edges = list(self.breaks) + [math.inf]
        pieces = [(v, edges[i + 1] - edges[i]) for i, v in enumerate(self.levels)]
        pieces.sort(key=lambda p: -p[0])
        remaining, total = float(sigma), 0.0
        for v, length in pieces:
            take = min(remaining, length)
            total += v * take
            remaining -= take
            if remaining <= 0:
                break
        return total


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConstraintFunction:
    """One smooth constraint ``h(t, x) <= 0`` with its regularity data.

    ``grad`` is the spatial gradient; ``holder_const`` bounds the Hoelder
    ratio ``|grad(t,x) - grad(t,y)| / |x - y|**holder_theta`` and
    ``grad_bound`` bounds ``|grad|``, both uniformly in time.
    """

    h: Callable[[float, Array], Array]
    grad: Callable[[float, Array], Array]
    holder_theta: float
    holder_const: float
    grad_bound: float
    name: str = ""

    def __post_init__(self) -> None:
        if not (0.0 < self.holder_theta < 1.0):
            raise ValueError("holder_theta must lie in (0, 1)")
        if self.holder_const < 0 or self.grad_bound < 0:
            raise ValueError("holder_const and grad_bound must be nonnegative")


# Velocity values that one evaluation over a block of times sharing their
# control samples holds at most, in the value sweep and in
# verify_data_assumptions: it bounds both blocks' temporaries.
_SAMPLE_BLOCK = 32768


@dataclass(frozen=True, eq=False)
class ControlSamples:
    """Finite, nested control samples per time.

    ``sampler(t, level)`` returns an ``(k, dim)`` array; the level-``l+1``
    list must contain the level-``l`` list (dyadic refinement in the shipped
    benchmarks).
    """

    dim: int
    sampler: Callable[[float, int], Array]

    def at(self, t: float, level: int = 0) -> Array:
        return self._checked(self._draw(t, level), t, level)

    def _draw(self, t: float, level: int):
        """The sampler's samples at one time, as it returns them."""
        if getattr(t, "ndim", 0):
            raise ValueError(f"control samples are drawn at one time, got t of shape {t.shape}")
        return self.sampler(t, int(level))

    def _checked(self, u, t: float, level: int) -> Array:
        """A draw as a ``(k, dim)`` float array with k >= 1, or the error naming
        what it lacks."""
        if type(u) is not np.ndarray or u.dtype != np.float64 or u.ndim != 2:
            u = np.atleast_2d(np.asarray(u, dtype=float))
        if u.size == 0:
            raise EmptyControlSet(f"no control samples at t={t}, level={level}")
        if u.shape[1] != self.dim:
            raise ValueError(f"sampler returned shape {u.shape}, expected (*, {self.dim})")
        return u

    def shared(self, u: Array, times: list, level: int) -> tuple[int, Array | None]:
        """How many leading ``times`` have samples that are ``u`` itself or
        have its shape and bytes, the times at which ``velocities`` and
        ``costs`` may take ``u``; and the samples at the first time that
        does not (None when every time does), as ``at`` gives them.  The
        sampler runs once per time up to that one; ``u`` comes from ``at``
        or from this method, so a draw that is ``u`` itself is not checked
        again."""
        bits = None
        for q, t in enumerate(times):
            v = self._draw(t, level)
            if v is not u:
                v = self._checked(v, t, level)
                bits = u.tobytes() if bits is None else bits
                if v.shape != u.shape or v.tobytes() != bits:
                    return q, v
        return len(times), None

    def runs(self, times: list, level: int):
        """``(lo, hi, u)`` for each run ``times[lo:hi]`` of consecutive times
        that share their samples ``u`` (``shared``), in order.  The sampler
        runs once per time."""
        lo, u = 0, None
        while lo < len(times):
            u = self.at(times[lo], level) if u is None else u
            n, nxt = self.shared(u, times[lo + 1:], level)
            yield lo, lo + 1 + n, u
            lo, u = lo + 1 + n, nxt


@dataclass(frozen=True, eq=False)
class ProblemData:
    """Scalar and modulus data consumed by the constructions.

    M bounds velocities on the boundary tube of radius ``alpha``; ``phi``,
    ``gamma``, ``c``, ``k`` are the Lipschitz-in-x, left-continuity-in-t,
    growth, and state-Lipschitz moduli; ``a1``/``a2`` give the affine
    majorant of the running integral of ``c``; ``omega_lip`` is the
    Lipschitz rate of the moving constraint set; ``eta_tilde`` the tube
    radius on which the left-continuity modulus is valid.
    """

    M: float
    alpha: float
    phi: Modulus
    gamma: Modulus
    c: Modulus
    k: Modulus
    a1: float
    a2: float
    omega_lip: float
    eta_tilde: float

    def __post_init__(self) -> None:
        for name in ("M", "alpha", "a1", "a2", "omega_lip", "eta_tilde"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("phi", "gamma", "c", "k"):
            if not isinstance(getattr(self, name), Modulus):
                raise UnsupportedModulusForm(f"{name} must be a Modulus")


@dataclass(frozen=True, eq=False)
class ProblemDefinition:
    """Immutable problem bundle; see module docstring for conventions.

    ``anchor(t)`` must return a point in the interior of the constraint set
    at every time (used to cast boundary-finding rays), one row per time
    over an array ``t`` (read through ``anchors``), ``box`` bounds the
    working region for sampling-based checks, and ``default_control`` is a
    member of the sampled control set used when no constraint is nearby.
    """

    name: str
    n: int
    f: Callable[[float, Array, Array], Array]
    running_cost: Callable[[float, Array, Array], Array]
    lam: float
    controls: ControlSamples
    constraints: tuple[ConstraintFunction, ...]
    data: ProblemData
    default_control: Array
    anchor: Callable[[float], Array]
    box: Array
    _grad_bounds: Array = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise InvalidOverrideValue("discount rate must be positive")
        dc = np.asarray(self.default_control, dtype=float).reshape(-1)
        dc.setflags(write=False)
        object.__setattr__(self, "default_control", dc)
        box = np.asarray(self.box, dtype=float).reshape(self.n, 2)
        box.setflags(write=False)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "constraints", tuple(self.constraints))
        gb = np.array([c.grad_bound for c in self.constraints], dtype=float)
        gb.setflags(write=False)
        object.__setattr__(self, "_grad_bounds", gb)

    @property
    def m(self) -> int:
        return len(self.constraints)

    def velocities(self, t, X, level: int = 0, u: Array | None = None) -> tuple[Array, Array]:
        """Sampled controls and their velocities at points ``X`` of shape
        ``(..., n)``: ``(k, d)`` and ``(k, ..., n)``; one point gives ``(k, n)``.

        ``t`` is a scalar, or an array broadcasting against the leading axes
        of ``X`` together with the samples ``u`` that all its times share
        (``ControlSamples.shared``); ``f`` then receives ``t`` with a
        trailing axis, so that it broadcasts against ``x``.  A caller that
        holds the samples at the same ``(t, level)`` passes them as ``u``.

        The velocities are read-only: a copy of what ``f`` returned,
        broadcast to the full shape, so that an axis ``f`` did not give, as
        the times when ``f`` does not read ``t``, has stride 0 and holds one
        entry.  A caller that writes into them copies them first."""
        u = self.controls.at(t, level) if u is None else u
        return u, _per_control(self.f, t, X, u, (self.n,), "f", self.name)

    def costs(self, t, X, level: int = 0, u: Array | None = None) -> Array:
        """Running costs of the sampled controls at points ``X`` of shape
        ``(..., n)``: ``(k, ...)``.  ``t`` and ``u`` are as for
        ``velocities``; the cost receives an array ``t`` as it is.  The
        costs are read-only, a broadcast of what the cost returned, as the
        velocities are."""
        u = self.controls.at(t, level) if u is None else u
        return _per_control(self.running_cost, t, X, u, (), "running cost", self.name)

    def constraint_values(self, t, X) -> Array:
        """``h_i(t, X)`` stacked on a last axis: ``X`` of shape ``(..., n)`` gives ``(..., m)``.

        ``t`` is a scalar or an array broadcasting against the leading axes of
        ``X``; each ``h`` must return exactly the broadcast shape.
        """
        X = np.asarray(X, dtype=float)
        lead = X.shape[:-1]
        if getattr(t, "ndim", 0) and t.shape != lead:
            lead = np.broadcast_shapes(t.shape, lead)
        out = np.empty(lead + (self.m,))
        for i, c in enumerate(self.constraints):
            try:
                hv = c.h(t, X)
            except (TypeError, ValueError) as exc:
                raise _no_broadcast(f"constraint {c.name or i!r}", t, X, exc) from exc
            if getattr(hv, "shape", ()) != lead:
                raise _no_broadcast(f"constraint {c.name or i!r}", t, X,
                                   f"h returned shape {np.shape(hv)}, expected {lead}")
            out[..., i] = hv
        if np.count_nonzero(np.isfinite(out)) != out.size:   # faster than .all() on a point
            *node, i = (int(k) for k in np.argwhere(~np.isfinite(out))[0])
            node = tuple(node)
            x = np.broadcast_to(X, lead + X.shape[-1:])[node]
            t = np.broadcast_to(t, lead)[node]
            raise NonFiniteConstraint(
                f"constraint {self.constraints[i].name or i!r} is {out[node + (i,)]} at "
                f"t={t}, x={x!r}", t, x
            )
        return out

    def anchors(self, t) -> Array:
        """The anchor at each time: ``t`` a scalar gives ``(n,)``, an array
        of shape ``S`` gives ``S + (n,)``, each row the anchor at its time.
        ``anchor`` receives ``t`` as it is and must return exactly that
        shape."""
        shape = np.shape(t) + (self.n,)
        try:
            a = self.anchor(t)
        except (TypeError, ValueError) as exc:
            raise _no_broadcast(f"anchor of {self.name}", t, None, exc) from exc
        if np.shape(a) != shape:
            raise _no_broadcast(f"anchor of {self.name}", t, None,
                                f"anchor returned shape {np.shape(a)}, expected {shape}")
        return np.asarray(a, dtype=float)

    def gradients(self, t, X) -> Array:
        """Every constraint's spatial gradient at points ``X`` of shape
        ``(..., n)``, stacked on the axis before the last: ``(..., m, n)``.

        ``t`` is a scalar or an array broadcasting against the leading axes
        of ``X``, as for ``constraint_values``; ``grad`` then receives ``t``
        with a trailing axis, as ``f`` does from ``velocities``, and must
        return exactly the broadcast leading shape plus ``(n,)``.
        """
        X = np.asarray(X, dtype=float)
        lead, ts = X.shape[:-1], t
        if getattr(t, "ndim", 0):
            if t.shape != lead:
                lead = np.broadcast_shapes(t.shape, lead)
            ts = t[..., None]
        shape = lead + (self.n,)
        out = np.empty(lead + (self.m, self.n))
        for i, c in enumerate(self.constraints):
            try:
                g = c.grad(ts, X)
            except (TypeError, ValueError) as exc:
                raise _no_broadcast(f"gradient of constraint {c.name or i!r}", t, X, exc) from exc
            if np.shape(g) != shape:
                raise _no_broadcast(f"gradient of constraint {c.name or i!r}", t, X,
                                    f"grad returned shape {np.shape(g)}, expected {shape}")
            out[..., i, :] = g
        return out

    def grad_bounds(self) -> Array:
        """``grad_bound`` of every constraint, read-only, built once."""
        return self._grad_bounds


def _per_control(fn, t, X, u: Array, tail: tuple, what: str, name: str) -> Array:
    """``fn(t, X, u_j)`` for every control row, controls on a leading axis.
    An array ``t`` broadcasts against the leading axes of ``X`` and reaches
    ``fn`` with ``tail``'s axes appended.

    The result is a float copy of what ``fn`` returned, at the shape it
    returned, so that a ``fn`` that reuses an output buffer cannot change
    it later; it is given read-only, broadcast to the full shape (controls,
    leading axes, ``tail``): an axis ``fn`` left out or at length 1, such
    as the times of data that do not read ``t``, has stride 0 there.  A
    result of the full shape is the copy itself.  A ``fn`` that fails over
    the points and times, or whose result does not broadcast to the full
    shape, raises ValueError naming it as ``what`` of problem ``name``."""
    X = np.asarray(X, dtype=float)
    lead, ts = X.shape[:-1], t
    if getattr(t, "ndim", 0):
        lead = np.broadcast_shapes(t.shape, lead)
        ts = t.reshape(t.shape + (1,) * len(tail))
    full = u.shape[:1] + lead + tail
    if lead:
        u = u.reshape(u.shape[:1] + (1,) * len(lead) + u.shape[1:])
    try:
        out = np.array(fn(ts, X, u), dtype=float)
        if out.shape != full:
            return np.broadcast_to(out, full)
    except (TypeError, ValueError) as exc:
        raise _no_broadcast(f"{what} of {name}", t, X, exc) from exc
    out.setflags(write=False)
    return out


def row_norms(D: Array) -> Array:
    """The Euclidean length of each row of ``D`` (N, n), or of each entry of
    a 1-D ``D``.  Each squared length is one dot product, as in the 1-D
    ``np.linalg.norm`` of the row; a sum of squares (``summed_norms``) can
    round differently in 2-D.  An entry's square is a one-term dot product."""
    if D.ndim == 1:
        return np.sqrt(D * D)
    return np.sqrt((D[:, None, :] @ D[:, :, None])[:, 0, 0])


def summed_norms(D: Array) -> Array:
    """``np.linalg.norm(D, axis=-1)``: the root of each last-axis row's
    squares, summed alone in numpy's order, so that a row's norm in a stack
    is its norm alone."""
    return np.sqrt(np.add.reduce(D * D, axis=-1))


def _no_broadcast(what: str, t, X, why) -> ValueError:
    """The error for model data ``what`` that fails over the array ``t``
    and the points ``X`` (None for data of the time alone), for the reason
    ``why``."""
    over = "" if X is None else f" and x of shape {np.shape(X)}"
    return ValueError(f"{what} does not broadcast over t of shape {np.shape(t)}{over}: {why}")


# ---------------------------------------------------------------------------
# benchmark registry
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _dyadic_interval(level: int) -> Array:
    out = np.linspace(-1.0, 1.0, 2 ** (level + 1) + 1).reshape(-1, 1)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=32)
def _dyadic_square(level: int) -> Array:
    g = _dyadic_interval(level)[:, 0]
    u1, u2 = np.meshgrid(g, g, indexing="ij")
    out = np.column_stack([u1.ravel(), u2.ravel()])
    out.setflags(write=False)
    return out


def _affine_constraint(name, coeff, offset):
    """h(t, x) = <coeff, x> + offset(t) with constant gradient (Hoelder
    exponent 0.5, constant 0)."""
    cvec = np.asarray(coeff, dtype=float)

    def h(t, x):
        x = np.asarray(x, dtype=float)
        return x @ cvec + offset(t)

    def grad(t, x):
        out = np.empty(np.broadcast(t, x).shape)
        out[...] = cvec
        return out

    return ConstraintFunction(
        h=h, grad=grad, holder_theta=0.5, holder_const=0.0,
        grad_bound=float(np.linalg.norm(cvec)), name=name,
    )


def _moving_wall(params: Mapping[str, float]) -> ProblemDefinition:
    lam, amp = params["lambda"], params["amplitude"]
    upper = _affine_constraint("wall", [1.0], lambda t: -(1.0 + amp * np.sin(t)))
    lower = _affine_constraint("floor", [-1.0], lambda t: -2.0 + 0.0 * t)

    def f(t, x, u):
        return 0.0 * np.asarray(x, dtype=float) + np.asarray(u, dtype=float)

    def cost(t, x, u):
        u = np.asarray(u, dtype=float)
        base = u[..., 0] ** 2 + 0.4 * (1.0 - np.cos(t))
        return base + 0.0 * np.asarray(x, dtype=float)[..., 0]

    data = ProblemData(
        M=1.0, alpha=0.5,
        phi=Modulus.constant(0.0),
        gamma=Modulus.constant(max(amp, 1e-12)),
        c=Modulus.constant(2.8),
        k=Modulus.constant(0.0),
        a1=2.8, a2=0.0, omega_lip=max(amp, 1e-12), eta_tilde=0.5,
    )
    return ProblemDefinition(
        name="moving-wall-1d", n=1, f=f, running_cost=cost, lam=lam,
        controls=ControlSamples(1, lambda t, level: _dyadic_interval(level)),
        constraints=(upper, lower), data=data,
        default_control=np.array([0.0]),
        anchor=lambda t: np.full(np.shape(t) + (1,), -0.5),
        box=np.array([[-2.5, 2.0]]),
    )


def _corridor(params: Mapping[str, float]) -> ProblemDefinition:
    lam, width = params["lambda"], params["width"]
    upper = _affine_constraint("upper", [0.0, 1.0], lambda t: -(width / 2 + 0.2 * np.sin(t)))
    lower = _affine_constraint("lower", [0.0, -1.0], lambda t: -width / 2 + 0.2 * np.sin(t))

    def sampler(t, level):
        return _dyadic_square(level)

    def f(t, x, u):
        return 0.0 * np.asarray(x, dtype=float) + np.asarray(u, dtype=float)

    def cost(t, x, u):
        u = np.asarray(u, dtype=float)
        return (u ** 2).sum(axis=-1) + 0.0 * np.asarray(x, dtype=float)[..., 0]

    c_bound = math.sqrt(2.0) + 2.0
    data = ProblemData(
        M=math.sqrt(2.0), alpha=0.25,
        phi=Modulus.constant(0.0),
        gamma=Modulus.constant(0.0),
        c=Modulus.constant(c_bound),
        k=Modulus.constant(0.0),
        a1=c_bound, a2=0.0, omega_lip=0.2, eta_tilde=0.4,
    )
    return ProblemDefinition(
        name="corridor-2d", n=2, f=f, running_cost=cost, lam=lam,
        controls=ControlSamples(2, sampler),
        constraints=(upper, lower), data=data,
        default_control=np.array([0.0, 0.0]),
        anchor=lambda t: np.stack(np.broadcast_arrays(0.0, 0.2 * np.sin(t)), axis=-1),
        box=np.array([[-2.0, 2.0], [-1.5, 1.5]]),
    )


def _quadratic_cost(params: Mapping[str, float]) -> ProblemDefinition:
    lam = params["lambda"]
    upper = _affine_constraint("upper", [1.0], lambda t: -2.0 + 0.0 * t)
    lower = _affine_constraint("lower", [-1.0], lambda t: -2.0 + 0.0 * t)

    def f(t, x, u):
        return 0.0 * np.asarray(x, dtype=float) + np.asarray(u, dtype=float)

    def cost(t, x, u):
        u = np.asarray(u, dtype=float)
        return u[..., 0] ** 2 + 0.0 * np.asarray(x, dtype=float)[..., 0]

    data = ProblemData(
        M=1.0, alpha=0.5,
        phi=Modulus.constant(0.0),
        gamma=Modulus.constant(0.0),
        c=Modulus.constant(2.0),
        k=Modulus.constant(0.0),
        a1=2.0, a2=0.0, omega_lip=0.0, eta_tilde=0.5,
    )
    return ProblemDefinition(
        name="quadratic-cost-1d", n=1, f=f, running_cost=cost, lam=lam,
        controls=ControlSamples(1, lambda t, level: _dyadic_interval(level)),
        constraints=(upper, lower), data=data,
        default_control=np.array([0.0]),
        anchor=lambda t: np.zeros(np.shape(t) + (1,)),
        box=np.array([[-2.5, 2.5]]),
    )


def _hover(params: Mapping[str, float]) -> ProblemDefinition:
    # Nonconvex velocity set {-1, +1}: parking at the cost trough is only
    # possible for mixtures, which is what the relaxation studies exercise.
    lam, half = params["lambda"], params["halfwidth"]
    upper = _affine_constraint("upper", [1.0], lambda t: -half + 0.0 * t)
    lower = _affine_constraint("lower", [-1.0], lambda t: -half + 0.0 * t)

    def f(t, x, u):
        return 0.0 * np.asarray(x, dtype=float) + np.asarray(u, dtype=float)

    def cost(t, x, u):
        x = np.asarray(x, dtype=float)
        return x[..., 0] ** 2 + 0.0 * np.asarray(u, dtype=float)[..., 0]

    data = ProblemData(
        M=1.0, alpha=0.1,
        phi=Modulus.constant(0.0),
        gamma=Modulus.constant(0.0),
        c=Modulus.constant(1.0),
        k=Modulus.constant(2.0),
        a1=1.0, a2=0.0, omega_lip=0.0, eta_tilde=0.3,
    )
    samples = np.array([[-1.0], [1.0]])
    samples.setflags(write=False)
    return ProblemDefinition(
        name="hover-1d", n=1, f=f, running_cost=cost, lam=lam,
        controls=ControlSamples(1, lambda t, level: samples),
        constraints=(upper, lower), data=data,
        default_control=np.array([1.0]),
        anchor=lambda t: np.zeros(np.shape(t) + (1,)),
        box=np.array([[-2 * half, 2 * half]]),
    )


_REGISTRY: dict[str, tuple[Callable[[Mapping[str, float]], ProblemDefinition], dict[str, float]]] = {
    "moving-wall-1d": (_moving_wall, {"lambda": 2.0, "amplitude": 0.4}),
    "corridor-2d": (_corridor, {"lambda": 2.0, "width": 1.0}),
    "quadratic-cost-1d": (_quadratic_cost, {"lambda": 1.0}),
    "hover-1d": (_hover, {"lambda": 2.0, "halfwidth": 0.3}),
}

_POSITIVE_KEYS = {"lambda", "width", "halfwidth"}


def registered_problems() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def _coerce_overrides(overrides) -> dict[str, float]:
    if overrides is None:
        return {}
    if isinstance(overrides, Mapping):
        items = overrides.items()
    else:
        items = []
        for entry in overrides:
            if isinstance(entry, str):
                if "=" not in entry:
                    raise InvalidOverrideValue(f"override {entry!r} is not key=value")
                k, v = entry.split("=", 1)
                items.append((k.strip(), v))
            else:
                items.append(tuple(entry))
    return {str(k): v for k, v in items}


def get_problem(name: str, overrides=None) -> ProblemDefinition:
    """Build a registered benchmark, optionally overriding registry keys.

    ``overrides`` may be a mapping, ``(key, value)`` pairs, or ``key=value``
    strings.  Unknown keys and out-of-range values are rejected.
    """
    if name not in _REGISTRY:
        raise UnknownProblem(f"unknown problem {name!r}; known: {sorted(_REGISTRY)}")
    factory, defaults = _REGISTRY[name]
    params = dict(defaults)
    for key, raw in _coerce_overrides(overrides).items():
        if key not in params:
            raise UnknownOverrideKey(f"{name} has no override {key!r}; known: {sorted(params)}")
        try:
            value = float(raw)
        except (TypeError, ValueError) as exc:
            raise InvalidOverrideValue(f"override {key}={raw!r} is not a number") from exc
        if key in _POSITIVE_KEYS and value <= 0:
            raise InvalidOverrideValue(f"override {key} must be positive, got {value}")
        if not math.isfinite(value) or value < 0:
            raise InvalidOverrideValue(f"override {key} must be finite and nonnegative")
        params[key] = value
    return factory(params)


# ---------------------------------------------------------------------------
# assumption checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplingSpec:
    """Sampling plan for assumption falsification checks."""

    horizon: float = 2 * math.pi
    time_points: int = 24
    space_points: int = 96
    level: int = 1

    def __post_init__(self) -> None:
        if self.horizon <= 0 or self.time_points < 2 or self.space_points < 2:
            raise ValueError("degenerate sampling spec")


@dataclass(frozen=True)
class AssumptionCheck:
    assumption_id: str
    status: str  # "pass" | "fail" | "vacuous"
    worst_witness: dict

    def to_jsonable(self) -> dict:
        return {
            "assumption_id": self.assumption_id,
            "status": self.status,
            "worst_witness": self.worst_witness,
        }


@dataclass(frozen=True)
class AssumptionReport:
    checks: tuple[AssumptionCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def __getitem__(self, assumption_id: str) -> AssumptionCheck:
        for c in self.checks:
            if c.assumption_id == assumption_id:
                return c
        raise KeyError(assumption_id)

    def to_jsonable(self) -> dict:
        return {"ok": self.ok, "checks": [c.to_jsonable() for c in self.checks]}


def _witness(t=None, x=None, u=None, value=None, bound=None) -> dict:
    def conv(v):
        if v is None:
            return None
        arr = np.asarray(v, dtype=float).reshape(-1)
        return [float(a) for a in arr] if arr.size > 1 else float(arr[0])

    return {"t": conv(t), "x": conv(x), "u": conv(u),
            "value": None if value is None else float(value),
            "bound": None if bound is None else float(bound)}


def verify_data_assumptions(
    p: ProblemDefinition,
    samples: SamplingSpec | None = None,
    seed: int = 0,
) -> AssumptionReport:
    """Sampled falsification of the standing data assumptions.

    Checks boundedness of ``(f, L)`` on the boundary tube, the state-Lipschitz
    ratio against ``k(t)``, the growth envelope ``c(t)(1+|x|)``, boundedness
    of the running average of ``c + k``, and the affine majorant ``a1*t+a2``
    of the integral of ``c``; a non-finite constraint value at a sampled
    point fails the tube check, and a non-finite ``f`` or ``L`` fails the
    first three, each naming its first failing sample in (t, x, u) order.
    Otherwise a witness is the first worst sample in (t, x) order.  Failures
    are report entries, never raises.  More ``space_points`` keep every
    failure found with fewer at the same times (point sequences are
    prefixes of a seeded stream); more ``time_points`` do not, as the
    sampled times are ``np.linspace(0, horizon, time_points)``, and a grid
    of ``N`` times lies in one of ``N'`` only when ``N' - 1`` is a multiple
    of ``N - 1``.

    A pass makes one ``velocities``, one ``costs`` and one
    ``constraint_values`` call over all the points per block of times that
    share their control samples (``ControlSamples.runs``), a block holding
    at most ``_SAMPLE_BLOCK`` velocity values; ``f``, ``L`` and the
    constraints must broadcast over an array ``t``, and a model that does
    not raises the ``ValueError`` naming it.  Every check is a few array
    expressions over those calls' results.
    """
    spec = samples or SamplingSpec()
    rng = np.random.default_rng(seed)
    lo, hi = p.box[:, 0], p.box[:, 1]
    times = np.linspace(0.0, spec.horizon, spec.time_points)
    pts = lo + rng.random((spec.space_points, p.n)) * (hi - lo)
    # Per block of times sharing their samples, f of shape (k, R, P, n) and L
    # of shape (k, R, P); each per-control score is reduced over the controls
    # at once, to its largest value at each (t, x) and the first control there.
    starts, controls, parts = [], [], {}

    def keep(key: str, score: Array) -> None:
        parts.setdefault(key, []).append((score.max(axis=0), score.argmax(axis=0)))

    for lo_run, hi_run, u in p.controls.runs(times.tolist(), spec.level):
        per = max(1, _SAMPLE_BLOCK // (len(u) * len(pts) * p.n))
        for a in range(lo_run, hi_run, per):
            ts = times[a:min(a + per, hi_run), None]
            F = p.velocities(ts, pts[None], spec.level, u)[1]
            L = p.costs(ts, pts[None], spec.level, u)
            starts.append(a)
            controls.append(u)
            keep("nonfinite", ~(np.isfinite(F).all(axis=-1) & np.isfinite(L)))
            keep("tube", np.abs(F).sum(axis=-1) + np.abs(L))              # |f|_1 + |L|
            keep("lipschitz", summed_norms(F[:, :, :-1] - F[:, :, 1:])
                 + np.abs(L[:, :, :-1] - L[:, :, 1:]))                     # consecutive points
            keep("growth", summed_norms(F) + np.abs(L))
    top = {key: np.concatenate([m for m, _ in kept]) for key, kept in parts.items()}
    arg = {key: np.concatenate([j for _, j in kept]) for key, kept in parts.items()}
    checks: list[AssumptionCheck] = []

    def first_max(score, key, value, bound=None, default=None) -> dict:
        """Witness at the first maximum of ``score`` (T, P) in (t, x) order and
        the first worst control there under the per-control score ``key``."""
        i, q = np.unravel_index(int(np.argmax(score)), score.shape)
        if not score[i, q] > -math.inf:
            return default or _witness()
        u = controls[bisect.bisect_right(starts, i) - 1][arg[key][i, q]]
        return _witness(times[i], pts[q], u, value[i, q], None if bound is None else bound[i, q])

    def nonfinite(where) -> dict | None:
        """Witness at the first sample, in (t, x, u) order, with a non-finite f or
        L among the points ``where`` (T, P) selects."""
        flagged = top["nonfinite"] & where
        if not flagged.any():
            return None
        return first_max(flagged, "nonfinite", np.full(flagged.shape, math.inf))

    # (f, L) bounded on the alpha-tube around the constraint boundary.
    if p.m == 0:
        checks.append(AssumptionCheck("tube-bounded", "vacuous", _witness()))
    else:
        gb = np.maximum(p.grad_bounds(), 1e-12)
        tube, h_failure = np.zeros((len(times), len(pts)), dtype=bool), None
        for a, b in zip(starts, starts[1:] + [len(times)]):
            try:
                hv = p.constraint_values(times[a:b, None], pts[None])
            except NonFiniteConstraint as exc:  # a NaN h would drop the point from the tube
                h_failure = _witness(exc.t, exc.x)
                b = a + int(np.argmax(times[a:b] == exc.t))     # the times before it count
                if b > a:
                    tube[a:b] = np.min(np.abs(p.constraint_values(times[a:b, None], pts[None]))
                                       / gb, axis=-1) <= p.data.alpha
                break
            tube[a:b] = np.min(np.abs(hv) / gb, axis=-1) <= p.data.alpha
        failure = nonfinite(tube) or h_failure
        if failure:
            checks.append(AssumptionCheck("tube-bounded", "fail", failure))
        else:
            checks.append(AssumptionCheck("tube-bounded", "pass", first_max(
                np.where(tube, top["tube"], -math.inf), "tube", top["tube"])))

    failure = nonfinite(True)
    if failure:
        checks += [AssumptionCheck(cid, "fail", failure) for cid in ("lipschitz-x", "growth")]
    else:
        # Lipschitz in x: |f(t,x,u)-f(t,y,u)| + |L(t,x,u)-L(t,y,u)| <= k(t)|x-y| over
        # consecutive sampled points (the witness names the first of a pair).  Each
        # distance rounds as the 1-D norm of a single pair.
        dist = row_norms(pts[:-1] - pts[1:])
        ratio = np.divide(top["lipschitz"], dist, out=np.full(top["lipschitz"].shape, -math.inf),
                          where=dist >= 1e-12)
        kt = np.broadcast_to(np.array([p.data.k.value(t) for t in times])[:, None], ratio.shape)
        checks.append(AssumptionCheck(
            "lipschitz-x", "fail" if (ratio > kt + 1e-9).any() else "pass",
            first_max(ratio - kt, "lipschitz", ratio, kt,
                      _witness(value=0.0, bound=p.data.k.sup()))))

        # Growth: |f| + |L| <= c(t)(1 + |x|).
        growth = top["growth"]
        bound = np.array([p.data.c.value(t) for t in times])[:, None] * (1.0 + row_norms(pts))
        checks.append(AssumptionCheck(
            "growth", "fail" if (growth - bound > 1e-9).any() else "pass",
            first_max(growth - bound, "growth", growth, bound)))

    # Running average of c + k stays bounded over the sampled horizon.
    avg_ts = times[times > 1e-9]
    if avg_ts.size == 0:
        avg_ts = np.array([spec.horizon])
    avgs = [(p.data.c.integral(0, t) + p.data.k.integral(0, t)) / t for t in avg_ts]
    j = int(np.argmax(avgs))
    ok = math.isfinite(avgs[j])
    checks.append(
        AssumptionCheck(
            "avg-modulus", "pass" if ok else "fail",
            _witness(avg_ts[j], None, None, avgs[j], None),
        )
    )

    # Affine majorant of the growth integral: int_0^t c <= a1*t + a2.
    worst_slack, worst_w, ok = -math.inf, _witness(), True
    for t in times:
        lhs = p.data.c.integral(0, t)
        rhs = p.data.a1 * t + p.data.a2
        if lhs - rhs > worst_slack:
            worst_slack, worst_w = lhs - rhs, _witness(t, None, None, lhs, rhs)
        if lhs > rhs + 1e-9:
            ok = False
    checks.append(AssumptionCheck("affine-majorant", "pass" if ok else "fail", worst_w))

    return AssumptionReport(tuple(checks))
