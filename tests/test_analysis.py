import dataclasses
import json
import math
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feastube import analysis as ana
from feastube import cli
from feastube import problem as pb
from feastube import trajectory as tj
from feastube import value as val
from feastube.errors import DiscountBelowThreshold, FeastubeError, ProbeInfeasible

from oracles import (
    decay_check_loop,
    lipschitz_profile_loop,
    time_lipschitz_loop,
    velocity_cost_sup_loop,
    write_csv_rows,
)
from util import (
    CERTIFY_GRID,
    certify_args,
    constant_cost_problem,
    read_series,
    simple_problem,
    sway_problem,
    switching_problem,
    unit_velocity,
    zero_cost,
)


def _zero_cost_field(lam=3.0, horizon=2.0):
    p = simple_problem(unit_velocity, zero_cost, c=1.0, a1=1.0, name="zero-cost")
    g = val.grid_for(p, 41, dt=0.1)
    return p, val.solve_value(p, lam, g, relaxed=False, horizon=horizon)


def _tc(beta=1.0, K2=0.0, k_tilde=0.0):
    K1 = math.log(2 * beta + 1) + 1e-9
    return tj.TrackingConstants(K1=K1, K2=K2, k_tilde=k_tilde, K=K1 + K2,
                                C=math.exp(k_tilde) * (2 * beta + 1), beta=beta)


# --- spatial profile -------------------------------------------------------------

def test_lipschitz_profile_zero_cost_passes():
    p, f = _zero_cost_field()
    prof = ana.lipschitz_profile(f, _tc())
    assert prof.passed
    assert np.max(prof.empirical) == 0.0
    assert np.all(prof.bound > 0)


def test_lipschitz_profile_discount_gate():
    p, f = _zero_cost_field(lam=1.0)
    with pytest.raises(DiscountBelowThreshold):
        ana.lipschitz_profile(f, _tc(beta=5.0))


def test_lipschitz_profile_monotone_in_budget(moving_wall, mw_tracking_constants):
    g = val.GridSpec(lo=[-2.7], hi=[1.8], shape=(101,), dt=0.045)
    lam = 2 * max(mw_tracking_constants.K, moving_wall.data.a1) + 1
    f = val.solve_value(moving_wall, lam, g, relaxed=False, horizon=2.0)
    vals = [np.max(ana.lipschitz_profile(f, mw_tracking_constants,
                                         pair_budget=b, seed=3).empirical)
            for b in (50, 200, 800)]
    assert vals[0] <= vals[1] + 1e-15 <= vals[2] + 2e-15


@pytest.fixture(scope="module")
def certify_fields():
    """Plain and relaxed fields of every registered problem and sway-1d, on
    grids whose boxes reach past the feasible set (so slices hold +inf), plus
    one field thinned to 2, 1 and 0 finite nodes in its first three slices."""
    fields = {}
    for name in pb.registered_problems() + ("sway-1d",):
        p = sway_problem() if name == "sway-1d" else pb.get_problem(name)
        g = val.grid_for(p, (11, 17) if p.n == 2 else 41, dt=0.05 if p.n == 2 else 0.1)
        for relaxed in (False, True):
            fields[name, relaxed] = val.solve_value(p, 6.0, g, relaxed=relaxed, horizon=0.2)
    base = fields["sway-1d", False]
    thin = base.values.copy()
    thin[0, 2:], thin[1, 1:], thin[2] = np.inf, np.inf, np.inf
    fields["thinned", False] = dataclasses.replace(base, values=thin)
    return fields


@pytest.mark.parametrize("budget", [1, 50, 400, 5000])
def test_lipschitz_profile_matches_loop_reference(certify_fields, budget):
    """Budget 1 and 50 cut the neighbor pairs short; 400 and 5000 add
    seeded random pairs past them.  Every empirical quotient is equal bit for
    bit to one 1-D ``np.linalg.norm`` per pair."""
    for key, field in certify_fields.items():
        for seed in range(4):
            got = ana.lipschitz_profile(field, _tc(), pair_budget=budget, seed=seed)
            want = lipschitz_profile_loop(field, _tc(), pair_budget=budget, seed=seed)
            assert got.empirical.tobytes() == want.empirical.tobytes(), (key, seed)
            assert got.to_jsonable() == want.to_jsonable(), (key, seed)


def test_lipschitz_profile_rounds_distances_like_1d_norm(certify_fields):
    """The quotients of the registered fields peak on axis neighbors, whose
    distances round alike under any sum of squares.  Here each slice keeps
    2-4 finite nodes on an off-lattice 2-D grid, so every pair is diagonal and
    a summed square rounds differently from the 1-D ``np.linalg.norm`` on
    some of them."""
    base = certify_fields["corridor-2d", False]
    axes = (np.linspace(-2.3, 1.9, 23), np.linspace(-1.7, 1.3, 29))
    rng = np.random.default_rng(0)
    values = np.full((64, 23 * 29), np.inf)
    for row in values:
        k = rng.integers(2, 5)
        row[rng.choice(row.size, k, replace=False)] = rng.random(k)
    field = dataclasses.replace(base, axes=axes, values=values.reshape(64, 23, 29))
    for budget in (1, 8, 50):
        for seed in range(4):
            got = ana.lipschitz_profile(field, _tc(), pair_budget=budget, seed=seed)
            want = lipschitz_profile_loop(field, _tc(), pair_budget=budget, seed=seed)
            assert got.empirical.tobytes() == want.empirical.tobytes(), (budget, seed)


class _RecordedRng:
    """A seeded generator that logs each draw as (population size, shape):
    ``integers(low, high, shape)`` draws from ``high - low`` values, and
    ``choice(a, size=shape)`` from ``len(a)``, each by the same stream."""

    def __init__(self, rng, log):
        self.rng, self.log = rng, log

    def integers(self, low, high, size):
        self.log.append((int(high - low), tuple(size)))
        return self.rng.integers(low, high, size)

    def choice(self, a, size):
        self.log.append((len(a), tuple(size)))
        return self.rng.choice(a, size=size)


@pytest.mark.parametrize("budget", [1, 50, 400, 5000])
def test_lipschitz_profile_draws_like_the_loop(certify_fields, budget, monkeypatch):
    """The profile draws its random pairs slice by slice in slice order,
    each draw of the loop's size from the loop's number of finite nodes, so
    that it reads the generator's stream as the loop does: on every field,
    the one thinned to 2, 1 and 0 finite nodes in its first slices included."""
    real, log = np.random.default_rng, []
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _RecordedRng(real(seed), log))
    drawn = 0
    for key, field in certify_fields.items():
        for seed in range(2):
            ana.lipschitz_profile(field, _tc(), pair_budget=budget, seed=seed)
            got = log[:]
            log.clear()
            lipschitz_profile_loop(field, _tc(), pair_budget=budget, seed=seed)
            assert got == log, (key, seed)
            drawn += len(log)
            log.clear()
    assert drawn if budget > 1 else not drawn


def test_lipschitz_profile_memory_is_flat_in_the_slice_count(certify_fields):
    """The profile holds one chunk of slices' pairs at a time.  On 1-D fields
    of 200 and 2,000 slices at budget 2000 (about 1,960 random pairs per
    slice), its peak traced allocation grows by under 64 bytes per added
    slice, the per-slice results, and stays under 4 MB; all pairs of the
    200 slices held at once would take about 20 MB."""
    base = certify_fields["sway-1d", False]
    rng = np.random.default_rng(0)
    peaks = []
    for slices in (200, 2000):
        field = dataclasses.replace(base, values=rng.random((slices,) + base.values.shape[1:]))
        tracemalloc.start()
        try:
            ana.lipschitz_profile(field, _tc(), pair_budget=2000)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 64 * 1800, peaks
    assert peaks[1] < 4e6, peaks


@pytest.mark.parametrize("budget", [0, -1])
def test_lipschitz_profile_rejects_empty_budget(budget):
    p, f = _zero_cost_field()
    with pytest.raises(ValueError, match=f"pair_budget={budget}"):
        ana.lipschitz_profile(f, _tc(), pair_budget=budget)


def test_lipschitz_envelope_blows_up_near_threshold():
    p, f = _zero_cost_field(lam=3.0)
    tc = _tc(beta=1.0)
    lam_close = tc.K + 1e-6
    g = val.grid_for(p, 21, dt=0.2)
    f2 = val.solve_value(p, lam_close, g, relaxed=False, horizon=1.0)
    prof = ana.lipschitz_profile(f2, tc)
    assert prof.b > 1e5
    assert prof.passed


# --- decay -----------------------------------------------------------------------

def test_decay_zero_cost():
    p, f = _zero_cost_field()
    ref = tj.Trajectory(times=np.arange(0.0, 2.05, 0.1),
                        states=np.zeros((21, 1)), controls=None, step=0.1)
    dec = ana.decay_check(p, f, ref)
    assert dec.passed
    assert np.max(np.abs(dec.values)) == 0.0
    assert dec.final_value == 0.0


def test_decay_envelope_finite_at_peak():
    p, f = _zero_cost_field(lam=2.0)
    ref = tj.Trajectory(times=np.arange(0.0, 2.05, 0.1),
                        states=np.zeros((21, 1)), controls=None, step=0.1)
    dec = ana.decay_check(p, f, ref)
    # the interior maximum of t exp(-(lam-a1) t) stays finite and above data
    peak_t = 1.0 / (f.lam - f.a1)
    env_at_peak = np.interp(peak_t, dec.times, dec.envelope)
    assert np.isfinite(env_at_peak)
    assert env_at_peak >= np.interp(peak_t, dec.times, np.abs(dec.values))


# --- relaxation gap -----------------------------------------------------------------

def test_relaxation_gap_identical_fields(hover):
    g = val.GridSpec(lo=[-0.6], hi=[0.6], shape=(25,), dt=0.05)
    f = val.solve_value(hover, 2.0, g, relaxed=False, horizon=2.0)
    gap = ana.relaxation_gap(f, f)
    assert gap.max_gap == 0.0 and gap.mean_gap == 0.0 and gap.passed


def test_relaxation_gap_without_a_common_finite_node():
    p, f = _zero_cost_field()
    holes = dataclasses.replace(f, values=np.full_like(f.values, np.inf))
    gap = ana.relaxation_gap(f, holes)
    assert (gap.n_common, gap.max_gap, gap.mean_gap, gap.min_gap) == (0, 0.0, 0.0, 0.0)
    assert gap.ordering_ok and gap.passed


def test_relaxation_gap_convex_velocities(moving_wall):
    # an interval control set sampled densely has nearly convex velocities:
    # mixtures add nothing beyond the solver tolerance
    g = val.GridSpec(lo=[-2.5], hi=[2.0], shape=(46,), dt=0.1)
    fV = val.solve_value(moving_wall, 3.0, g, relaxed=False, level=2, horizon=1.5)
    fVs = val.solve_value(moving_wall, 3.0, g, relaxed=True, level=2,
                          mixture_grid=2, horizon=1.5)
    gap = ana.relaxation_gap(fV, fVs)
    assert gap.ordering_ok
    assert gap.max_gap <= val.TOL_DP + 1e-12


def test_relaxation_gap_hover_strictly_positive(hover):
    g = val.GridSpec(lo=[-0.6], hi=[0.6], shape=(25,), dt=0.05)
    fV = val.solve_value(hover, 2.0, g, relaxed=False, horizon=3.0)
    fVs = val.solve_value(hover, 2.0, g, relaxed=True, mixture_grid=4, horizon=3.0)
    gap = ana.relaxation_gap(fV, fVs)
    assert gap.ordering_ok
    assert gap.max_gap > 1e-5


# --- time regularity ------------------------------------------------------------------

def test_time_lipschitz_zero_cost():
    p, f = _zero_cost_field()
    res = ana.time_lipschitz_check(f, p, _tc(), bound_N=2.0, probes=[[0.0], [0.5]])
    assert res.passed


def test_time_lipschitz_constant_cost_quotients():
    p = constant_cost_problem(lam=3.0)
    g = val.grid_for(p, 41, dt=0.05)
    f = val.solve_value(p, 3.0, g, relaxed=False, horizon=2.0)
    res = ana.time_lipschitz_check(f, p, _tc(), bound_N=2.5, probes=[[0.0]])
    assert res.gate_ok and res.passed
    # quotient of the closed form is about exp(-lam t) <= 2 exp(-lam t) N
    vals = [val.evaluate_value(f, t, [0.0]) for t in (0.0, 0.05)]
    quot = abs(vals[1] - vals[0]) / 0.05
    assert quot <= (2.0 + 1e-6) * 2.5


def test_time_lipschitz_gate_skips():
    p = constant_cost_problem(lam=3.0)
    g = val.grid_for(p, 21, dt=0.1)
    f = val.solve_value(p, 3.0, g, relaxed=False, horizon=1.0)
    res = ana.time_lipschitz_check(f, p, _tc(), bound_N=0.5, probes=[[0.0]])
    assert not res.gate_ok
    assert res.probe_passed == ()
    assert not res.passed


def test_time_lipschitz_gate_fails_on_nan_velocity():
    # a NaN velocity at one probe must not drop out of the sampled sup
    p, f = _zero_cost_field()
    nan_left = dataclasses.replace(
        p, f=lambda t, x, u: np.where(np.asarray(x) < 0.25, np.nan, unit_velocity(t, x, u)))
    assert ana.velocity_cost_sup(f, p, np.array([[0.0], [0.5]])) == 1.0
    assert ana.velocity_cost_sup(f, nan_left, np.array([[0.0], [0.5]])) == math.inf
    res = ana.time_lipschitz_check(f, nan_left, _tc(), bound_N=2.0, probes=[[0.0], [0.5]])
    assert not res.gate_ok and not res.passed


def test_time_lipschitz_gate_fails_on_an_infinite_bound(hover):
    # an infinite velocity at a probe makes the CLI's bound_N, sup * 1.05 +
    # 0.1, infinite too: the gate must fail, or every rate is infinite and
    # every probe passes.  A NaN bound fails it as well.
    f = val.solve_value(hover, 120.0, val.grid_for(hover, 41, 0.01), relaxed=True, horizon=0.2)
    inf_right = dataclasses.replace(
        hover, f=lambda t, x, u: np.where(np.asarray(u) > 0, np.inf, hover.f(t, x, u)))
    probes = np.array([[0.0]])
    assert ana.velocity_cost_sup(f, inf_right, probes) * 1.05 + 0.1 == math.inf
    for bound_N in (math.inf, math.nan):
        for check in (ana.time_lipschitz_check, time_lipschitz_loop):
            res = check(f, inf_right, _tc(), bound_N, probes)
            assert not res.gate_ok and res.probe_passed == () and not res.passed, check


def test_velocity_cost_sup_evaluates_once_per_run_of_shared_samples(certify_runs,
                                                                     monkeypatch):
    """One ``velocities`` and one ``costs`` call per run of the 9 times that
    share their samples, and the per-time loop's sup: on the certify runs'
    problems (one run) and on samples whose row count switches at seeded
    times (several)."""
    calls = Counter()
    for method in ("velocities", "costs"):
        real = getattr(pb.ProblemDefinition, method)
        monkeypatch.setattr(pb.ProblemDefinition, method,
                            lambda self, *a, real=real, method=method:
                            calls.update([method]) or real(self, *a))
    cases = [(p, field, 1) for p, field, _, _ in certify_runs.values()]
    p, field = switching_problem(), certify_runs["moving-wall-1d"][1]
    field = dataclasses.replace(field, t0=0.0, values=field.values[:1 + int(2 * math.pi / field.dt)])
    times = np.linspace(field.t0, field.T, 9)
    rows = [len(p.controls.at(float(t), 1)) for t in times]
    cases.append((p, field, 1 + sum(a != b for a, b in zip(rows, rows[1:]))))
    assert cases[-1][2] >= 2
    for p, field, runs in cases:
        probes = p.box.mean(axis=1) + np.array([[0.0], [0.1], [-0.2]]) * (p.box[:, 1] - p.box[:, 0])
        calls.clear()
        got = ana.velocity_cost_sup(field, p, probes, 1)
        assert calls == {"velocities": runs, "costs": runs}, p.name
        assert got == velocity_cost_sup_loop(field, p, probes, 1), p.name


def test_time_lipschitz_probe_fails_on_a_jump_in_time():
    # the gate holds (|f| + |L| = 1 <= N), but a step of 10 between two
    # slices breaks the envelope at the probe
    p, f = _zero_cost_field()
    jump = f.values.copy()
    jump[6:] += 10.0
    res = ana.time_lipschitz_check(dataclasses.replace(f, values=jump), p, _tc(),
                                   bound_N=2.0, probes=[[0.0]])
    assert res.gate_ok and res.probe_passed == (False,) and not res.passed
    assert (res.worst["t"], res.worst["t2"]) == (float(f.times[5]), float(f.times[6]))
    assert res.worst["lhs"] == pytest.approx(10.0) and res.worst["slack"] > 9.0


def test_time_lipschitz_infeasible_probe(moving_wall, mw_tracking_constants):
    g = val.GridSpec(lo=[-2.7], hi=[1.8], shape=(101,), dt=0.045)
    lam = 2 * max(mw_tracking_constants.K, moving_wall.data.a1) + 1
    f = val.solve_value(moving_wall, lam, g, relaxed=False, horizon=1.0)
    with pytest.raises(ProbeInfeasible):
        ana.time_lipschitz_check(f, moving_wall, mw_tracking_constants,
                                 bound_N=5.0, probes=[[1.35]])


# --- decay and time checks against their per-time loops ------------------------------

@pytest.fixture(scope="module")
def certify_runs():
    """The pipeline's inputs to the decay and time checks in the certify
    benchmark's run on each problem: problem, relaxed field, viable path
    from the anchor, tracking constants."""
    runs = {}
    for name in CERTIFY_GRID:
        argv = ["pipeline", *certify_args(name)]
        run = cli._Run(cli.resolve_config(cli._build_parser().parse_args(argv)))
        p, field = run.p, run.field(True)
        traj = tj.viable_trajectory(p, run.ver.certificate, field.t0,
                                    np.asarray(p.anchor(field.t0)), field.T, field.dt)
        runs[name] = p, field, traj, run.tracking
    return runs


def _outcome(check, *args, **kwargs):
    """A check's result as bytes (series columns, then its JSON), or the
    type and message of the error it raised."""
    try:
        res = check(*args, **kwargs)
    except FeastubeError as exc:
        return type(exc).__name__, str(exc)
    cols = res.series() if hasattr(res, "series") else {}
    return [(k, np.asarray(v).tobytes()) for k, v in cols.items()], json.dumps(res.to_jsonable())


@pytest.mark.parametrize("name", list(CERTIFY_GRID))
def test_decay_and_time_checks_match_per_time_loops(certify_runs, name):
    p, field, traj, tracking = certify_runs[name]
    got = _outcome(ana.decay_check, p, field, traj)
    assert got == _outcome(decay_check_loop, p, field, traj)
    assert got[0] != "TrajectoryOutOfGrid"
    # probes: the anchor, and points off it, between nodes and at a node
    anchor = np.asarray(p.anchor(field.t0), dtype=float)
    shifts = np.array([[0.0] * p.n, [0.013] * p.n, [-0.1] * p.n, [0.2] + [0.0] * (p.n - 1)])
    probes = anchor + shifts
    N = ana.velocity_cost_sup(field, p, probes) * 1.05 + 0.1
    for bound_N in (N, 0.5 * N):           # the gate passes, then fails
        got = _outcome(ana.time_lipschitz_check, field, p, tracking, bound_N, probes)
        assert got == _outcome(time_lipschitz_loop, field, p, tracking, bound_N, probes)
    # a probe that leaves the feasible set raises at the same probe
    far = np.vstack([probes[:1], p.box[:, 1] - 1e-3])
    N = ana.velocity_cost_sup(field, p, far) * 1.05 + 0.1
    got = _outcome(ana.time_lipschitz_check, field, p, tracking, N, far)
    assert got == _outcome(time_lipschitz_loop, field, p, tracking, N, far)
    assert got[0] == "ProbeInfeasible"


@pytest.mark.parametrize("name", list(CERTIFY_GRID))
def test_decay_check_raises_at_the_first_hole_like_the_loop(certify_runs, name):
    """+inf holes along the path, at the one node nearest the path or over a
    whole slice, and a path that leaves the grid after or before a hole: the
    same error, at the same time, with the same message as the loop."""
    p, field, traj, _ = certify_runs[name]
    times = field.times
    k1, k2 = len(times) // 3, 2 * len(times) // 3
    nodes = field.grid_nodes()
    x1 = traj.state_at(float(times[k1]))
    near = int(np.argmin(((nodes - x1) ** 2).sum(axis=1)))
    one = field.values.copy()
    one[k1].flat[near] = np.inf
    whole = field.values.copy()
    whole[k2] = np.inf
    both = one.copy()
    both[k2] = np.inf
    for holes in (one, whole, both):
        holed = dataclasses.replace(field, values=holes)
        got = _outcome(ana.decay_check, p, holed, traj)
        assert got == _outcome(decay_check_loop, p, holed, traj)
        assert got[0] == "TrajectoryOutOfGrid"
    # a straight path from the anchor to past the grid's upper corner, on the
    # field made finite everywhere: OutOfGrid where it leaves the grid, unless
    # a hole comes first
    start = np.asarray(p.anchor(field.t0), dtype=float)
    span = np.linspace(0.0, 1.0, len(times))[:, None]
    states = start + span * (p.box[:, 1] + 0.5 - start)
    off = tj.Trajectory(times=times, states=states, controls=None, step=field.dt)
    finite = np.where(np.isfinite(field.values), field.values, 1.0)
    early = finite.copy()
    early[k1] = np.inf
    late = finite.copy()
    late[-1] = np.inf
    kinds = []
    for values in (finite, early, late):
        holed = dataclasses.replace(field, values=values)
        got = _outcome(ana.decay_check, p, holed, off)
        assert got == _outcome(decay_check_loop, p, holed, off)
        kinds.append(got[0])
    assert kinds == ["OutOfGrid", "TrajectoryOutOfGrid", "OutOfGrid"]


# --- report emission --------------------------------------------------------------------

def test_emit_report_schema_and_determinism(tmp_path):
    p, f = _zero_cost_field()
    prof = ana.lipschitz_profile(f, _tc())
    ref = tj.Trajectory(times=np.arange(0.0, 2.05, 0.1),
                        states=np.zeros((21, 1)), controls=None, step=0.1)
    dec = ana.decay_check(p, f, ref)

    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        written = ana.emit_report({"lipschitz": prof, "decay": dec}, out)
        assert (out / "summary.json") in written
    files1 = sorted(fp.relative_to(out1) for fp in out1.rglob("*") if fp.is_file())
    files2 = sorted(fp.relative_to(out2) for fp in out2.rglob("*") if fp.is_file())
    assert files1 == files2
    for rel in files1:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()

    assert read_series(out1 / "lipschitz.npy").dtype.names == ("t", "empirical", "bound")
    # each series is written once, in its result's .npy: no plot_* copies
    assert [str(rel) for rel in files1] == ["decay.npy", "lipschitz.npy", "summary.json"]


# Values on both sides of repr's switch to exponent form (1e-05 and 1e16),
# signed zeros and NaNs, infinities and subnormals.
_CSV_EDGES = [
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
    5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1e-05, 9.999999999999999e-06, 1.0000000000000001e-05, 0.0001,
    1e16, 9999999999999998.0, 1.0000000000000002e16, 1e15, 0.1, -1.5, 2.0,
    float(np.frombuffer(np.uint64(0x7FF8000000000001).tobytes(), np.float64)[0]),
]
_csv_values = st.one_of(st.sampled_from(_CSV_EDGES), st.floats(),
                        st.floats(5e-324, 1e-300), st.floats(1e-6, 1e-4),
                        st.floats(1e15, 1e17))
# More rows than write_csv formats in one block.
_CSV_MANY_ROWS = 2 * ana._CSV_BLOCK + 3


@st.composite
def _csv_columns(draw):
    """Columns drawn from small pools of values and their negations, so that
    values repeat and -0.0 meets 0.0.  The columns are strided views of one
    row-major table, as a trajectory's state columns are."""
    n_rows = draw(st.one_of(st.integers(0, 12), st.just(_CSV_MANY_ROWS)))
    table = []
    for j in range(draw(st.integers(1, 4))):
        pool = np.array(draw(st.lists(_csv_values, min_size=1, max_size=8)))
        pool = np.concatenate([pool, -pool])
        pick = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        table.append(pool[pick.integers(0, pool.size, n_rows)])
    return {f"c{j}": col for j, col in enumerate(np.column_stack(table).T)}


@settings(max_examples=40, deadline=None)
@given(_csv_columns())
def test_write_csv_matches_row_loop(cols):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        ana.write_csv(got, cols)
        write_csv_rows(want, cols)
        assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("block", [1, 2, 5])
def test_write_csv_block_edges(block, tmp_path, monkeypatch):
    monkeypatch.setattr(ana, "_CSV_BLOCK", block)
    for n_rows in range(0, 12):
        cols = {"t": np.repeat([0.0, -0.0, 1e16], 4)[:n_rows], "v": np.arange(n_rows) * 1e-05}
        ana.write_csv(tmp_path / "got.csv", cols)
        write_csv_rows(tmp_path / "want.csv", cols)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


_MALFORMED = [
    ({"t": np.arange(3.0), "x": np.ones((3, 2))}, "'x' has shape (3, 2)"),
    ({"t": np.arange(3.0), "x": 1.0}, "'x' has shape ()"),
    ({"t": np.arange(3.0), "x": np.ones(2)}, "'x' has 2 rows; column 't' has 3"),
]


@pytest.mark.parametrize("cols, named", _MALFORMED)
def test_write_csv_rejects_malformed_column(cols, named, tmp_path):
    with pytest.raises(ValueError) as err:
        ana.write_csv(tmp_path / "bad.csv", cols)
    assert named in str(err.value)


@pytest.mark.parametrize("cols, named", _MALFORMED + [({}, "needs at least one column")])
def test_write_series_rejects_malformed_column(cols, named, tmp_path):
    with pytest.raises(ValueError) as err:
        ana.write_series(tmp_path / "bad.npy", cols)
    assert named in str(err.value)
    assert not (tmp_path / "bad.npy").exists()


@settings(max_examples=40, deadline=None)
@given(_csv_columns())
def test_write_series_roundtrip_is_bit_exact(cols):
    """Every bit pattern survives, NaN payloads, signed zeros, infinities and
    subnormals included, and equal columns give equal bytes."""
    cols = {**cols, "edges": np.resize(_CSV_EDGES, len(cols["c0"]))}
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "a.npy", Path(tmp) / "b.npy"]
        for path in paths:
            ana.write_series(path, cols)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        arr = read_series(paths[0])
        raw = np.load(paths[0], allow_pickle=False)     # read without feastube
    assert arr.shape == (len(cols["c0"]),) and arr.dtype.names == tuple(cols)
    for name, col in cols.items():
        assert np.array_equal(arr[name].view(np.int64), col.view(np.int64)), name
        assert np.array_equal(raw[name].view(np.int64), col.view(np.int64)), name


@pytest.mark.parametrize("arr, named", [
    (np.zeros(3), "dtype float64"),
    (np.zeros((2, 2), dtype=[("t", "<f8")]), "shape (2, 2)"),
    (np.zeros(3, dtype=[("t", "<f8"), ("x", "<f4")]), "field 'x' has dtype '<f4'"),
    (np.zeros(3, dtype=[("t", ">f8")]), "field 't' has dtype '>f8'"),
])
def test_read_series_names_the_file_and_field(arr, named, tmp_path):
    path = tmp_path / "s.npy"
    np.save(path, arr, allow_pickle=False)
    with pytest.raises(ValueError) as err:
        read_series(path)
    assert str(path) in str(err.value) and named in str(err.value)


def test_emit_report_empty(tmp_path):
    ana.emit_report({}, tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary == {"n_results": 0, "results": {}}


def test_pass_verdict_rederivable_from_series(tmp_path, moving_wall, mw_tracking_constants):
    g = val.GridSpec(lo=[-2.7], hi=[1.8], shape=(101,), dt=0.045)
    lam = 2 * max(mw_tracking_constants.K, moving_wall.data.a1) + 1
    f = val.solve_value(moving_wall, lam, g, relaxed=True, horizon=2.0)
    prof = ana.lipschitz_profile(f, mw_tracking_constants)
    ana.emit_report({"lipschitz": prof}, tmp_path)
    data = np.load(tmp_path / "lipschitz.npy", allow_pickle=False)
    summary = json.loads((tmp_path / "summary.json").read_text())
    tol = summary["results"]["lipschitz"]["tol"]
    rederived = bool(np.all(data["empirical"] <= data["bound"] * (1 + tol) + 1e-15))
    assert rederived == summary["results"]["lipschitz"]["passed"] == prof.passed
