import dataclasses
import json
import math

import numpy as np
import pytest

from feastube import analysis as ana
from feastube import trajectory as tj
from feastube import value as val
from feastube.errors import DiscountBelowThreshold, ProbeInfeasible

from util import constant_cost_problem, simple_problem, unit_velocity, zero_cost


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


def test_time_lipschitz_infeasible_probe(moving_wall, mw_tracking_constants):
    g = val.GridSpec(lo=[-2.7], hi=[1.8], shape=(101,), dt=0.045)
    lam = 2 * max(mw_tracking_constants.K, moving_wall.data.a1) + 1
    f = val.solve_value(moving_wall, lam, g, relaxed=False, horizon=1.0)
    with pytest.raises(ProbeInfeasible):
        ana.time_lipschitz_check(f, moving_wall, mw_tracking_constants,
                                 bound_N=5.0, probes=[[1.35]])


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

    header = (out1 / "lipschitz.csv").read_text().splitlines()[0]
    assert header == "t,empirical,bound"
    assert (out1 / "plot_lipschitz_empirical.csv").exists()


def test_emit_report_empty(tmp_path):
    ana.emit_report({}, tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary == {"n_results": 0, "results": {}}


def test_pass_verdict_rederivable_from_csv(tmp_path, moving_wall, mw_tracking_constants):
    g = val.GridSpec(lo=[-2.7], hi=[1.8], shape=(101,), dt=0.045)
    lam = 2 * max(mw_tracking_constants.K, moving_wall.data.a1) + 1
    f = val.solve_value(moving_wall, lam, g, relaxed=True, horizon=2.0)
    prof = ana.lipschitz_profile(f, mw_tracking_constants)
    ana.emit_report({"lipschitz": prof}, tmp_path)
    rows = (tmp_path / "lipschitz.csv").read_text().splitlines()[1:]
    data = np.array([[float(v) for v in r.split(",")] for r in rows])
    summary = json.loads((tmp_path / "summary.json").read_text())
    tol = summary["results"]["lipschitz"]["tol"]
    rederived = bool(np.all(data[:, 1] <= data[:, 2] * (1 + tol) + 1e-15))
    assert rederived == summary["results"]["lipschitz"]["passed"] == prof.passed
