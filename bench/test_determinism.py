"""Same seed, same work: traced counters and output digests repeat exactly.

Run with ``python3 -m pytest bench/test_determinism.py``.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import feastube  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

# A cheap subset of each op set keeps the test short; it still crosses the
# problem, geometry, ipc, simplex, trajectory, value, analysis and cli layers.
SUBSET = {
    "repair": ("repair/quadratic-cost-1d/0", "repair/hover-1d/0"),
    "value": ("value/hover-1d/0/plain", "value/hover-1d/0/relaxed-1",
              "value/corridor-2d/plain"),
    "certify": ("certify/track/moving-wall-1d/0",),
}


def _traced_pass(workload, seed, workdir):
    ctx = wl.prepare(workload, workdir)
    ops = [op for op in wl.make_ops(ctx, seed) if op.name in SUBSET[workload]]
    assert [op.name for op in ops] == list(SUBSET[workload])
    tracer = Tracer()
    samples = wl.run_pass(ctx, ops, tracer)
    failures = [(s.op, s.outcome.reason) for s in samples if not s.outcome.ok]
    assert not failures
    return dict(tracer.calls), dict(tracer.counts), [s.outcome.digest for s in samples]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_gives_identical_counters_and_digests(workload, tmp_path):
    first = _traced_pass(workload, 7, tmp_path / "a")
    second = _traced_pass(workload, 7, tmp_path / "b")
    assert first[0] and first[1]
    assert first == second


def test_seed_changes_the_inputs(tmp_path):
    assert _traced_pass("repair", 7, tmp_path)[2] != _traced_pass("repair", 8, tmp_path)[2]


def test_tracing_restores_every_binding(tmp_path):
    before = {
        (name, attr): obj
        for name, mod in sys.modules.items()
        if name == "feastube" or name.startswith("feastube.")
        for attr, obj in vars(mod).items() if callable(obj)
    }
    _traced_pass("certify", 7, tmp_path)
    after = {
        (name, attr): obj
        for name, mod in sys.modules.items()
        if name == "feastube" or name.startswith("feastube.")
        for attr, obj in vars(mod).items() if callable(obj)
    }
    assert after == before
    assert feastube.ipc.solve_matrix_game is feastube.simplex.solve_matrix_game
