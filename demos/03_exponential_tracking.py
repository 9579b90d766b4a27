"""Tracking a feasible trajectory from a displaced start.

Given a feasible reference and a different feasible initial point, the
tracker works one unit window at a time: project the reference's velocity
profile from the current state, repair the projection back to strict
feasibility, and continue from its endpoint.  The deviation from the
reference obeys C * exp(K (t - t0)) * |x1 - x0| with constants derived
from the repair ledger.

The certified constants are astronomically conservative (they absorb the
worst case of the chained repair bound); the observed deviation here stays
at the size of the initial offset.
"""

import math
from pathlib import Path

from feastube import get_problem, track_feasible, verify_ipc, viable_trajectory
from feastube.analysis import write_series
from feastube.geometry import violations_along

OUT = Path(__file__).parent / "out" / "tracking"
OUT.mkdir(parents=True, exist_ok=True)

wall = get_problem("moving-wall-1d")
cert = verify_ipc(wall, (0.0, 2 * math.pi), r_min=0.9, delta=0.5,
                  n_time=50, n_dirs=2).certificate

reference = viable_trajectory(wall, cert, 0.0, [0.5], 6.0, 1e-3)
run = track_feasible(wall, cert, reference, [0.4], 5.0)

times = run.trajectory.times
print(f"initial offset   : {run.offset}")
print(f"max deviation    : {run.deviations.max():.4f}")
print(f"ledger constants : K1={run.constants.K1:.2f}, K2={run.constants.K2:.2f}, "
      f"K={run.constants.K:.2f}, C={run.constants.C:.3e}")
print(f"bound at horizon : {run.bound(times[-1]):.3e}")
print("feasible everywhere:",
      float(violations_along(wall, times, run.trajectory.states).max()) <= 1e-9)

write_series(OUT / "deviations.npy",
             {"t": times, "deviation": run.deviations, "bound": run.bound(times)})
print(f"series written to {OUT}")
