"""Repairing an infeasible reference into a strictly feasible neighbor.

A constant reference hovers at x = 0.95 while the wall dips to 0.9, so the
path spends part of the interval outside the feasible set with violation
depth 0.05.  The repair keeps the same starting point, dips below the wall
while it intrudes, and returns a ledger of certified constants: the output
is guaranteed within beta * rho of the reference in the sup norm, where rho
is the measured violation.

The interesting empirical fact: the actual distance is about 1.05 * rho,
vastly better than the worst-case beta, and the ratio is stable across
violation depths (repair cost scales linearly with the violation).
"""

import math
from pathlib import Path

from feastube import get_problem, integrate, nft_correct, verify_ipc
from feastube.analysis import write_series
from feastube.cli import trajectory_columns
from feastube.geometry import violations_along

OUT = Path(__file__).parent / "out" / "repair"
OUT.mkdir(parents=True, exist_ok=True)

wall = get_problem("moving-wall-1d")
cert = verify_ipc(wall, (0.0, 2 * math.pi), r_min=0.9, delta=0.5,
                  n_time=50, n_dirs=2).certificate

t_end = math.pi + math.asin(0.25)   # wall level reaches 0.9 here
t0 = t_end - 1.0

print("depth   rho_meas   sup_dist   ratio   clearance")
keep = None
for depth in (0.10, 0.05, 0.01):
    ref = integrate(wall, t0, [0.9 + depth], [1] * 2000, 2000, 5e-4)  # u = 0
    res = nft_correct(wall, cert, ref)
    print(f"{depth:5.2f}   {res.rho_in:8.5f}   {res.sup_dist:8.5f}   "
          f"{res.sup_dist / res.rho_in:5.3f}   {res.interior_clearance:.2e}")
    if depth == 0.05:
        keep = res
        write_series(OUT / "reference.npy", trajectory_columns(wall, ref))
        write_series(OUT / "corrected.npy", trajectory_columns(wall, res.corrected))

cons = keep.constants
print(f"\nledger: eps={cons.eps}, k={cons.k_shift}, Delta={cons.Delta:.5f}, "
      f"rho_bar={cons.rho_bar:.5f}, m={cons.m}, beta={cons.beta:.3e}")
print(f"worst-case guarantee at depth 0.05: {cons.beta * 0.05:.3e} "
      f"(observed {keep.sup_dist:.4f})")

corr = keep.corrected
print("\nmax constraint value along the corrected path:",
      float(violations_along(wall, corr.times, corr.states).max()), "(<= 1e-9)")
print(f"artifacts in {OUT}")
