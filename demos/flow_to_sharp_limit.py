"""Diffuse gradient flow against exact sharp-interface laws.

Two desk-scale runs of the semi-implicit scheme:

  * a shrinking disk with constant sigma, whose exact law is
    R(t) = sqrt(R0^2 - 2t) (curvature-driven);
  * a flat 1-d front in a well with sigma ~ exp(kappa x), which slides
    toward lower sigma with exact speed -kappa (heterogeneity-driven).

Both runs track the extracted interface against the ODE solution and
report the per-run dissipation ledger defect.

Run:  python demos/flow_to_sharp_limit.py
"""

import numpy as np

from wmcflab import flow, sharp, variations as var, wells
from wmcflab.grid import Grid, extract_levelset

print("shrinking disk, constant sigma, eps = 0.04 on a 128^2 grid")
spec = wells.constant_quartic()
grid = Grid.box((0.0, 0.0), (1.0, 1.0), (128, 128))
eps = 0.04
disk = sharp.Sphere((0.5, 0.5), 0.4)
state = var.build_recovery(disk, spec, grid, eps).state
lw = flow.reaction_lipschitz(spec, grid, (-0.06, 1.06))
dt = 0.25 * eps ** 2 / lw
steps = int(np.ceil(0.06 / dt))
dt = 0.06 / steps
checkpoints = [0.02, 0.04, 0.06]
state, ledger, snaps = flow.run(state, spec, dt=dt, t_end=0.06,
                                snapshot_times=checkpoints)
sig = sharp.constant_scalar_sigma(np.sqrt(2) / 6)
traj = sharp.evolve_radial(0.4, sig, 0.06, tol=1e-12, center=(0.5, 0.5))
print(f"{'t':>6} {'R (ODE)':>9} {'R (extracted)':>14} {'rel err':>9}")
for s in snaps:
    r_ode = float(traj.position(s.time))
    r_fit = extract_levelset(s.u, 0.5).fitted_circle()[1]
    print(f"{s.time:6.3f} {r_ode:9.5f} {r_fit:14.5f} "
          f"{abs(r_fit - r_ode) / r_ode:9.4f}")
print(f"dissipation ledger defect after {steps} steps: "
      f"{ledger.final_defect:.3e}")

print("\n1-d drift, sigma ~ exp(0.5 x), eps = 0.04 on 1024 cells")
kappa = 0.5
spec = wells.exp_scaled_quartic(kappa)
grid = Grid.interval(0.0, 1.0, 1024)
state = var.build_recovery(sharp.Point1D(0.7), spec, grid, eps).state
lw = flow.reaction_lipschitz(spec, grid, (-0.06, 1.06))
dt = 0.5 * eps ** 2 / lw
steps = int(np.ceil(0.2 / dt))
dt = 0.2 / steps
state, ledger, snaps = flow.run(state, spec, dt=dt, t_end=0.2,
                                snapshot_times=[0.1, 0.2])
print(f"{'t':>6} {'p (exact)':>10} {'p (extracted)':>14} {'drift err':>10}")
for s in snaps:
    p_exact = 0.7 - kappa * s.time
    p_fit = extract_levelset(s.u, 0.5).position()
    print(f"{s.time:6.3f} {p_exact:10.5f} {p_fit:14.5f} "
          f"{abs(p_fit - p_exact):10.5f}")
print("the front slides toward lower sigma at speed kappa, with no")
print("curvature contribution in one dimension.")
