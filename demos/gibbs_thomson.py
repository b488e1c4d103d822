"""Gibbs-Thomson relation from mass-constrained minimizers.

Minimizing the diffuse energy subject to a mean constraint around a disk
produces a Lagrange multiplier (the chemical potential); as the interface
width shrinks it converges to -sigma H / gamma = -sigma / R for a disk of
the upper phase with constant sigma. The stationarity residual certifies
that the first-order conditions hold pointwise.

Run:  python demos/gibbs_thomson.py
"""

import numpy as np

from wmcflab import flow, sharp, variations as var, wells
from wmcflab.grid import Grid, extract_levelset

spec = wells.constant_quartic()
grid = Grid.box((0.0, 0.0), (1.0, 1.0), (128, 128))
radius = 0.25
disk = sharp.Sphere((0.5, 0.5), radius)
lam0 = -(np.sqrt(2) / 6) / radius

print(f"disk of the upper phase, R = {radius}: lambda_0 = -sigma/R = {lam0:.6f}")
print(f"{'eps':>6} {'lambda_eps':>12} {'|err|':>9} {'residual':>10} "
      f"{'fitted R':>9} {'iters':>6}")
for eps in (0.08, 0.04):
    u0 = var.build_recovery(disk, spec, grid, eps).state.u
    out = flow.minimize_constrained(spec, grid, eps,
                                    float(np.mean(u0.values)), u0,
                                    tol_residual=2e-4)
    fitted = extract_levelset(out.state.u, 0.5).fitted_circle()[1]
    print(f"{eps:6.3f} {out.lam:12.6f} {abs(out.lam - lam0):9.4f} "
          f"{out.residual:10.2e} {fitted:9.4f} {out.iterations:6d}")

print("\nthe multiplier is negative (a convex upper-phase droplet is under")
print("curvature pressure) and approaches -sigma/R linearly in eps.")
